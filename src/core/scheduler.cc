#include "core/scheduler.h"

#include <algorithm>

#include "core/subflow.h"

namespace mptcp {

std::string_view to_string(SchedulerPolicy p) {
  switch (p) {
    case SchedulerPolicy::kLowestRtt: return "lowest-rtt";
    case SchedulerPolicy::kRoundRobin: return "round-robin";
    case SchedulerPolicy::kRedundant: return "redundant";
    case SchedulerPolicy::kBackupAware: return "backup-aware";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Base strategy: the shared scheduling pass.
// ---------------------------------------------------------------------------

void Scheduler::allocate(uint64_t /*dsn*/, uint64_t /*len*/,
                         MptcpSubflow& /*sf*/) {
  ++allocs_;
}

MptcpSubflow* Scheduler::lowest_rtt_pick(SchedulerHost& host,
                                         uint64_t min_space,
                                         bool spill_on_block) {
  MptcpSubflow* best = nullptr;
  MptcpSubflow* best_backup = nullptr;
  bool regular_alive = false;
  for (const auto& sf : host.sched_subflows()) {
    if (!sf->mptcp_usable()) continue;
    if (!sf->backup()) regular_alive = true;
    if (sf->cwnd_space() < min_space) continue;
    MptcpSubflow*& slot = sf->backup() ? best_backup : best;
    if (slot == nullptr || sf->srtt() < slot->srtt()) slot = sf.get();
  }
  if (best != nullptr) return best;
  if (spill_on_block) {
    // Backup-aware relaxation: every primary is congestion-window
    // blocked (or dead), so spill onto the best backup rather than
    // letting the connection idle on spare backup capacity.
    return best_backup;
  }
  // A backup subflow only carries data when no regular subflow is alive
  // (not merely when the primary's window is momentarily full).
  return regular_alive ? nullptr : best_backup;
}

void Scheduler::run(SchedulerHost& h) {
  const uint64_t batch_bytes = h.sched_batch_bytes();

  for (;;) {
    MptcpSubflow* sf = pick(h, 1);
    if (sf == nullptr) break;

    // Re-injections (from dead subflows or the meta RTO) go first.
    auto& reinject = h.sched_reinject();
    if (!reinject.empty()) {
      auto [dsn, len] = reinject.front();
      reinject.pop_front();
      const uint64_t begin = std::max(dsn, h.sched_snd_una());
      const uint64_t end = dsn + len;
      if (end <= begin) continue;
      uint64_t n = std::min<uint64_t>({end - begin, sf->cwnd_space(),
                                       batch_bytes});
      if (n == 0) {
        reinject.push_front({begin, end - begin});
        break;
      }
      Payload bytes = h.sched_slice(begin, static_cast<size_t>(n));
      h.sched_count_reinjected(n);
      h.sched_note_pick(*sf);
      allocate(begin, n, *sf);
      sf->push_mapped(begin, std::move(bytes));
      sf->try_send();
      if (begin + n < end) reinject.push_front({begin + n, end - begin - n});
      continue;
    }

    const uint64_t snd_nxt = h.sched_snd_nxt();
    const uint64_t avail = h.sched_stream_end() - snd_nxt;
    const uint64_t window_edge = h.sched_window_edge();
    const uint64_t window_room =
        window_edge > snd_nxt ? window_edge - snd_nxt : 0;

    if (avail == 0 || window_room == 0) {
      // `sf` has congestion window to spare but the connection cannot
      // give it new data: either the shared receive window is full, or
      // the (equally sized) send buffer is fully allocated with its
      // trailing edge unacknowledged -- both are the "window stall" of
      // section 4.2, held up by whichever subflow owns the oldest chunk.
      if (h.sched_snd_una() < snd_nxt) h.sched_window_blocked(*sf);
      break;
    }

    const uint64_t n = std::min<uint64_t>(
        {batch_bytes, avail, window_room, sf->cwnd_space()});
    if (n == 0) break;

    Payload bytes = h.sched_slice(snd_nxt, static_cast<size_t>(n));
    h.sched_record_alloc(snd_nxt, n, sf->id());
    h.sched_note_pick(*sf);
    allocate(snd_nxt, n, *sf);
    sf->push_mapped(snd_nxt, std::move(bytes));
    sf->try_send();
  }
}

// ---------------------------------------------------------------------------
// Concrete policies.
// ---------------------------------------------------------------------------

namespace {

/// The paper's scheduler (section 4.2): lowest-srtt subflow with
/// congestion window space; backups only when no primary is alive.
class LowestRttScheduler final : public Scheduler {
 public:
  SchedulerPolicy policy() const override {
    return SchedulerPolicy::kLowestRtt;
  }

  MptcpSubflow* pick(SchedulerHost& h, uint64_t min_space) override {
    return lowest_rtt_pick(h, min_space, /*spill_on_block=*/false);
  }
};

/// Rotate across usable subflows with window space, ignoring RTTs -- the
/// strawman policy, kept for ablation (bench/ablation_scheduler).
class RoundRobinScheduler final : public Scheduler {
 public:
  SchedulerPolicy policy() const override {
    return SchedulerPolicy::kRoundRobin;
  }

  MptcpSubflow* pick(SchedulerHost& h, uint64_t min_space) override {
    // The rotation runs over the id space, so a closed subflow leaves a
    // gap rather than shifting its successors' turns.
    MptcpSubflow* wrapped = nullptr;  // first candidate below the cursor
    for (const auto& sf : h.sched_subflows()) {
      if (!sf->mptcp_usable() || sf->backup() ||
          sf->cwnd_space() < min_space) {
        continue;
      }
      if (sf->id() >= rr_next_) return advance_past(h, sf.get());
      if (wrapped == nullptr) wrapped = sf.get();
    }
    if (wrapped != nullptr) return advance_past(h, wrapped);
    // Fall through to the default policy for the backup-only case.
    return lowest_rtt_pick(h, min_space, /*spill_on_block=*/false);
  }

 private:
  MptcpSubflow* advance_past(SchedulerHost& h, MptcpSubflow* sf) {
    rr_next_ = (sf->id() + 1) % h.sched_subflow_ids();
    return sf;
  }

  size_t rr_next_ = 0;  ///< id the next rotation starts from
};

/// Every subflow independently carries the whole stream: each keeps its
/// own cursor into the data sequence space and fills its window with
/// (mostly duplicate) copies. Maximum robustness, zero aggregation.
class RedundantScheduler final : public Scheduler {
 public:
  SchedulerPolicy policy() const override {
    return SchedulerPolicy::kRedundant;
  }

  MptcpSubflow* pick(SchedulerHost& h, uint64_t min_space) override {
    // Redundant has no single "next carrier"; for the shared epilogue
    // (DATA_FIN placement goes through best_usable_subflow, not here)
    // and for external probes, fall back to the default selection.
    return lowest_rtt_pick(h, min_space, /*spill_on_block=*/false);
  }

  void allocate(uint64_t dsn, uint64_t len, MptcpSubflow& sf) override {
    Scheduler::allocate(dsn, len, sf);
    sf.meta_state().stream_cursor = dsn + len;
  }

  void run(SchedulerHost& h) override {
    const uint64_t batch_bytes = h.sched_batch_bytes();
    for (const auto& sf : h.sched_subflows()) {
      if (!sf->mptcp_usable()) continue;
      for (;;) {
        // The cursor never runs behind the cumulative DATA_ACK: data
        // below snd_una is already delivered, duplicating it is waste.
        const uint64_t ptr =
            std::max(sf->meta_state().stream_cursor, h.sched_snd_una());
        const uint64_t limit =
            std::min(h.sched_stream_end(), h.sched_window_edge());
        if (ptr >= limit) break;
        const uint64_t n = std::min<uint64_t>(
            {batch_bytes, limit - ptr, sf->cwnd_space()});
        if (n == 0) break;
        Payload bytes = h.sched_slice(ptr, static_cast<size_t>(n));
        const uint64_t snd_nxt = h.sched_snd_nxt();
        if (ptr + n > snd_nxt) {
          // First coverage of this range: record the allocation.
          h.sched_record_alloc(snd_nxt, ptr + n - snd_nxt, sf->id());
        } else {
          h.sched_count_reinjected(n);  // a duplicate copy
        }
        h.sched_note_pick(*sf);
        allocate(ptr, n, *sf);
        sf->push_mapped(ptr, std::move(bytes));
        sf->try_send();
      }
    }
  }
};

/// Lowest-RTT over primaries, but spills to the best backup whenever
/// every primary is congestion-window blocked -- MP_PRIO still ranks the
/// paths, it just stops meaning "idle while primaries are stuck".
class BackupAwareScheduler final : public Scheduler {
 public:
  SchedulerPolicy policy() const override {
    return SchedulerPolicy::kBackupAware;
  }

  MptcpSubflow* pick(SchedulerHost& h, uint64_t min_space) override {
    return lowest_rtt_pick(h, min_space, /*spill_on_block=*/true);
  }
};

}  // namespace

std::unique_ptr<Scheduler> Scheduler::make(SchedulerPolicy policy) {
  switch (policy) {
    case SchedulerPolicy::kRoundRobin:
      return std::make_unique<RoundRobinScheduler>();
    case SchedulerPolicy::kRedundant:
      return std::make_unique<RedundantScheduler>();
    case SchedulerPolicy::kBackupAware:
      return std::make_unique<BackupAwareScheduler>();
    case SchedulerPolicy::kLowestRtt:
      break;
  }
  return std::make_unique<LowestRttScheduler>();
}

}  // namespace mptcp
