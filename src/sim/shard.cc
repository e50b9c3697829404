#include "sim/shard.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <thread>
#include <utility>

#include "sim/topology.h"

namespace mptcp {

void ShardChannel::send(SimTime arrival, TcpSegment seg) {
  // Detach the payload before it crosses threads: refcounts are
  // non-atomic and the backing block came from the producer thread's
  // pool, so the consumer must never see a buffer anyone else still
  // references. A frozen buffer (the app pattern tape) is exempt: its
  // refcount is never touched and it is never freed. That covers every
  // view of it, including one Payload::concat() joined from adjacent
  // views (a slice straddling two tape writes).
  if (!seg.payload.empty() && !seg.payload.is_frozen()) {
    seg.payload = Payload(seg.payload.span());
  }
  ++pushed_;
  inbox_.push_back({arrival, std::move(seg)});
}

size_t ShardChannel::drain() {
  const size_t base = pending_.size();
  const size_t n = inbox_.size();
  for (HandoffItem& item : inbox_) pending_.push_back(std::move(item));
  inbox_.clear();

  // One event per run of equal arrival times. The old per-item events
  // carried consecutive schedule-seqs with nothing interleaved between
  // them (drain is a tight loop), so a single event at the run's first
  // seq fires the identical deliveries in the identical order -- and the
  // [this, run] capture fits SmallFn's inline buffer where a captured
  // TcpSegment did not. Runs never span drains: a later drain's arrivals
  // are strictly greater (FIFO serialization + constant propagation).
  size_t i = base;
  const size_t end = base + n;
  while (i < end) {
    const SimTime at = pending_[i].arrival;
    size_t run = 1;
    while (i + run < end && pending_[i + run].arrival == at) ++run;
    dst_loop_.schedule_at(at, [this, run] { deliver_front(run); });
    i += run;
  }
  delivered_ += n;
  return n;
}

void ShardChannel::deliver_front(size_t n) {
  scratch_.clear();
  for (size_t i = 0; i < n; ++i) {
    scratch_.push_back(std::move(pending_.front().seg));
    pending_.pop_front();
  }
  if (target_ != nullptr) target_->deliver_burst(scratch_.data(), n);
  scratch_.clear();  // drop moved-from husks (and any undelivered payloads)
}

ShardedEngine::ShardedEngine(Topology& topo, Config cfg)
    : topo_(topo), cfg_(cfg) {
  const size_t shards = topo_.shard_count();
  inbound_.resize(shards);
  outbound_.resize(shards);
  for (const auto& ch : topo_.channels()) {
    inbound_[ch->dst_shard()].push_back(ch.get());
    outbound_[ch->src_shard()].push_back(ch.get());
  }
  group_of_.assign(shards, nullptr);
  member_index_.assign(shards, 0);
  wait_ns_.resize(shards);

  // Partition shards into sync groups. fixed_lockstep reproduces the
  // round-1 engine: one global group, global minimum quantum, every
  // optimization off. Otherwise groups are the weakly-connected
  // components of the channel graph; shards outside every component run
  // solo, barrier-free.
  if (cfg_.fixed_lockstep) {
    auto g = std::make_unique<Group>();
    g->members.resize(shards);
    std::iota(g->members.begin(), g->members.end(), size_t{0});
    g->quantum = topo_.min_cross_prop();
    groups_.push_back(std::move(g));
  } else {
    std::vector<size_t> parent(shards);
    std::iota(parent.begin(), parent.end(), size_t{0});
    const auto find = [&parent](size_t x) {
      while (parent[x] != x) x = parent[x] = parent[parent[x]];
      return x;
    };
    for (const auto& ch : topo_.channels()) {
      parent[find(ch->src_shard())] = find(ch->dst_shard());
    }
    std::vector<Group*> group_of_root(shards, nullptr);
    for (size_t s = 0; s < shards; ++s) {
      if (inbound_[s].empty() && outbound_[s].empty()) continue;  // solo
      const size_t root = find(s);
      if (group_of_root[root] == nullptr) {
        groups_.push_back(std::make_unique<Group>());
        groups_.back()->allow_skip = true;
        groups_.back()->allow_ff = true;
        group_of_root[root] = groups_.back().get();
      }
      group_of_root[root]->members.push_back(s);
    }
    for (const auto& ch : topo_.channels()) {
      Group* g = group_of_root[find(ch->src_shard())];
      const SimTime prop = ch->lookahead();
      if (prop > 0 && (g->quantum == 0 || prop < g->quantum)) {
        g->quantum = prop;
      }
    }
  }
  for (auto& g : groups_) {
    g->barrier = std::make_unique<EpochBarrier>(g->members.size());
    for (auto& bank : g->banks) {
      bank = std::vector<MemberSlot>(g->members.size());
    }
    for (size_t m = 0; m < g->members.size(); ++m) {
      group_of_[g->members[m]] = g.get();
      member_index_[g->members[m]] = m;
    }
  }
}

void ShardedEngine::run_until(SimTime t) {
  const size_t shards = topo_.shard_count();
  if (shards <= 1) {
    topo_.loop(0).run_until(t);
    return;
  }
  // All loops sit at the same virtual time between runs (lockstep
  // invariant), so shard 0's clock is everyone's clock.
  const SimTime start = topo_.loop(0).now();
  if (t <= start) return;

  // Seed per-run group state while every thread is quiesced: the
  // backlog flag (segments parked in inboxes by the previous run's tail),
  // the watermark baseline, and both banks' event floors.
  for (auto& g : groups_) {
    uint64_t pushed = 0;
    uint64_t drained = 0;
    for (size_t s : g->members) {
      for (const ShardChannel* ch : inbound_[s]) {
        pushed += ch->pushed();
        drained += ch->delivered();
      }
    }
    g->backlog_at_start = pushed != drained;
    g->start_drained = drained;
    g->epoch_iters = 0;
    g->skips = 0;
    for (size_t m = 0; m < g->members.size(); ++m) {
      const size_t s = g->members[m];
      const SimTime ne = topo_.loop(s).next_event_time();
      uint64_t out = 0;
      for (const ShardChannel* ch : outbound_[s]) out += ch->pushed();
      for (auto& bank : g->banks) {
        bank[m].pushed.store(out, std::memory_order_relaxed);
        bank[m].next_event.store(ne, std::memory_order_relaxed);
      }
    }
  }

  std::vector<std::thread> workers;
  workers.reserve(shards - 1);
  for (size_t s = 1; s < shards; ++s) {
    workers.emplace_back([this, s, start, t] { run_shard(s, start, t); });
  }
  run_shard(0, start, t);
  for (std::thread& w : workers) w.join();

  for (const auto& g : groups_) {
    epochs_ += g->epoch_iters;
    drain_skips_ += g->skips;
  }
}

void ShardedEngine::run_shard(size_t shard, SimTime start, SimTime t_end) {
  Group* g = group_of_[shard];
  if (g == nullptr) {
    // No channel touches this shard: nothing to synchronize with.
    topo_.loop(shard).run_until(t_end);
    return;
  }
  run_group_epochs(shard, *g, start, t_end);
}

void ShardedEngine::run_group_epochs(size_t shard, Group& g, SimTime start,
                                     SimTime t_end) {
  EventLoop& loop = topo_.loop(shard);
  const size_t me = member_index_[shard];
  const size_t parties = g.members.size();
  const std::vector<ShardChannel*>& inbound = inbound_[shard];
  const std::vector<ShardChannel*>& outbound = outbound_[shard];
  // A group always has at least one channel, hence quantum > 0 -- except
  // the fixed_lockstep global group on a channel-free topology, which
  // runs one epoch per run like round 1 did.
  const SimTime q = g.quantum > 0 ? g.quantum : t_end - start;
  Histogram& waits = wait_ns_[shard];
  uint64_t prev_total = g.start_drained;
  uint64_t iters = 0;
  uint64_t skips = 0;
  uint64_t k = 0;  // epoch index; bank k&1 carries this epoch's publishes
  SimTime at = start;
  while (at < t_end) {
    SimTime next;
    if (!g.allow_ff) {
      next = (t_end - at <= q) ? t_end : at + q;
    } else if (k == 0 && g.backlog_at_start) {
      // Parked arrivals from the previous run must be drained at the
      // first grid boundary, exactly where the fixed schedule drains
      // them; fast-forwarding past it would clamp them to a later time.
      next = (t_end - at <= q) ? t_end : at + q;
    } else {
      // Event floor published at the previous barrier: no member fires
      // -- so no member sends -- before it.
      SimTime floor_t = kSimTimeNever;
      const std::vector<MemberSlot>& prev = g.banks[(k + 1) & 1];
      for (size_t m = 0; m < parties; ++m) {
        const SimTime ne = prev[m].next_event.load(std::memory_order_acquire);
        floor_t = std::min(floor_t, ne);
      }
      next = grid_end(at, floor_t, q, t_end);
    }
    loop.run_until(next);

    std::vector<MemberSlot>& bank = g.banks[k & 1];
    uint64_t out = 0;
    for (const ShardChannel* ch : outbound) out += ch->pushed();
    bank[me].pushed.store(out, std::memory_order_release);
    bank[me].next_event.store(loop.next_event_time(),
                              std::memory_order_release);
    // First barrier: every producer finished the epoch, so the inboxes
    // are quiescent and safe to drain from this thread.
    timed_wait(*g.barrier, waits);

    uint64_t total = 0;
    for (size_t m = 0; m < parties; ++m) {
      total += bank[m].pushed.load(std::memory_order_acquire);
    }
    if (!g.allow_skip || total != prev_total) {
      for (ShardChannel* ch : inbound) ch->drain();
      // Drained arrivals lower this loop's event floor; republish before
      // the neighbors read it for the next epoch's fast-forward.
      bank[me].next_event.store(loop.next_event_time(),
                                std::memory_order_release);
      // Second barrier: all drains are done before any shard appends to
      // an inbox again next epoch.
      timed_wait(*g.barrier, waits);
      prev_total = total;
    } else if (me == 0) {
      // Group-wide sum unchanged since the last drain: every inbound
      // inbox is empty, nothing to schedule, nothing for a second barrier
      // to protect. Every member computed the same sum from the same
      // bank, so all of them skip together.
      ++skips;
    }
    ++iters;
    at = next;
    ++k;
  }
  // The final drain can schedule arrivals at exactly t_end (depart at
  // t_end - prop in the last epoch); they belong to this run. Anything
  // they send cross-shard arrives at >= t_end + lookahead and waits in
  // the inboxes for the next run's first barrier.
  loop.run_until(t_end);
  if (me == 0) {
    g.epoch_iters = iters;
    g.skips = skips;
  }
}

SimTime ShardedEngine::grid_end(SimTime at, SimTime floor_t, SimTime q,
                                SimTime t_end) {
  if (t_end - at <= q) return t_end;
  if (floor_t >= t_end) return t_end;  // idle to the horizon (or forever)
  if (floor_t <= at + q) return at + q;
  // First fixed-grid boundary at or after the floor. Every skipped
  // boundary B < floor_t would have drained nothing: no event fires
  // before floor_t, so no segment departs before floor_t > B, and a
  // segment departing at t in [floor_t, end) is drained at `end` by the
  // fixed schedule too (the previous boundary is below floor_t <= t).
  const SimTime steps = (floor_t - at + q - 1) / q;
  const SimTime end = at + steps * q;
  return end >= t_end ? t_end : end;
}

void ShardedEngine::timed_wait(EpochBarrier& bar, Histogram& h) {
  const auto t0 = std::chrono::steady_clock::now();
  bar.arrive_and_wait();
  const auto dt = std::chrono::steady_clock::now() - t0;
  h.record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()));
}

uint64_t ShardedEngine::handoff_packets() const {
  uint64_t n = 0;
  for (const auto& ch : topo_.channels()) n += ch->pushed();
  return n;
}

uint64_t ShardedEngine::barrier_wait_ns_p50() const {
  Histogram all;
  for (const Histogram& h : wait_ns_) all.merge_from(h);
  if (all.count() == 0) return 0;
  return all.approx_percentile(0.5);
}

}  // namespace mptcp
