// Pluggable packet scheduling: the sender-side policy of section 4.2 as a
// strategy hierarchy.
//
// The paper's implementation sends "a new packet on the lowest delay link
// that has space in its congestion window" (section 4.2); that is the
// default policy here. Alternatives exist for ablation -- round-robin
// (what naive striping would do, the strawman of section 3) and redundant
// (every chunk on every subflow; the robustness-over-throughput extreme
// in the multipath literature the paper cites) -- plus one policy the old
// monolithic scheduler could not express: backup-aware, which honours
// MP_PRIO priorities but spills onto backup subflows the moment every
// primary is congestion-window blocked instead of letting the connection
// stall.
//
// Split of responsibilities (mirrors the protocol/sched split Linux MPTCP
// later adopted):
//   * Scheduler  -- WHICH subflow carries WHAT data. Owns the policy's
//     connection-wide state (the round-robin cursor); what a policy
//     keeps per subflow (the redundant stream cursor) lives in the
//     subflow and leaves with it.
//   * SchedulerHost -- the narrow view of MptcpConnection a policy may
//     touch: the data-sequence send state, the re-injection queue, and
//     the window-stall hook that drives Mechanisms 1/2. Policies cannot
//     reach the receive path, teardown, or path management.
//   * MptcpConnection -- retains the mechanisms themselves (M1-M4), the
//     DATA_FIN rule and the meta RTO; its schedule() is one strategy
//     call plus that epilogue.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <utility>

#include "net/payload.h"
#include "net/ring_queue.h"

namespace mptcp {

class MptcpSubflow;

enum class SchedulerPolicy : uint8_t {
  kLowestRtt,    ///< the paper's scheduler (default)
  kRoundRobin,   ///< rotate across subflows with window space
  kRedundant,    ///< duplicate every chunk on every usable subflow
  kBackupAware,  ///< lowest-RTT over primaries, spill to backups on block
};

std::string_view to_string(SchedulerPolicy p);

/// What a scheduling policy may see and do to the connection's send
/// state. Implemented (privately) by MptcpConnection. Data sequence
/// bookkeeping: [una, nxt) is allocated and in flight, [nxt, stream_end)
/// is buffered but unallocated, window_edge is the peer's advertised
/// right edge in data-sequence space.
class SchedulerHost {
 public:
  /// The connection's subflows in id order. A closed subflow stays
  /// listed (and unusable) until the event that closed it has unwound.
  virtual std::span<const std::unique_ptr<MptcpSubflow>> sched_subflows() = 0;
  /// Subflow ids handed out so far; ids are never reused.
  virtual size_t sched_subflow_ids() const = 0;
  /// Allocation batch in bytes (config.batch_segments * mss): contiguous
  /// data-sequence runs handed to one subflow at a time.
  virtual uint64_t sched_batch_bytes() const = 0;
  virtual uint64_t sched_snd_una() const = 0;
  virtual uint64_t sched_snd_nxt() const = 0;
  virtual uint64_t sched_stream_end() const = 0;
  virtual uint64_t sched_window_edge() const = 0;
  /// Pending re-injection ranges (dsn, len), oldest first: data owed by
  /// dead subflows or resurrected by the meta RTO. Re-injections are
  /// served before any fresh allocation; a partly served range goes back
  /// with push_front(). Copy an entry out before pushing or popping: a
  /// RingQueue resize invalidates references into it.
  virtual RingQueue<std::pair<uint64_t, uint64_t>>& sched_reinject() = 0;
  /// Zero-copy view of [dsn, dsn+len) from the connection-level send
  /// buffer (the bytes stay owned by the buffer until DATA_ACKed).
  virtual Payload sched_slice(uint64_t dsn, size_t len) = 0;
  /// Records a fresh allocation [dsn, dsn+len) -> subflow `sf_id` and
  /// advances snd_nxt past it.
  virtual void sched_record_alloc(uint64_t dsn, uint64_t len,
                                  size_t sf_id) = 0;
  /// Accounts `bytes` of duplicate transmission (re-injections, redundant
  /// copies).
  virtual void sched_count_reinjected(uint64_t bytes) = 0;
  /// Per-connection and per-subflow pick accounting (observability).
  virtual void sched_note_pick(MptcpSubflow& sf) = 0;
  /// The shared window is full while `fast` still has congestion window
  /// to spare: the section 4.2 stall that triggers Mechanisms 1/2.
  virtual void sched_window_blocked(MptcpSubflow& fast) = 0;

 protected:
  ~SchedulerHost() = default;
};

/// Strategy interface: pick(subflows) chooses the next carrier, allocate()
/// is the per-chunk policy bookkeeping hook, run() is one full scheduling
/// pass. The base run() implements the shared loop (re-injection first,
/// then batched fresh allocation with window-stall reporting); policies
/// with a different structure (Redundant) override it.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  virtual SchedulerPolicy policy() const = 0;

  /// Chooses the subflow to carry the next chunk (at least `min_space`
  /// bytes of congestion window), or nullptr when no subflow can take
  /// data right now. Pure selection: no connection state is modified
  /// (policy-internal cursors may advance).
  virtual MptcpSubflow* pick(SchedulerHost& host, uint64_t min_space) = 0;

  /// Policy bookkeeping for a chunk [dsn, dsn+len) handed to `sf`
  /// (cursor advance for cursor-keeping policies). Counted in allocs().
  virtual void allocate(uint64_t dsn, uint64_t len, MptcpSubflow& sf);

  /// One full scheduling pass over the connection's send state.
  virtual void run(SchedulerHost& host);

  /// Chunks allocated through allocate(); exported as
  /// "<conn>.sched.<policy>.allocs" by the connection's stats hook.
  uint64_t allocs() const { return allocs_; }

  static std::unique_ptr<Scheduler> make(SchedulerPolicy policy);

 protected:
  Scheduler() = default;

  /// Shared selection core: lowest-srtt usable subflow with space among
  /// primaries; backups carry data only when no primary is alive -- or,
  /// with `spill_on_block`, also when every live primary is
  /// congestion-window blocked (the backup-aware relaxation).
  static MptcpSubflow* lowest_rtt_pick(SchedulerHost& host,
                                       uint64_t min_space,
                                       bool spill_on_block);

  uint64_t allocs_ = 0;  ///< chunks allocated through allocate()
};

}  // namespace mptcp
