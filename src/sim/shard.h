// Sharded multi-core execution of one Topology: conservative parallel
// discrete-event simulation with deterministic cross-shard handoff.
//
// A Topology built with `shards > 1` partitions its nodes across shards;
// each shard owns one EventLoop (and therefore one StatsRegistry
// partition) and is driven by one worker thread. Links whose endpoints
// live in different shards keep their egress machinery (queue,
// serialization, loss) in the source shard and hand finished segments to
// the destination shard through a ShardChannel: an inbox the source
// shard appends to during an epoch and the destination shard empties at
// the barrier.
//
// Synchronization is epoch-based and conservative, organized around
// *sync groups*: the weakly-connected components of the shard graph
// induced by the cross-shard channels. Shards that exchange no traffic
// share no barrier at all -- a shard with no cross-shard links runs its
// loop straight to the target time on its own thread. Within a group,
// all member shards advance virtual time in lockstep through a quantum
// Q no larger than the smallest propagation delay over that *group's*
// channels (the per-pair lookahead bound), not the global minimum, so
// one slow pair elsewhere in the topology no longer drags every shard's
// epoch length down. During an epoch [T, T+Q) every shard runs only its
// own loop; a segment departing at time t arrives at t + prop >= T+Q,
// never inside the current epoch. At the barrier every shard drains its
// inbound channels -- in fixed channel order, each channel FIFO -- and
// schedules the arrivals into its own loop at their exact virtual
// arrival times.
//
// Two optimizations collapse the synchronization cost without changing
// the schedule:
//   - Idle fast-forward: at each barrier every shard publishes its
//     loop's next-event deadline; the epoch end advances to the first
//     fixed-grid boundary at or after the group-wide minimum. Nothing
//     can fire -- and therefore nothing can send -- before that minimum,
//     so every skipped boundary's drain would have been empty and the
//     collapsed schedule is bit-identical to the fixed-quantum one,
//     tie-breaks included.
//   - Drain skip: producers publish cumulative handoff counts before the
//     first barrier; when the group-wide sum is unchanged, every inbound
//     channel is provably empty, and the drain *and the second barrier*
//     are skipped -- an idle epoch costs one barrier and a few atomic
//     loads per shard.
//
// Arrival timestamps are bit-identical to a single-shard execution; only
// the tie-break order of *exactly* equal-timestamp events on one loop
// can differ between shard counts. For a fixed shard count the whole
// execution is deterministic, which is the contract `sim_digest
// --shards N` pins in CI. Config::fixed_lockstep reproduces the
// round-1 engine's global-barrier schedule for A/B comparison.
//
// Thread-safety contract: a shard's loop, nodes, links, sockets and
// registry partition are touched only by that shard's worker thread
// while run_until() is executing (and only by the caller's thread
// before/after). Apart from the engine's own barriers and mailboxes,
// workers share only channel inboxes: the source shard appends to one
// while an epoch runs, and the destination shard drains it between the
// epoch's two barriers, while the producer waits. The barriers are the
// only ordering -- an inbox is a plain vector, with no atomics or locks
// of its own. Payload buffers are refcounted *non-atomically*, so
// ShardChannel::send() detaches the payload -- one copy into a fresh
// buffer -- before a segment crosses threads; this is the only byte copy
// the handoff costs. Frozen buffers (Payload::freeze(), e.g. the app
// pattern tape) are exempt: their refcount is never touched, so their
// views cross without a copy.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/ring_queue.h"
#include "net/segment.h"
#include "net/stats.h"
#include "sim/barrier.h"
#include "sim/event_loop.h"
#include "sim/node.h"

namespace mptcp {

/// One segment in flight between shards: delivery time plus the segment
/// itself (payload already detached from producer-shard buffers, or a
/// view of a frozen one).
struct HandoffItem {
  SimTime arrival = 0;
  TcpSegment seg;
};

/// One direction of one cross-shard link. The producer side lives with
/// the link in the source shard; drain() runs on the destination shard's
/// thread at epoch barriers only.
class ShardChannel {
 public:
  ShardChannel(size_t src_shard, size_t dst_shard, EventLoop& dst_loop,
               SimTime lookahead = 0)
      : src_shard_(src_shard), dst_shard_(dst_shard), dst_loop_(dst_loop),
        lookahead_(lookahead) {}

  ShardChannel(const ShardChannel&) = delete;
  ShardChannel& operator=(const ShardChannel&) = delete;

  size_t src_shard() const { return src_shard_; }
  size_t dst_shard() const { return dst_shard_; }
  /// The propagation delay of the link direction this channel carries:
  /// a segment handed off at time t arrives no earlier than
  /// t + lookahead(), which is the bound the engine's per-group quantum
  /// derives from.
  SimTime lookahead() const { return lookahead_; }

  /// Head of the destination-side delivery chain. splice() on a
  /// cross-shard link prepends middleboxes here, exactly as it would
  /// retarget an intra-shard link.
  PacketSink* target() const { return target_; }
  void set_target(PacketSink* t) { target_ = t; }

  /// Producer side: hands a segment off for delivery at `arrival`.
  /// Detaches the payload unless its buffer is frozen (non-atomic
  /// refcounts must not cross threads) and appends it to the inbox.
  void send(SimTime arrival, TcpSegment seg);

  /// Consumer side, barrier-only: moves the inbox, in producer FIFO
  /// order, into the pending queue and schedules one delivery event per
  /// run of equal arrival times -- each event burst-delivers its run
  /// through deliver_burst. Returns how many segments were drained. The
  /// caller must guarantee the producer is quiesced (the engine's
  /// barrier does).
  size_t drain();

  // --- introspection (read at barriers / after the run) -----------------
  uint64_t pushed() const { return pushed_; }
  uint64_t delivered() const { return delivered_; }

 private:
  /// Delivery-event callback: pops the front `n` pending segments (one
  /// equal-arrival run, in FIFO order) and burst-delivers them.
  void deliver_front(size_t n);

  const size_t src_shard_;
  const size_t dst_shard_;
  EventLoop& dst_loop_;
  const SimTime lookahead_;
  PacketSink* target_ = nullptr;

  // The producer's inbox and count and the consumer's queue and count sit
  // on separate cache lines: during an epoch the source shard appends
  // while the destination shard's delivery events pop.
  /// Segments handed off since the last drain: the producer thread
  /// appends during an epoch, and drain() empties it at the barrier but
  /// keeps its capacity, so a steady volume allocates nothing.
  alignas(64) std::vector<HandoffItem> inbox_;
  uint64_t pushed_ = 0;

  /// Drained-but-not-yet-delivered segments, owned by the consumer
  /// thread. Arrival order is globally sorted (FIFO serialization plus a
  /// constant propagation delay make per-channel arrivals monotone), and
  /// delivery events fire in (time, schedule-seq) order, so each event
  /// pops its run off the front. Keeping segments here instead of inside
  /// per-event closures keeps every callback within SmallFn's inline
  /// buffer -- no allocation per handed-off segment. A RingQueue: no
  /// storage for a channel that never carries traffic, and no block
  /// allocated and freed per few segments in steady state.
  alignas(64) RingQueue<HandoffItem> pending_;
  std::vector<TcpSegment> scratch_;  ///< reused burst buffer
  uint64_t delivered_ = 0;
};

class Topology;

/// Drives every shard of a Topology to a target virtual time in lockstep
/// epochs per sync group. With one shard this degenerates to a plain
/// run_until() on the calling thread; with N shards it spawns one worker
/// thread per shard.
class ShardedEngine {
 public:
  struct Config {
    /// Reproduces the round-1 engine's schedule exactly: one global
    /// barrier group over every shard, the global minimum lookahead as
    /// the quantum, no drain skip, no idle fast-forward. The A/B
    /// baseline bench_shard compares epoch counts against.
    bool fixed_lockstep = false;
  };

  explicit ShardedEngine(Topology& topo) : ShardedEngine(topo, Config{}) {}
  ShardedEngine(Topology& topo, Config cfg);

  /// Runs every shard to virtual time `t`. Blocks until all shards (and
  /// all cross-shard deliveries scheduled before `t`) are done.
  void run_until(SimTime t);

  /// Barrier-synchronized epoch iterations so far, summed over sync
  /// groups (each group counted once, not per member shard).
  uint64_t epochs() const { return epochs_; }
  /// Epochs whose drain + second barrier were skipped because no channel
  /// in the group had been pushed since the previous drain.
  uint64_t drain_skips() const { return drain_skips_; }
  /// Multi-shard barrier groups (shards with no cross-shard links run
  /// solo and belong to none).
  size_t sync_groups() const { return groups_.size(); }
  /// Segments handed across shards so far.
  uint64_t handoff_packets() const;
  /// Both always 0: an inbox grows to what an epoch sends, so nothing
  /// overflows or regrows it. perfbench still exports the two counters.
  uint64_t handoff_spills() const { return 0; }
  uint64_t ring_resizes() const { return 0; }
  /// p50 of wall-clock nanoseconds spent inside arrive_and_wait(),
  /// across every (shard, barrier crossing) pair so far; 0 before any
  /// barrier was crossed. Bucketed at power-of-two resolution.
  uint64_t barrier_wait_ns_p50() const;

 private:
  /// Double-banked per-member mailbox. Bank k&1 carries epoch k's
  /// published state; a bank is rewritten only two epochs later, by
  /// which time every reader has passed an intervening barrier, so the
  /// skip path (which has no second barrier) never races a fast
  /// neighbor's next publish.
  struct alignas(64) MemberSlot {
    std::atomic<uint64_t> pushed{0};          ///< cumulative, this member
    std::atomic<SimTime> next_event{kSimTimeNever};
  };

  struct Group {
    std::vector<size_t> members;  ///< shard ids, ascending
    SimTime quantum = 0;          ///< min lookahead over group channels
    bool allow_skip = false;
    bool allow_ff = false;
    std::unique_ptr<EpochBarrier> barrier;
    std::vector<MemberSlot> banks[2];
    // Per-run state, seeded by the coordinator while quiesced.
    bool backlog_at_start = false;
    uint64_t start_drained = 0;   ///< group prev-total seed
    uint64_t epoch_iters = 0;     ///< written by members[0] only
    uint64_t skips = 0;           ///< written by members[0] only
  };

  void run_shard(size_t shard, SimTime start, SimTime t_end);
  void run_group_epochs(size_t shard, Group& g, SimTime start, SimTime t_end);
  static SimTime grid_end(SimTime at, SimTime floor_t, SimTime q,
                          SimTime t_end);
  void timed_wait(EpochBarrier& bar, Histogram& h);

  Topology& topo_;
  Config cfg_;
  uint64_t epochs_ = 0;
  uint64_t drain_skips_ = 0;
  std::vector<std::unique_ptr<Group>> groups_;
  std::vector<Group*> group_of_;       ///< per shard; null = runs solo
  std::vector<size_t> member_index_;   ///< position within its group
  /// Channels grouped by destination shard, in creation (link) order --
  /// the drain order every barrier uses, part of the determinism
  /// contract -- and by source shard, the watermark-publish order.
  std::vector<std::vector<ShardChannel*>> inbound_;
  std::vector<std::vector<ShardChannel*>> outbound_;
  /// Per-shard barrier-wait distributions; each written only by its
  /// shard's worker, merged on demand by barrier_wait_ns_p50().
  std::vector<Histogram> wait_ns_;
};

}  // namespace mptcp
