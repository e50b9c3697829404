// A unidirectional link: serialization at a fixed rate, a drop-tail buffer
// of bounded byte size, fixed propagation delay, and optional Bernoulli
// loss. Two of these back-to-back model a full-duplex path.
//
// The paper's emulated paths are expressed directly in this vocabulary,
// e.g. "WiFi" = 8 Mbps, 20 ms RTT (10 ms per direction), 80 ms of buffer.
//
// One RingQueue holds every segment from enqueue to arrival: the ones
// still waiting for the transmitter sit behind the ones propagating. A
// segment is moved into the ring once (on enqueue) and out once (into
// the target, or into the shard channel), and its fate is decided in
// place when it departs.
#pragma once

#include <string>
#include <utility>

#include "net/ring_queue.h"
#include "net/rng.h"
#include "sim/event_loop.h"
#include "sim/node.h"

namespace mptcp {

class ShardChannel;

struct LinkConfig {
  double rate_bps = 10e6;
  SimTime prop_delay = 10 * kMillisecond;  ///< one-way propagation
  size_t buffer_bytes = 64 * 1024;         ///< drop-tail queue capacity
  double loss_prob = 0.0;                  ///< i.i.d. loss, applied at egress
  uint64_t loss_seed = 1;

  /// Convenience: buffer sized to hold `ms` milliseconds at the link rate,
  /// the way the paper specifies buffers ("80ms buffer", "2s buffer").
  static size_t buffer_for_delay(double rate_bps, SimTime buf_delay) {
    return static_cast<size_t>(rate_bps / 8.0 * to_seconds(buf_delay));
  }
};

class Link : public PacketSink {
 public:
  struct Stats {
    uint64_t enqueued_pkts = 0;
    uint64_t delivered_pkts = 0;
    uint64_t delivered_bytes = 0;
    uint64_t dropped_overflow = 0;
    uint64_t dropped_loss = 0;
    uint64_t dropped_down = 0;
  };

  Link(EventLoop& loop, LinkConfig config, std::string name = "link");

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  void set_target(PacketSink* target) { target_ = target; }
  PacketSink* target() const { return target_; }

  /// Cross-shard delivery: when set (by Topology, for links whose
  /// endpoints live in different shards), segments that survive
  /// serialization and loss are handed to the channel stamped with their
  /// arrival time (now + prop_delay) instead of being propagated through
  /// a local event -- the destination shard schedules the arrival in its
  /// own loop at an epoch barrier. Takes precedence over target().
  void set_handoff(ShardChannel* ch) { handoff_ = ch; }

  /// Enqueues a segment for transmission (or drops it if the buffer is
  /// full or the link is administratively down).
  void deliver(TcpSegment seg) override;

  /// Batch enqueue: same per-segment admission decisions (in order, against
  /// the running queue depth) but the counter updates are amortized and the
  /// transmitter is kicked once at the end of the burst instead of after
  /// the first admitted segment. No event fires mid-burst, so deferring the
  /// kick schedules the identical transmission at the identical time.
  void deliver_burst(TcpSegment* segs, size_t n) override;

  /// Administrative up/down; a downed link drops everything, modelling
  /// loss of an interface (mobility scenarios).
  void set_up(bool up) { up_ = up; }

  /// Changes the loss probability mid-run (scenario scripting).
  void set_loss_prob(double p) { config_.loss_prob = p; }

  const LinkConfig& config() const { return config_; }
  const Stats& stats() const { return stats_; }
  const std::string& name() const { return name_; }
  /// Wire bytes waiting for the transmitter; propagating segments are
  /// not counted.
  size_t queued_bytes() const { return queued_bytes_; }
  /// Queue depth in bytes, sampled on every enqueue.
  const Histogram& occupancy() const { return occupancy_; }
  /// Exports the counters under "sim.link.<name>" (numbered "#2", ...
  /// after the first live link of that name on the loop).
  void publish_stats(StatsOut& out) const;

 private:
  void start_transmission();
  void finish_transmission();
  void deliver_in_flight();
  /// Frees the departing slot's segment (dropped, handed off or without a
  /// target).
  void release_departing();

  EventLoop& loop_;
  LinkConfig config_;
  std::string name_;
  PacketSink* target_ = nullptr;
  ShardChannel* handoff_ = nullptr;
  Rng rng_;

  /// One segment from enqueue to arrival.
  struct Slot {
    Slot(TcpSegment&& s, size_t size) : seg(std::move(s)), wire_size(size) {}

    TcpSegment seg;
    /// Share storage: the wire size is read for the last time when the
    /// segment departs, and only then is the arrival time written.
    union {
      /// Computed once on enqueue (wire_size() walks every option) and
      /// reused for the transmission time, the queue depth and the
      /// delivered-bytes count.
      size_t wire_size;
      /// Set with target for a segment that departs behind a propagating
      /// one: when it arrives.
      SimTime arrival;
    };
    /// Set when the segment departs toward a local target, like the
    /// closure capture it replaces; null for a queued segment and for a
    /// released one left behind a propagating segment.
    PacketSink* target = nullptr;
    /// Set with arrival: the schedule-seq the departure reserved for the
    /// arrival event filed when the one ahead arrives.
    uint64_t arrival_seq = 0;
  };
  /// [0, departed_) have departed: each live one waits to arrive, and
  /// released ones wait to be popped behind the live one ahead of them.
  /// [departed_, size()) are queued, front next on the wire. Propagation
  /// delay is constant and departures are serialized, so arrivals are
  /// FIFO and the front of the departed part is always live. Only that
  /// front has an arrival event in the loop; deliver_in_flight() files
  /// the next live one's at the (arrival, arrival_seq) its departure
  /// reserved, where a per-segment event would have fired. So a link
  /// holds at most two events however many segments it has in flight
  /// (that arrival and the transmitter's), and keeping segments here
  /// rather than in closures keeps each callback in SmallFn's inline
  /// storage -- no allocation per packet.
  RingQueue<Slot> ring_;
  size_t departed_ = 0;
  size_t queued_bytes_ = 0;
  bool transmitting_ = false;
  bool up_ = true;
  Stats stats_;
  Histogram occupancy_;
  StatsHook stats_hook_{loop_.stats(), *this};  ///< last: dies first
};

}  // namespace mptcp
