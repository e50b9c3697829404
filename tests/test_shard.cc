// Sharded simulation engine: the SPSC handoff ring, the cross-shard
// channel (FIFO + spill backpressure), the deterministic merge of
// per-shard stats partitions, and the engine-level determinism contracts:
//
//   * a fixed shard count reproduces the same digest run over run;
//   * the ping-pong scenario's digest is identical across shard counts
//     (the epoch-barrier lockstep proof: a cross-shard link must behave
//     exactly like the same link inside one loop);
//   * a cell-local workload's merged simulated metrics are bit-identical
//     between a single-shard and a multi-shard execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "app/digest.h"
#include "app/harness.h"
#include "app/scenario.h"
#include "app/workload.h"
#include "net/stats.h"
#include "sim/barrier.h"
#include "sim/event_loop.h"
#include "sim/node.h"
#include "sim/shard.h"
#include "sim/spsc.h"
#include "sim/topology.h"

namespace mptcp {
namespace {

// ---------------------------------------------------------------------------
// SpscRing.
// ---------------------------------------------------------------------------

TEST(SpscRing, CapacityAndBackpressure) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 4; ++i) {
    int v = i;
    EXPECT_TRUE(ring.try_push(std::move(v))) << i;
  }
  EXPECT_EQ(ring.size(), 4u);
  int extra = 99;
  EXPECT_FALSE(ring.try_push(std::move(extra)));  // full: push refused
  EXPECT_EQ(extra, 99);                           // and operand untouched
  int out = -1;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(ring.try_push(std::move(extra)));  // slot freed by the pop
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  SpscRing<int> ring(5);  // bit_ceil(5) = 8
  for (int i = 0; i < 8; ++i) {
    int v = i;
    EXPECT_TRUE(ring.try_push(std::move(v))) << i;
  }
  int v = 8;
  EXPECT_FALSE(ring.try_push(std::move(v)));
}

TEST(SpscRing, FifoOrder) {
  SpscRing<int> ring(16);
  for (int i = 0; i < 10; ++i) {
    int v = i;
    ASSERT_TRUE(ring.try_push(std::move(v)));
  }
  for (int i = 0; i < 10; ++i) {
    int out = -1;
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, FifoAcrossCursorWraparound) {
  // The cursors are free-running unsigned counters masked on access;
  // the test-only origin constructor parks them just below the unsigned
  // maximum so a handful of pushes drives them through the wrap.
  SpscRing<int> ring(8, /*origin=*/SIZE_MAX - 3);
  for (int lap = 0; lap < 4; ++lap) {
    for (int i = 0; i < 6; ++i) {
      int v = lap * 10 + i;
      ASSERT_TRUE(ring.try_push(std::move(v)));
    }
    for (int i = 0; i < 6; ++i) {
      int out = -1;
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out, lap * 10 + i);
    }
  }
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, FullRingRefusalsKeepOperandUnderConcurrentPop) {
  // try_push's full check races a concurrent pop by design (the pop may
  // free a slot between the check and the return). What must hold on
  // EVERY refused push is that the operand still carries its value, so
  // the caller can spill it; a moved-from operand would drop the item.
  constexpr int kItems = 4000;
  SpscRing<int> ring(4);
  std::atomic<bool> done{false};
  std::vector<int> popped;
  std::thread consumer([&] {
    int out = -1;
    while (!done.load(std::memory_order_acquire) || !ring.empty()) {
      if (ring.try_pop(out)) popped.push_back(out);
    }
  });
  uint64_t refusals = 0;
  for (int i = 0; i < kItems; ++i) {
    int v = i;
    while (!ring.try_push(std::move(v))) {
      ++refusals;
      ASSERT_EQ(v, i);  // refused push must leave the operand intact
      std::this_thread::yield();  // single-core hosts: let the pop run
    }
  }
  done.store(true, std::memory_order_release);
  consumer.join();
  ASSERT_EQ(popped.size(), static_cast<size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(popped[i], i);
  // A 4-slot ring against a full-speed producer virtually always refuses
  // at least once; if not, the assertion above was simply vacuous.
}

TEST(SpscRing, RebuildGrowsAnEmptyRing) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 3; ++i) {
    int v = i;
    ASSERT_TRUE(ring.try_push(std::move(v)));
  }
  int out = -1;
  while (ring.try_pop(out)) {
  }
  ring.rebuild(64);
  EXPECT_EQ(ring.capacity(), 64u);
  for (int i = 0; i < 64; ++i) {
    int v = i;
    ASSERT_TRUE(ring.try_push(std::move(v))) << i;
  }
  int extra = 99;
  EXPECT_FALSE(ring.try_push(std::move(extra)));
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
}

// ---------------------------------------------------------------------------
// EpochBarrier.
// ---------------------------------------------------------------------------

TEST(EpochBarrier, RoundsStayInLockstepAcrossGenerations) {
  // Write phase / barrier / read phase / barrier, repeated far past the
  // spin threshold's worth of generations: every thread must observe
  // every peer's current-round write after the first barrier, and nobody
  // may lap the group (which would corrupt the read phase).
  constexpr size_t kThreads = 4;
  constexpr int kRounds = 2000;
  EpochBarrier barrier(kThreads);
  EXPECT_EQ(barrier.parties(), kThreads);
  std::vector<std::atomic<int>> round(kThreads);
  for (auto& r : round) r.store(-1, std::memory_order_relaxed);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (size_t tid = 0; tid < kThreads; ++tid) {
    workers.emplace_back([&, tid] {
      for (int r = 0; r < kRounds; ++r) {
        round[tid].store(r, std::memory_order_relaxed);
        barrier.arrive_and_wait();
        for (size_t peer = 0; peer < kThreads; ++peer) {
          if (round[peer].load(std::memory_order_relaxed) != r) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SpscRing, CrossThreadVisibilityAndOrder) {
  constexpr int kItems = 20000;
  SpscRing<int> ring(64);
  std::thread producer([&ring] {
    for (int i = 0; i < kItems; ++i) {
      int v = i;
      while (!ring.try_push(std::move(v))) {
        // spin: the consumer is draining concurrently
      }
    }
  });
  for (int expect = 0; expect < kItems; ++expect) {
    int out = -1;
    while (!ring.try_pop(out)) {
      // spin until the producer catches up
    }
    ASSERT_EQ(out, expect);
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// ---------------------------------------------------------------------------
// ShardChannel.
// ---------------------------------------------------------------------------

/// Records the seq of every delivered segment.
class SeqCollector : public PacketSink {
 public:
  void deliver(TcpSegment seg) override { seqs.push_back(seg.seq); }
  std::vector<uint32_t> seqs;
};

TEST(ShardChannel, DrainDeliversInOrderAtArrivalTime) {
  EventLoop loop;
  ShardChannel ch(/*src_shard=*/0, /*dst_shard=*/1, loop,
                  /*ring_capacity=*/16);
  SeqCollector sink;
  ch.set_target(&sink);

  for (uint32_t i = 0; i < 5; ++i) {
    TcpSegment seg;
    seg.seq = i;
    ch.send(/*arrival=*/kMillisecond + i, std::move(seg));
  }
  EXPECT_EQ(ch.pushed(), 5u);
  EXPECT_EQ(ch.drain(), 5u);
  EXPECT_TRUE(sink.seqs.empty());  // scheduled, not yet executed
  loop.run_until(2 * kMillisecond);
  ASSERT_EQ(sink.seqs.size(), 5u);
  for (uint32_t i = 0; i < 5; ++i) EXPECT_EQ(sink.seqs[i], i);
  EXPECT_EQ(ch.delivered(), 5u);
}

TEST(ShardChannel, OverflowSpillPreservesFifo) {
  EventLoop loop;
  ShardChannel ch(0, 1, loop, /*ring_capacity=*/4);
  SeqCollector sink;
  ch.set_target(&sink);

  // 10 sends into a 4-slot ring: 4 land in the ring, 6 spill to the
  // producer-side overflow. Drain must restore the original order.
  for (uint32_t i = 0; i < 10; ++i) {
    TcpSegment seg;
    seg.seq = i;
    ch.send(kMillisecond, std::move(seg));
  }
  EXPECT_EQ(ch.pushed(), 10u);
  EXPECT_EQ(ch.spilled(), 6u);
  EXPECT_EQ(ch.drain(), 10u);
  loop.run_until(2 * kMillisecond);
  ASSERT_EQ(sink.seqs.size(), 10u);
  for (uint32_t i = 0; i < 10; ++i) EXPECT_EQ(sink.seqs[i], i);
}

/// Keeps every delivered segment.
class SegmentCollector : public PacketSink {
 public:
  void deliver(TcpSegment seg) override { segs.push_back(std::move(seg)); }
  std::vector<TcpSegment> segs;
};

TEST(ShardChannel, FrozenPayloadCrossesSharedPooledOneIsDetached) {
  EventLoop loop;
  ShardChannel ch(0, 1, loop, /*ring_capacity=*/16);
  SegmentCollector sink;
  ch.set_target(&sink);

  Payload pooled_src;  // owned by the producer shard's thread while it runs
  std::thread producer([&] {
    pooled_src = Payload(1460, 0x5a);
    TcpSegment frozen;
    frozen.seq = 0;
    frozen.payload = pattern_payload(0, 1460);
    TcpSegment pooled;
    pooled.seq = 1;
    pooled.payload = pooled_src;
    ch.send(kMillisecond, std::move(frozen));
    ch.send(kMillisecond, std::move(pooled));
  });
  producer.join();
  EXPECT_EQ(pooled_src.buffer_refs(), 1u);  // the channel holds no share

  ASSERT_EQ(ch.drain(), 2u);
  loop.run_until(2 * kMillisecond);
  ASSERT_EQ(sink.segs.size(), 2u);
  const Payload& frozen = sink.segs[0].payload;
  EXPECT_TRUE(frozen.is_frozen());
  EXPECT_TRUE(frozen.shares_buffer_with(pattern_payload(0, 1)));
  const Payload& pooled = sink.segs[1].payload;
  EXPECT_FALSE(pooled.shares_buffer_with(pooled_src));
  EXPECT_EQ(pooled, pooled_src);
}

// ---------------------------------------------------------------------------
// Deterministic stats merge.
// ---------------------------------------------------------------------------

/// Publishes fixed values under the shared scope "link".
struct LinkValues {
  LinkValues(StatsRegistry& reg, std::map<std::string, double> v)
      : values(std::move(v)), hook(reg, *this) {}
  void publish_stats(StatsOut& out) const {
    if (!out.open_shared("link")) return;
    for (const auto& [name, v] : values) out.emit(name, v);
  }
  std::map<std::string, double> values;
  StatsHook hook;
};

/// A registry-owned value, emitted under its scope's own name.
struct OwnedValue final : OwnedGroup {
  explicit OwnedValue(StatsRegistry&) {}
  void sample(StatsOut& out) const override { out.emit({}, value); }
  double value = 0.0;
};

TEST(StatsMerge, ScalarsSumAndHistogramsFoldByBucket) {
  StatsRegistry a;
  StatsRegistry b;
  const LinkValues ga(a, {{"pkts", 10.0}});
  const LinkValues gb(b, {{"pkts", 32.0}, {"only_b", 7.0}});
  a.owned<OwnedValue>("depth").value = 3;
  b.owned<OwnedValue>("depth").value = 4;
  a.histogram("fct").record(8);
  a.histogram("fct").record(100);
  b.histogram("fct").record(2);
  b.histogram("fct").record(5000);

  const StatsRegistry* parts[] = {&a, &b};
  const std::map<std::string, double> m =
      StatsRegistry::merged_flatten(parts);
  EXPECT_EQ(m.at("link.pkts"), 42.0);
  EXPECT_EQ(m.at("depth"), 7.0);
  EXPECT_EQ(m.at("link.only_b"), 7.0);
  EXPECT_EQ(m.at("fct.count"), 4.0);
  EXPECT_EQ(m.at("fct.sum"), 5110.0);
  EXPECT_EQ(m.at("fct.min"), 2.0);
  EXPECT_EQ(m.at("fct.max"), 5000.0);
  EXPECT_EQ(m.at("fct.mean"), 5110.0 / 4.0);
}

TEST(StatsMerge, ResultIndependentOfPartitionFillOrder) {
  // Shard threads finish in arbitrary order; the merged export folds the
  // partitions in the caller's fixed shard order, so two merges of the
  // same contents must be byte-identical no matter which registry was
  // populated (or finished) first.
  auto fill_x = [](StatsRegistry& r) {
    r.owned<OwnedValue>("x.pkts").value = 5;
    r.histogram("x.fct").record(10);
  };
  auto fill_y = [](StatsRegistry& r) {
    r.owned<OwnedValue>("y.pkts").value = 9;
    r.histogram("x.fct").record(20);
  };
  StatsRegistry a1, b1;
  fill_x(a1);
  fill_y(b1);
  StatsRegistry b2, a2;
  fill_y(b2);  // populated before its sibling this time
  fill_x(a2);

  const StatsRegistry* first[] = {&a1, &b1};
  const StatsRegistry* second[] = {&a2, &b2};
  EXPECT_EQ(StatsRegistry::merged_to_json(first),
            StatsRegistry::merged_to_json(second));
}

TEST(StatsMerge, HistogramMergeFromHandlesEmptySides) {
  Histogram empty;
  Histogram h;
  h.record(7);
  h.merge_from(empty);  // no-op
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 7u);
  Histogram dst;
  dst.merge_from(h);  // empty destination adopts source min/max
  EXPECT_EQ(dst.count(), 1u);
  EXPECT_EQ(dst.min(), 7u);
  EXPECT_EQ(dst.max(), 7u);
}

// ---------------------------------------------------------------------------
// Engine-level determinism contracts.
// ---------------------------------------------------------------------------

DigestResult pingpong(size_t shards) {
  DigestConfig cfg;
  cfg.scenario = DigestScenario::kPingPong;
  cfg.shards = shards;
  cfg.duration = 2 * kSecond;
  cfg.seed = 7;
  return run_digest_scenario(cfg);
}

TEST(ShardedEngine, PingPongDigestIdenticalAcrossShardCounts) {
  // The lockstep proof: with shards=2 every packet crosses an SPSC
  // channel and an epoch barrier; the digest (packet headers + payload
  // bytes, in delivery order, per direction) must still equal the
  // single-loop reference exactly. shards=4 adds two node-less shards
  // whose loops run solo and barrier-free -- also digest-invisible.
  const DigestResult one = pingpong(1);
  const DigestResult two = pingpong(2);
  const DigestResult four = pingpong(4);
  EXPECT_GT(one.bytes_delivered, 0u);
  EXPECT_EQ(one.digest, two.digest);
  EXPECT_EQ(one.packets_hashed, two.packets_hashed);
  EXPECT_EQ(one.bytes_delivered, two.bytes_delivered);
  EXPECT_EQ(one.digest, four.digest);
  EXPECT_EQ(one.packets_hashed, four.packets_hashed);
}

TEST(ShardedEngine, ShardedCapacityDigestStableForFixedShardCount) {
  DigestConfig cfg;
  cfg.scenario = DigestScenario::kCapacity;
  cfg.shards = 2;
  cfg.duration = 1 * kSecond;
  cfg.seed = 3;
  const DigestResult first = run_digest_scenario(cfg);
  const DigestResult second = run_digest_scenario(cfg);
  EXPECT_GT(first.bytes_delivered, 0u);
  EXPECT_EQ(first.digest, second.digest);
  EXPECT_EQ(first.stats_json, second.stats_json);
}

std::map<std::string, double> run_cells(size_t shards) {
  ShardedCapacitySpec spec;
  spec.cells = 2;
  spec.cell.clients = 2;
  spec.cell.servers = 1;
  spec.cell.bottleneck_rate_bps = 100e6;
  ShardedCapacity net = build_sharded_capacity(spec, /*seed=*/5, shards);

  FlowClass local;
  local.name = "bulk";
  local.persistent_per_client = 3;
  local.arrival_rate_hz = 5.0;
  local.size_dist = FlowClass::SizeDist::kExponential;
  local.mean_size = 20 * 1000;
  local.transport.mptcp.tcp.seed = 5;
  FlowClass off;
  off.arrival_rate_hz = 0;
  off.persistent_per_client = 0;

  ShardedCapacityWorkload workload(net, local, off, /*seed=*/5);
  workload.start();
  ShardedEngine engine(*net.topo);
  engine.run_until(800 * kMillisecond);
  EXPECT_GT(workload.bytes_received(), 0u);

  return StatsRegistry::merged_flatten(net.topo->shard_stats());
}

TEST(ShardedEngine, CellLocalWorkloadMetricsMatchSingleShard) {
  // Cells are pinned round-robin to shards and all traffic stays inside
  // its cell, so the simulated system is the same regardless of how the
  // cells are split across threads: every link/router counter, workload
  // metric and FCT histogram must agree bit for bit, and the live
  // per-connection scopes must agree as value multisets.
  const CanonicalStats one = canonicalize(run_cells(1));
  const CanonicalStats two = canonicalize(run_cells(2));
  EXPECT_FALSE(one.exact.empty());
  EXPECT_FALSE(one.per_conn.empty());
  EXPECT_EQ(one.exact, two.exact);
  EXPECT_EQ(one.per_conn, two.per_conn);
}

TEST(ShardedEngine, CrossShardTrafficMovesThroughChannels) {
  ShardedCapacitySpec spec;
  spec.cells = 2;
  spec.cell.clients = 2;
  spec.cell.servers = 1;
  spec.cell.bottleneck_rate_bps = 100e6;
  ShardedCapacity net = build_sharded_capacity(spec, /*seed=*/9,
                                               /*shards=*/2);
  ASSERT_FALSE(net.ring_links.empty());
  ASSERT_FALSE(net.topo->channels().empty());

  FlowClass local;
  local.persistent_per_client = 0;
  local.arrival_rate_hz = 0;
  FlowClass cross;
  cross.name = "cross";
  cross.persistent_per_client = 2;
  cross.arrival_rate_hz = 5.0;
  cross.size_dist = FlowClass::SizeDist::kExponential;
  cross.mean_size = 10 * 1000;
  cross.transport.mptcp.tcp.seed = 9;

  ShardedCapacityWorkload workload(net, local, cross, /*seed=*/9);
  workload.start();
  ShardedEngine engine(*net.topo);
  engine.run_until(800 * kMillisecond);

  EXPECT_GT(engine.handoff_packets(), 0u);
  EXPECT_GT(workload.bytes_received(), 0u);
  EXPECT_GT(engine.epochs(), 1u);
}

// ---------------------------------------------------------------------------
// Epoch optimizations: drain skip and grid fast-forward.
// ---------------------------------------------------------------------------

/// Self-rescheduling no-op: keeps a loop's next-event horizon one
/// interval away, pinning the epoch cadence so the optimizations under
/// test (not fast-forward) decide what happens at each barrier.
struct Ticker {
  EventLoop* loop = nullptr;
  SimTime interval = 0;
  SimTime until = 0;
  uint64_t ticks = 0;

  void fire() {
    ++ticks;
    if (loop->now() + interval < until) {
      loop->schedule_in(interval, [this] { fire(); });
    }
  }
};

/// Periodic cross-shard sender: one segment into `out` every `interval`.
struct CrossPinger {
  EventLoop* loop = nullptr;
  Link* out = nullptr;
  SimTime interval = 0;
  SimTime until = 0;
  uint32_t sent = 0;

  void fire() {
    TcpSegment seg;
    seg.seq = sent++;
    out->deliver(seg);
    if (loop->now() + interval < until) {
      loop->schedule_in(interval, [this] { fire(); });
    }
  }
};

/// Records (arrival virtual time, seq) of every delivered segment.
class TimedCollector : public PacketSink {
 public:
  explicit TimedCollector(EventLoop& loop) : loop_(loop) {}
  void deliver(TcpSegment seg) override {
    arrivals.emplace_back(loop_.now(), seg.seq);
  }
  std::vector<std::pair<SimTime, uint32_t>> arrivals;

 private:
  EventLoop& loop_;
};

TEST(ShardedEngine, IdleEpochsSkipDrainsWithoutLosingSegments) {
  // Both shards stay busy with local ticks every quantum, so epochs keep
  // running at the fixed cadence; cross traffic flows one direction only,
  // once every 20 quanta. The 19 quiet epochs in between must take the
  // skip path (group-wide push watermark unchanged), and every sent
  // segment must still arrive exactly once, in order.
  Topology topo(/*seed=*/1, /*shards=*/2);
  const NodeId a = topo.add_host("a", 0);
  const NodeId b = topo.add_host("b", 1);
  LinkConfig cfg;
  cfg.rate_bps = 1e9;
  cfg.prop_delay = 1 * kMillisecond;
  cfg.buffer_bytes = 1 << 20;
  const size_t l = topo.connect(a, b, cfg, cfg);
  ASSERT_EQ(topo.channels().size(), 2u);
  TimedCollector sink(topo.loop(1));
  topo.channels()[0]->set_target(&sink);  // a->b direction

  const SimTime duration = 300 * kMillisecond;
  Ticker t0{&topo.loop(0), 1 * kMillisecond, duration};
  Ticker t1{&topo.loop(1), 1 * kMillisecond, duration};
  CrossPinger ping{&topo.loop(0), &topo.link_ab(l), 20 * kMillisecond,
                   duration};
  topo.loop(0).schedule_in(0, [&t0] { t0.fire(); });
  topo.loop(1).schedule_in(0, [&t1] { t1.fire(); });
  topo.loop(0).schedule_in(0, [&ping] { ping.fire(); });

  ShardedEngine engine(topo);
  engine.run_until(duration + 10 * kMillisecond);

  EXPECT_EQ(engine.sync_groups(), 1u);
  EXPECT_GT(engine.drain_skips(), engine.epochs() / 2);
  ASSERT_EQ(sink.arrivals.size(), static_cast<size_t>(ping.sent));
  for (uint32_t i = 0; i < ping.sent; ++i) {
    EXPECT_EQ(sink.arrivals[i].second, i);
  }
  EXPECT_EQ(engine.handoff_packets(), ping.sent);
  EXPECT_EQ(engine.handoff_spills(), 0u);
}

/// One bursty cross-shard run: traffic active the first fifth of each
/// 100 ms window. Returns the exact delivery schedule plus epoch count.
struct CollapseRun {
  std::vector<std::pair<SimTime, uint32_t>> arrivals;
  uint64_t epochs = 0;
};

CollapseRun run_collapse(ShardedEngine::Config cfg) {
  Topology topo(/*seed=*/1, /*shards=*/2);
  const NodeId a = topo.add_host("a", 0);
  const NodeId b = topo.add_host("b", 1);
  LinkConfig lc;
  lc.rate_bps = 1e9;
  lc.prop_delay = 2 * kMillisecond;
  lc.buffer_bytes = 1 << 20;
  const size_t l = topo.connect(a, b, lc, lc);
  TimedCollector sink(topo.loop(1));
  topo.channels()[0]->set_target(&sink);

  const SimTime duration = 400 * kMillisecond;
  // Bursts: every 3 ms during [k*100ms, k*100ms + 20ms), then silence.
  // Each window's kick re-aims the pinger's horizon at the burst end, so
  // it self-schedules through the burst and falls silent until the next
  // kick -- long idle stretches the fast-forward path must collapse
  // without moving a single arrival.
  CrossPinger ping{&topo.loop(0), &topo.link_ab(l), 3 * kMillisecond,
                   duration};
  for (SimTime w = 0; w < duration; w += 100 * kMillisecond) {
    topo.loop(0).schedule_at(w, [&ping, w] {
      ping.until = w + 20 * kMillisecond;
      ping.fire();
    });
  }

  ShardedEngine engine(topo, cfg);
  engine.run_until(duration);
  CollapseRun out;
  out.arrivals = std::move(sink.arrivals);
  out.epochs = engine.epochs();
  return out;
}

TEST(ShardedEngine, EpochCollapseKeepsDeliveryScheduleExact) {
  // The determinism core of the idle fast-forward proof: the auto-tuned
  // engine, a 4x-finer forced quantum, and the fixed-lockstep baseline
  // must produce byte-identical (time, seq) delivery schedules -- only
  // the number of barrier epochs may differ, and the auto engine must
  // not run more of them than fixed lockstep.
  ShardedEngine::Config fixed;
  fixed.fixed_lockstep = true;
  const CollapseRun base = run_collapse(fixed);
  const CollapseRun autod = run_collapse(ShardedEngine::Config{});
  ShardedEngine::Config fine;
  fine.quantum = kMillisecond / 2;
  const CollapseRun quartered = run_collapse(fine);

  ASSERT_GT(base.arrivals.size(), 10u);
  EXPECT_EQ(base.arrivals, autod.arrivals);
  EXPECT_EQ(base.arrivals, quartered.arrivals);
  EXPECT_LT(autod.epochs, base.epochs);
}

}  // namespace
}  // namespace mptcp
