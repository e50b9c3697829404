// Sharded simulation engine: the epoch barrier, the cross-shard channel
// (FIFO handoff, payload detach), the deterministic merge of per-shard
// stats partitions, and the engine-level determinism contracts:
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
#include "sim/topology.h"

namespace mptcp {
namespace {

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

// ---------------------------------------------------------------------------
// ShardChannel.
// ---------------------------------------------------------------------------

/// Records the seq of every delivered segment.
class SeqCollector : public PacketSink {
 public:
  void deliver(TcpSegment seg) override { seqs.push_back(seg.seq); }
  std::vector<uint32_t> seqs;
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

TEST(ShardChannel, DrainDeliversInOrderAtArrivalTime) {
  EventLoop loop;
  ShardChannel ch(/*src_shard=*/0, /*dst_shard=*/1, loop);
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

TEST(ShardChannel, ManySendsInOneEpochDrainInFifoOrder) {
  EventLoop loop;
  ShardChannel ch(0, 1, loop);
  SeqCollector sink;
  ch.set_target(&sink);

  // 5,000 sends before one drain, arriving in runs of 7 equal times: the
  // drain keeps the send order, within each run and across runs.
  constexpr uint32_t kSends = 5000;
  for (uint32_t i = 0; i < kSends; ++i) {
    TcpSegment seg;
    seg.seq = i;
    ch.send(kMillisecond + i / 7, std::move(seg));
  }
  EXPECT_EQ(ch.pushed(), kSends);
  EXPECT_EQ(ch.drain(), kSends);
  loop.run_until(2 * kMillisecond);
  ASSERT_EQ(sink.seqs.size(), kSends);
  for (uint32_t i = 0; i < kSends; ++i) EXPECT_EQ(sink.seqs[i], i);
  EXPECT_EQ(ch.delivered(), kSends);
}

TEST(ShardChannel, DrainAppendsBehindSegmentsStillPending) {
  // Arrivals lie a lookahead past the barrier that drains them, so the
  // next barrier's drain can find the previous one's segments still
  // pending. Each drain takes only what was sent since the last one, and
  // every segment arrives once, in send order, at its own time.
  EventLoop loop;
  ShardChannel ch(0, 1, loop);
  TimedCollector sink(loop);
  ch.set_target(&sink);
  const auto send = [&ch](uint32_t seq, SimTime arrival) {
    TcpSegment seg;
    seg.seq = seq;
    ch.send(arrival, std::move(seg));
  };

  send(0, 3 * kMillisecond);
  send(1, 3 * kMillisecond);
  send(2, 4 * kMillisecond);
  EXPECT_EQ(ch.drain(), 3u);
  loop.run_until(1 * kMillisecond);
  EXPECT_TRUE(sink.arrivals.empty());
  EXPECT_EQ(ch.drain(), 0u);  // nothing sent since
  send(3, 5 * kMillisecond);
  send(4, 6 * kMillisecond);
  EXPECT_EQ(ch.drain(), 2u);
  EXPECT_EQ(ch.pushed(), 5u);
  EXPECT_EQ(ch.delivered(), 5u);
  loop.run_until(10 * kMillisecond);

  const std::vector<std::pair<SimTime, uint32_t>> expected = {
      {3 * kMillisecond, 0}, {3 * kMillisecond, 1}, {4 * kMillisecond, 2},
      {5 * kMillisecond, 3}, {6 * kMillisecond, 4}};
  EXPECT_EQ(sink.arrivals, expected);
}

/// The bytes segment `seq` carries in the cross-thread test below.
Payload seq_bytes(uint32_t seq) {
  return Payload(64, static_cast<uint8_t>(seq));
}

/// A TimedCollector that also counts the segments whose payload is not
/// seq_bytes(seq).
class CheckedCollector : public TimedCollector {
 public:
  using TimedCollector::TimedCollector;
  void deliver(TcpSegment seg) override {
    if (seg.payload != seq_bytes(seg.seq)) ++wrong_bytes;
    TimedCollector::deliver(std::move(seg));
  }
  uint64_t wrong_bytes = 0;
};

TEST(ShardChannel, ProducerAppendsWhileDeliveriesFireOnAnotherThread) {
  // The engine's protocol without the engine: each epoch the producer
  // thread appends while the consumer thread's loop fires the deliveries
  // the previous barrier drained, and the two barriers around each drain
  // are the only ordering between them (TSan checks that it suffices).
  // Every segment arrives once, in send order, at its own time, with the
  // bytes it was sent with.
  constexpr SimTime kEpochs = 200;
  constexpr uint32_t kPerEpoch = 50;
  constexpr SimTime kEpoch = kMillisecond;
  constexpr SimTime kGap = kEpoch / kPerEpoch;
  const auto arrival = [](uint32_t seq) {
    return (seq / kPerEpoch + 1) * kEpoch + (seq % kPerEpoch) * kGap;
  };
  EventLoop loop;
  ShardChannel ch(0, 1, loop, /*lookahead=*/kEpoch);
  CheckedCollector sink(loop);
  ch.set_target(&sink);
  EpochBarrier barrier(2);

  std::thread producer([&] {
    uint32_t seq = 0;
    for (SimTime k = 0; k < kEpochs; ++k) {
      for (uint32_t i = 0; i < kPerEpoch; ++i, ++seq) {
        TcpSegment seg;
        seg.seq = seq;
        seg.payload = seq_bytes(seq);
        ch.send(arrival(seq), std::move(seg));  // departs inside epoch k
      }
      barrier.arrive_and_wait();  // epoch k is over
      barrier.arrive_and_wait();  // and drained
    }
  });
  for (SimTime k = 0; k < kEpochs; ++k) {
    loop.run_until((k + 1) * kEpoch);  // fires what the last drain took
    barrier.arrive_and_wait();
    ch.drain();
    barrier.arrive_and_wait();
  }
  producer.join();
  loop.run_until((kEpochs + 1) * kEpoch);

  const uint32_t total = static_cast<uint32_t>(kEpochs) * kPerEpoch;
  std::vector<std::pair<SimTime, uint32_t>> expected;
  for (uint32_t s = 0; s < total; ++s) expected.emplace_back(arrival(s), s);
  EXPECT_EQ(ch.pushed(), total);
  EXPECT_EQ(ch.delivered(), total);
  EXPECT_EQ(sink.arrivals, expected);
  EXPECT_EQ(sink.wrong_bytes, 0u);
}

/// Keeps every delivered segment.
class SegmentCollector : public PacketSink {
 public:
  void deliver(TcpSegment seg) override { segs.push_back(std::move(seg)); }
  std::vector<TcpSegment> segs;
};

TEST(ShardChannel, FrozenPayloadCrossesSharedPooledOneIsDetached) {
  EventLoop loop;
  ShardChannel ch(0, 1, loop);
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
  // The lockstep proof: with shards=2 every packet crosses a shard
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
  // engine and the fixed-lockstep baseline must produce byte-identical
  // (time, seq) delivery schedules -- only the number of barrier epochs
  // may differ, and the auto engine must run fewer of them.
  ShardedEngine::Config fixed;
  fixed.fixed_lockstep = true;
  const CollapseRun base = run_collapse(fixed);
  const CollapseRun autod = run_collapse(ShardedEngine::Config{});

  ASSERT_GT(base.arrivals.size(), 10u);
  EXPECT_EQ(base.arrivals, autod.arrivals);
  EXPECT_LT(autod.epochs, base.epochs);
}

// ---------------------------------------------------------------------------
// Handoff volume.
// ---------------------------------------------------------------------------

/// Sends `count` segments into one link at time 0, from a host on shard 0
/// to a host on the last of `shards` shards, and returns the (time, seq)
/// of every arrival.
std::vector<std::pair<SimTime, uint32_t>> run_burst(size_t shards,
                                                    uint32_t count) {
  Topology topo(/*seed=*/1, shards);
  const NodeId a = topo.add_host("a", 0);
  const NodeId b = topo.add_host("b", shards - 1);
  LinkConfig lc;
  lc.rate_bps = 40e9;
  lc.prop_delay = 1 * kMillisecond;
  lc.buffer_bytes = 16 << 20;
  const size_t l = topo.connect(a, b, lc, lc);
  TimedCollector sink(topo.loop(shards - 1));
  if (shards == 1) {
    topo.link_ab(l).set_target(&sink);
  } else {
    topo.channels()[0]->set_target(&sink);
  }
  Link& out = topo.link_ab(l);
  topo.loop(0).schedule_at(0, [&out, count] {
    for (uint32_t i = 0; i < count; ++i) {
      TcpSegment seg;
      seg.seq = i;
      out.deliver(std::move(seg));
    }
  });

  ShardedEngine engine(topo);
  engine.run_until(10 * kMillisecond);
  EXPECT_EQ(engine.handoff_packets(), shards == 1 ? 0u : count);
  return std::move(sink.arrivals);
}

TEST(ShardedEngine, BurstBeyondTheOldRingArrivesInOrder) {
  // 4,096 segments depart within the first 1 ms epoch, so one drain hands
  // all of them over: four times the 1,024 slots a channel's ring held
  // before the inbox replaced it. Every one must arrive exactly when and
  // in the order it does over the same link inside one loop.
  constexpr uint32_t kBurst = 4096;
  const auto one = run_burst(1, kBurst);
  const auto two = run_burst(2, kBurst);
  ASSERT_EQ(one.size(), kBurst);
  EXPECT_LT(one.back().first, 2 * kMillisecond);  // departed in epoch one
  EXPECT_EQ(one, two);
}

TEST(ShardedEngine, EqualArrivalsFromTwoChannelsKeepChannelOrder) {
  // Hosts on shards 2 and 0 each send four segments at time 0 into one
  // host on shard 1, over identical links, so the segments arrive in
  // pairs at equal times. Each barrier drains a shard's inbound channels
  // in the order they were created, so within every pair the channel
  // created first -- from shard 2 here -- delivers first.
  Topology topo(/*seed=*/1, /*shards=*/3);
  const NodeId a = topo.add_host("a", 0);
  const NodeId b = topo.add_host("b", 1);
  const NodeId c = topo.add_host("c", 2);
  LinkConfig lc;
  lc.rate_bps = 1e9;
  lc.prop_delay = 1 * kMillisecond;
  lc.buffer_bytes = 1 << 20;
  const size_t from_c = topo.connect(c, b, lc, lc);
  const size_t from_a = topo.connect(a, b, lc, lc);
  TimedCollector sink(topo.loop(1));
  for (const auto& ch : topo.channels()) {
    if (ch->dst_shard() == 1) ch->set_target(&sink);
  }
  const auto burst = [&topo](size_t shard, Link& out, uint32_t first) {
    topo.loop(shard).schedule_at(0, [&out, first] {
      for (uint32_t i = 0; i < 4; ++i) {
        TcpSegment seg;
        seg.seq = first + i;
        out.deliver(std::move(seg));
      }
    });
  };
  burst(0, topo.link_ab(from_a), 0);
  burst(2, topo.link_ab(from_c), 100);

  ShardedEngine engine(topo);
  engine.run_until(10 * kMillisecond);
  EXPECT_EQ(engine.sync_groups(), 1u);
  ASSERT_EQ(sink.arrivals.size(), 8u);
  for (uint32_t i = 0; i < 4; ++i) {
    const auto& first = sink.arrivals[2 * i];
    const auto& second = sink.arrivals[2 * i + 1];
    EXPECT_EQ(first.first, second.first);
    EXPECT_EQ(first.second, 100 + i);
    EXPECT_EQ(second.second, i);
  }
}

}  // namespace
}  // namespace mptcp
