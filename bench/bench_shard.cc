// Sharded-engine benchmark: the synchronization machinery itself, with
// the TCP stacks stripped away so the numbers isolate what the parallel
// engine adds on top of the per-shard event loops.
//
//   1. Barrier cadence  -- two busy shards over one cross link, a packet
//      in each direction every quantum, so every epoch runs the full
//      publish/barrier/drain cycle. Tracks the wall-clock p50 of
//      arrive_and_wait() (barrier_wait_ns_p50).
//   2. Handoff batch throughput -- a one-direction burst firehose across
//      a channel, its bursts ramping from 4 to 2,048 segments per
//      quantum. Tracks handoff_segments_per_sec.
//   3. Epoch auto-tuning -- an unbalanced 4-shard topology: a chatty
//      1 ms pair and a sleepy 50 ms pair, traffic in bursts with long
//      idle gaps. The same workload runs under the per-group engine
//      (per-pair lookahead + idle fast-forward + drain skip) and under
//      Config::fixed_lockstep (the round-1 global-barrier schedule);
//      epochs_per_run is the auto engine's count and must stay strictly
//      below fixed_lockstep_epochs.
//
// Epoch counts are virtual-schedule quantities -- identical on every
// machine -- so this binary never clamps --shards;
// only the *_ns_* and *_per_sec keys move with the host. Writes
// BENCH_shard.json (or argv[1]); `--smoke` runs reduced-scale phases 1+2
// only, the ctest/ThreadSanitizer workload.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/event_loop.h"
#include "sim/link.h"
#include "sim/shard.h"
#include "sim/topology.h"

namespace mptcp {
namespace bench {
namespace {

TcpSegment make_handoff_segment(uint32_t seq, size_t payload_bytes) {
  TcpSegment seg;
  seg.tuple.src = {IpAddr{0x0a000001}, 40000};
  seg.tuple.dst = {IpAddr{0x0a000002}, 80};
  seg.seq = seq;
  seg.ack = 1;
  seg.ack_flag = true;
  if (payload_bytes > 0) seg.payload.assign(payload_bytes, 0xAB);
  return seg;
}

/// Injects one segment into `out` every `interval`, rescheduling itself
/// until `until`. Lives on the source shard's loop; the segment crosses
/// the shard boundary through the link's channel.
struct Pinger {
  EventLoop* loop = nullptr;
  Link* out = nullptr;
  SimTime interval = 0;
  SimTime until = 0;
  uint32_t sent = 0;

  void fire() {
    out->deliver(make_handoff_segment(sent++, 64));
    if (loop->now() + interval < until) {
      loop->schedule_in(interval, [this] { fire(); });
    }
  }
};

// --- 1. barrier cadence ----------------------------------------------------

struct BarrierPhase {
  uint64_t epochs = 0;
  uint64_t wait_p50_ns = 0;
  uint64_t packets = 0;
};

BarrierPhase run_barrier_phase(SimTime duration) {
  Topology topo(/*seed=*/1, /*shards=*/2);
  const NodeId a = topo.add_host("a", 0);
  const NodeId b = topo.add_host("b", 1);
  LinkConfig cfg;
  cfg.rate_bps = 10e9;
  cfg.prop_delay = 200 * kMicrosecond;
  cfg.buffer_bytes = 1 << 20;
  const size_t l = topo.connect(a, b, cfg, cfg);

  // One packet per direction per quantum: every epoch's drain has work,
  // so neither the skip path nor fast-forward ever fires and the run
  // counts pure per-epoch synchronization cost.
  Pinger up{&topo.loop(0), &topo.link_ab(l), cfg.prop_delay, duration};
  Pinger down{&topo.loop(1), &topo.link_ba(l), cfg.prop_delay, duration};
  topo.loop(0).schedule_in(0, [&up] { up.fire(); });
  topo.loop(1).schedule_in(0, [&down] { down.fire(); });

  ShardedEngine engine(topo);
  engine.run_until(duration);

  BarrierPhase out;
  out.epochs = engine.epochs();
  out.wait_p50_ns = engine.barrier_wait_ns_p50();
  out.packets = engine.handoff_packets();
  return out;
}

// --- 2. handoff batch throughput ------------------------------------------

/// Burst source: every epoch quantum it burst-delivers `burst` segments
/// and grows the burst 25%, up to `burst_max`.
struct Burster {
  EventLoop* loop = nullptr;
  Link* out = nullptr;
  SimTime interval = 0;
  uint64_t target = 0;
  uint64_t sent = 0;
  size_t burst = 4;
  size_t burst_max = 2048;
  std::vector<TcpSegment> batch{};

  void fire() {
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(burst, target - sent));
    batch.clear();
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(
          make_handoff_segment(static_cast<uint32_t>(sent + i), 64));
    }
    out->deliver_burst(batch.data(), n);
    sent += n;
    burst = std::min(burst + burst / 4 + 1, burst_max);
    if (sent < target) {
      loop->schedule_in(interval, [this] { fire(); });
    }
  }
};

struct HandoffPhase {
  uint64_t packets = 0;
  double wall_seconds = 0;
};

HandoffPhase run_handoff_phase(uint64_t target_segments) {
  Topology topo(/*seed=*/1, /*shards=*/2);
  const NodeId a = topo.add_host("a", 0);
  const NodeId b = topo.add_host("b", 1);
  LinkConfig cfg;
  cfg.rate_bps = 40e9;
  cfg.prop_delay = 1 * kMillisecond;
  cfg.buffer_bytes = 8 << 20;
  const size_t l = topo.connect(a, b, cfg, cfg);

  Burster src{&topo.loop(0), &topo.link_ab(l), cfg.prop_delay,
              target_segments};
  topo.loop(0).schedule_in(0, [&src] { src.fire(); });

  ShardedEngine engine(topo);
  WallTimer w;
  // Worst case one max burst per quantum; 2x slack covers the ramp.
  const SimTime horizon =
      static_cast<SimTime>(2 * target_segments / src.burst_max + 64) *
      cfg.prop_delay;
  engine.run_until(horizon);

  HandoffPhase out;
  out.wall_seconds = w.seconds();
  out.packets = engine.handoff_packets();
  return out;
}

// --- 3. epoch auto-tuning --------------------------------------------------

/// Bursty pinger: sends every `interval` during the first `active` of
/// each `window`, then sleeps to the next window -- the idle stretches
/// the fast-forward path collapses.
struct BurstyPinger {
  EventLoop* loop = nullptr;
  Link* out = nullptr;
  SimTime interval = 0;
  SimTime window = 0;
  SimTime active = 0;
  SimTime until = 0;
  uint32_t sent = 0;

  void fire() {
    out->deliver(make_handoff_segment(sent++, 64));
    const SimTime phase = loop->now() % window;
    const SimTime next =
        phase + interval < active ? interval : window - phase;
    if (loop->now() + next < until) {
      loop->schedule_in(next, [this] { fire(); });
    }
  }
};

struct TunePhase {
  uint64_t auto_epochs = 0;
  uint64_t fixed_epochs = 0;
  uint64_t drain_skips = 0;
  size_t sync_groups = 0;
};

uint64_t run_unbalanced(SimTime duration, bool fixed_lockstep,
                        TunePhase* detail) {
  // Two disjoint pairs: a chatty 1 ms pair (shards 0-1) and a sleepy
  // 50 ms pair (shards 2-3). Under per-group sync each pair gets its own
  // barrier and quantum; under fixed_lockstep all four shards share the
  // global 1 ms minimum.
  Topology topo(/*seed=*/1, /*shards=*/4);
  const NodeId f0 = topo.add_host("f0", 0);
  const NodeId f1 = topo.add_host("f1", 1);
  const NodeId s0 = topo.add_host("s0", 2);
  const NodeId s1 = topo.add_host("s1", 3);
  LinkConfig fast;
  fast.rate_bps = 10e9;
  fast.prop_delay = 1 * kMillisecond;
  fast.buffer_bytes = 1 << 20;
  LinkConfig slow = fast;
  slow.prop_delay = 50 * kMillisecond;
  const size_t lf = topo.connect(f0, f1, fast, fast);
  const size_t ls = topo.connect(s0, s1, slow, slow);

  // The fast pair talks hard for 50 ms out of every 500 ms; the slow
  // pair ambles along at one packet per 100 ms.
  BurstyPinger chatty{&topo.loop(0), &topo.link_ab(lf), 1 * kMillisecond,
                      500 * kMillisecond, 50 * kMillisecond, duration};
  Pinger sleepy{&topo.loop(2), &topo.link_ab(ls), 100 * kMillisecond,
                duration};
  topo.loop(0).schedule_in(0, [&chatty] { chatty.fire(); });
  topo.loop(2).schedule_in(0, [&sleepy] { sleepy.fire(); });

  ShardedEngine::Config cfg;
  cfg.fixed_lockstep = fixed_lockstep;
  ShardedEngine engine(topo, cfg);
  engine.run_until(duration);
  if (detail != nullptr) {
    detail->drain_skips = engine.drain_skips();
    detail->sync_groups = engine.sync_groups();
  }
  return engine.epochs();
}

TunePhase run_tune_phase(SimTime duration) {
  TunePhase out;
  out.auto_epochs = run_unbalanced(duration, /*fixed_lockstep=*/false, &out);
  out.fixed_epochs =
      run_unbalanced(duration, /*fixed_lockstep=*/true, nullptr);
  return out;
}

}  // namespace
}  // namespace bench
}  // namespace mptcp

int main(int argc, char** argv) {
  using namespace mptcp;
  using namespace mptcp::bench;

  bool smoke = false;
  std::string out_path = "BENCH_shard.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  WallTimer total;
  bool ok = true;
  std::vector<std::pair<std::string, double>> fields;

  const BarrierPhase bar =
      run_barrier_phase(smoke ? 100 * kMillisecond : 2 * kSecond);
  std::printf("barrier epochs            %14llu\n",
              static_cast<unsigned long long>(bar.epochs));
  std::printf("barrier_wait_ns_p50       %14llu\n",
              static_cast<unsigned long long>(bar.wait_p50_ns));
  if (bar.packets == 0 || bar.epochs == 0) {
    std::fprintf(stderr, "FAIL: barrier phase moved no traffic\n");
    ok = false;
  }

  const HandoffPhase hand =
      run_handoff_phase(smoke ? 50'000 : 1'500'000);
  const double hand_rate =
      hand.wall_seconds > 0
          ? static_cast<double>(hand.packets) / hand.wall_seconds
          : 0;
  std::printf("handoff_segments_per_sec  %14.0f\n", hand_rate);

  if (!smoke) {
    const TunePhase tune = run_tune_phase(4 * kSecond);
    std::printf("epochs_per_run            %14llu\n",
                static_cast<unsigned long long>(tune.auto_epochs));
    std::printf("fixed_lockstep_epochs     %14llu\n",
                static_cast<unsigned long long>(tune.fixed_epochs));
    std::printf("drain_skips_per_run       %14llu\n",
                static_cast<unsigned long long>(tune.drain_skips));
    if (tune.sync_groups != 2) {
      std::fprintf(stderr, "FAIL: expected 2 sync groups, got %zu\n",
                   tune.sync_groups);
      ok = false;
    }
    if (tune.auto_epochs >= tune.fixed_epochs) {
      std::fprintf(stderr,
                   "FAIL: auto-tuned engine ran %llu epochs, not fewer "
                   "than fixed lockstep's %llu\n",
                   static_cast<unsigned long long>(tune.auto_epochs),
                   static_cast<unsigned long long>(tune.fixed_epochs));
      ok = false;
    }
    fields.emplace_back("epochs_per_run",
                        static_cast<double>(tune.auto_epochs));
    fields.emplace_back("fixed_lockstep_epochs",
                        static_cast<double>(tune.fixed_epochs));
    fields.emplace_back("drain_skips_per_run",
                        static_cast<double>(tune.drain_skips));
  }

  fields.emplace_back("barrier_wait_ns_p50",
                      static_cast<double>(bar.wait_p50_ns));
  fields.emplace_back("handoff_segments_per_sec", hand_rate);
  fields.emplace_back("wall_seconds_total", total.seconds());

  if (!write_json(out_path, fields)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return ok ? 0 : 1;
}
