// Scale-out capacity benchmark: how many concurrent MPTCP connections the
// stack sustains over a shared-bottleneck multi-host topology, and what
// flow completion times the churn traffic sees while it does.
//
// Scenario (app/workload.h): N dual-homed client hosts fan into two
// aggregation routers whose uplinks to a core router are the shared
// bottlenecks; M servers hang off the core. Two traffic classes:
//
//   * "bulk": persistent connections (P per client host) that stay open
//     for the whole run, each fetching an effectively infinite response --
//     these are the sustained-concurrency load;
//   * "churn": Poisson arrivals per client host with exponentially
//     distributed sizes -- these measure completion times under that load.
//
// Two further phases exercise the layered serving stack (app/framing.h +
// app/server_app.h + app/client_pool.h): an open-loop request workload
// with Pareto sizes over connection pools, reporting p50/p99/p999
// request FCT from the fine-grained histogram, and a flash-crowd run (x10
// rate step) reporting the rejection rate and backlog recovery time.
//
// The full-scale run (50 clients x 100 persistent = 5000+ concurrent
// MPTCP connections, each with a subflow per bottleneck) self-checks the
// concurrency floor and writes BENCH_capacity.json. A --smoke run
// executes only the reduced scales whose smoke_* keys the CI gate
// compares against the tracked baseline (bench/check_bench.py; tail
// p99/p999 and rejection keys are gated lower-is-better, other *_us keys
// are informational). smoke_bytes_per_conn is the memory key, gated
// lower-is-better: the peak RSS the smoke capacity phase adds (VmHWM
// after it minus VmRSS before it) over its peak concurrent connections.
// VmHWM is a process-wide high-water mark, so the smoke scale always
// runs first. smoke_allocs_per_pkt_hop, also gated lower-is-better, is
// the heap allocations the smoke capacity run makes (bench_util's
// counting operator new, set-up excluded) per packet-hop. The simulated
// results are deterministic: CI also digests the same topology twice via
// `sim_digest --scenario capacity`.
//
// --shards N adds the sharded engine runs (see run_sharded_scale below):
// the same cell-ring topology executed single-shard and with N worker
// shards, self-checking that the merged simulated metrics are identical
// and that the sharded run sustains >= 50,000 concurrent connections,
// plus a smaller cross-cell phase that pushes traffic through the
// cross-shard handoff channels. `--smoke --shards N` runs only the reduced-scale
// sharded phase (the ThreadSanitizer CI job's workload).
//
// Usage: bench_capacity [--smoke] [--shards N] [OUTPUT.json]
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "app/digest.h"
#include "app/harness.h"
#include "app/workload.h"
#include "bench_util.h"
#include "sim/shard.h"

using namespace mptcp;
using namespace mptcp::bench;

namespace {

struct ScaleSpec {
  const char* name;
  size_t clients;
  size_t servers;
  size_t persistent_per_client;
  double churn_hz;            ///< churn arrivals per client host
  double bottleneck_bps;      ///< per bottleneck link (there are two)
  SimTime duration;
};

constexpr ScaleSpec kFull = {"full", 50, 4, 100, 10.0, 2e9, 3 * kSecond};
constexpr ScaleSpec kSmoke = {"smoke", 8, 2, 40, 10.0, 500e6,
                              2500 * kMillisecond};

struct ScaleResult {
  double peak_concurrent = 0;
  double churn_completed = 0;
  double goodput_mbps = 0;
  double fct_p50_us = 0;
  double fct_p99_us = 0;
  double errors = 0;
  /// Heap allocations per packet-hop while the simulation runs (set-up
  /// excluded); 0 when allocations are not counted (sanitizer builds).
  double allocs_per_pkt_hop = 0;
};

TransportConfig capacity_transport(size_t meta_buf, size_t tcp_buf,
                                   uint64_t seed) {
  TransportConfig tc;
  tc.mptcp.meta_snd_buf_max = tc.mptcp.meta_rcv_buf_max = meta_buf;
  tc.mptcp.tcp.snd_buf_max = tc.mptcp.tcp.rcv_buf_max = tcp_buf;
  // Controlled-environment setting (paper Fig. 3): no DSS checksums.
  tc.mptcp.dss_checksum = false;
  tc.mptcp.tcp.seed = seed;
  return tc;
}

ScaleResult run_scale(const ScaleSpec& spec, uint64_t seed) {
  CapacitySpec top;
  top.clients = spec.clients;
  top.servers = spec.servers;
  top.bottleneck_rate_bps = spec.bottleneck_bps;
  CapacityTopology cap = build_capacity_topology(top, seed);
  Topology& topo = *cap.topo;

  WorkloadConfig wc;
  wc.clients = cap.clients;
  wc.servers = cap.servers;
  wc.seed = seed;

  // Class 0: the persistent concurrency load. Small buffers: with
  // thousands of connections sharing one bottleneck, each gets a sliver
  // of bandwidth and big buffers would only burn memory.
  FlowClass bulk;
  bulk.name = "bulk";
  bulk.arrival_rate_hz = 0;
  bulk.persistent_per_client = spec.persistent_per_client;
  bulk.transport = capacity_transport(16 * 1024, 8 * 1024, seed);
  wc.classes.push_back(bulk);

  // Class 1: the churn whose completion times we measure.
  FlowClass churn;
  churn.name = "churn";
  churn.arrival_rate_hz = spec.churn_hz;
  churn.size_dist = FlowClass::SizeDist::kExponential;
  churn.mean_size = 20 * 1000;
  churn.min_size = 1000;
  churn.max_size = 1000 * 1000;
  churn.transport = capacity_transport(64 * 1024, 32 * 1024, seed ^ 0x5bd1);
  wc.classes.push_back(churn);

  WorkloadEngine engine(topo, wc);
  engine.start();
  const uint64_t allocs_before = allocation_count();
  topo.loop().run_until(spec.duration);
  const uint64_t allocs = allocation_count() - allocs_before;

  ScaleResult out;
  out.allocs_per_pkt_hop = static_cast<double>(allocs) /
                           static_cast<double>(
                               std::max<uint64_t>(1, count_pkt_hops(topo)));
  out.peak_concurrent = static_cast<double>(engine.peak_concurrent());
  out.churn_completed = static_cast<double>(engine.completed(1));
  const double total_bytes = static_cast<double>(engine.bytes_received(0) +
                                                 engine.bytes_received(1));
  out.goodput_mbps =
      total_bytes * 8.0 / to_seconds(spec.duration) / 1e6;
  out.fct_p50_us = topo.stats().value("workload.churn.fct_p50_us");
  out.fct_p99_us = topo.stats().value("workload.churn.fct_p99_us");
  out.errors = static_cast<double>(engine.errors(0) + engine.errors(1));

  std::printf("# %s: %zu clients x %zu persistent + %.0f/s churn, "
              "2 x %.0f Mbps bottlenecks, %.1f s\n",
              spec.name, spec.clients, spec.persistent_per_client,
              spec.churn_hz * static_cast<double>(spec.clients),
              spec.bottleneck_bps / 1e6, to_seconds(spec.duration));
  std::printf("%-24s %12.0f\n", "peak_concurrent", out.peak_concurrent);
  std::printf("%-24s %12.0f\n", "churn_completed", out.churn_completed);
  std::printf("%-24s %12.1f\n", "goodput_mbps", out.goodput_mbps);
  std::printf("%-24s %12.0f\n", "fct_p50_us", out.fct_p50_us);
  std::printf("%-24s %12.0f\n", "fct_p99_us", out.fct_p99_us);
  std::printf("%-24s %12.0f\n", "errors", out.errors);
  std::printf("%-24s %12.3f\n\n", "allocs_per_pkt_hop",
              out.allocs_per_pkt_hop);
  return out;
}

void append_fields(std::vector<std::pair<std::string, double>>& fields,
                   const std::string& prefix, const ScaleResult& r) {
  fields.emplace_back(prefix + "peak_concurrent", r.peak_concurrent);
  fields.emplace_back(prefix + "churn_completed", r.churn_completed);
  fields.emplace_back(prefix + "goodput_mbps", r.goodput_mbps);
  fields.emplace_back(prefix + "fct_p50_us", r.fct_p50_us);
  fields.emplace_back(prefix + "fct_p99_us", r.fct_p99_us);
}

// ---------------------------------------------------------------------------
// Serving-stack phases (app/server_app.h + app/client_pool.h): open-loop
// framed requests with heavy-tailed Pareto sizes multiplexed over
// persistent connection pools, against overload-aware servers. These are
// the tail-latency SLO numbers the CI gate tracks: *_fct_p99_us /
// *_fct_p999_us and the rejection keys are gated lower-is-better
// (bench/check_bench.py), backed by the fine-grained FCT histogram in
// net/stats.h so p999 is stable run to run.

struct ServingSpec {
  const char* name;
  size_t clients;
  size_t servers;
  double request_hz;          ///< open-loop request arrivals per client
  size_t max_inflight;        ///< server admission cap (0 = unbounded)
  double bottleneck_bps;      ///< per bottleneck link (there are two)
  SimTime duration;
};

constexpr ServingSpec kServingFull = {"serving", 16, 2, 150.0, 96, 1e9,
                                      3 * kSecond};
constexpr ServingSpec kServingSmoke = {"smoke serving", 4, 1, 80.0, 24,
                                       300e6, 1500 * kMillisecond};

struct ServingResult {
  double completed = 0;
  double rejected = 0;
  double fct_p50_us = 0;
  double fct_p99_us = 0;
  double fct_p999_us = 0;
  double goodput_mbps = 0;
};

FlowClass serving_class(double request_hz, size_t max_inflight,
                        uint64_t seed) {
  FlowClass c;
  c.name = "serving";
  c.app_mode = FlowClass::AppMode::kServing;
  c.request_rate_hz = request_hz;
  c.size_dist = FlowClass::SizeDist::kPareto;
  c.mean_size = 40 * 1000;
  c.min_size = 1000;
  c.max_size = 2 * 1000 * 1000;
  c.pool.connections = 4;
  c.pool.max_mux = 8;
  c.server.max_pipeline = 32;
  c.server.max_inflight = max_inflight;
  c.server.service.kind = ServiceTimeModel::Kind::kExponential;
  c.server.service.mean = 1 * kMillisecond;
  c.transport = capacity_transport(64 * 1024, 32 * 1024, seed);
  return c;
}

ServingResult run_serving(const ServingSpec& spec, uint64_t seed) {
  CapacitySpec top;
  top.clients = spec.clients;
  top.servers = spec.servers;
  top.bottleneck_rate_bps = spec.bottleneck_bps;
  CapacityTopology cap = build_capacity_topology(top, seed);
  Topology& topo = *cap.topo;

  WorkloadConfig wc;
  wc.clients = cap.clients;
  wc.servers = cap.servers;
  wc.seed = seed;
  wc.classes.push_back(
      serving_class(spec.request_hz, spec.max_inflight, seed));

  WorkloadEngine engine(topo, wc);
  engine.start();
  topo.loop().run_until(spec.duration);

  ServingResult out;
  out.completed = static_cast<double>(engine.completed(0));
  out.rejected = static_cast<double>(engine.requests_rejected(0));
  if (const FineHistogram* h = engine.request_fct_us(0)) {
    out.fct_p50_us = static_cast<double>(h->percentile(0.50));
    out.fct_p99_us = static_cast<double>(h->percentile(0.99));
    out.fct_p999_us = static_cast<double>(h->percentile(0.999));
  }
  out.goodput_mbps = static_cast<double>(engine.bytes_received(0)) * 8.0 /
                     to_seconds(spec.duration) / 1e6;

  std::printf("# %s: %zu clients x %.0f req/s pooled requests, "
              "%zu servers, %.0f Mbps bottlenecks, %.1f s\n",
              spec.name, spec.clients, spec.request_hz, spec.servers,
              spec.bottleneck_bps / 1e6, to_seconds(spec.duration));
  std::printf("%-24s %12.0f\n", "completed", out.completed);
  std::printf("%-24s %12.0f\n", "rejected", out.rejected);
  std::printf("%-24s %12.0f\n", "fct_p50_us", out.fct_p50_us);
  std::printf("%-24s %12.0f\n", "fct_p99_us", out.fct_p99_us);
  std::printf("%-24s %12.0f\n", "fct_p999_us", out.fct_p999_us);
  std::printf("%-24s %12.1f\n\n", "goodput_mbps", out.goodput_mbps);
  return out;
}

void append_serving_fields(
    std::vector<std::pair<std::string, double>>& fields,
    const std::string& prefix, const ServingResult& r) {
  fields.emplace_back(prefix + "completed", r.completed);
  fields.emplace_back(prefix + "rejected", r.rejected);
  fields.emplace_back(prefix + "fct_p50_us", r.fct_p50_us);
  fields.emplace_back(prefix + "fct_p99_us", r.fct_p99_us);
  fields.emplace_back(prefix + "fct_p999_us", r.fct_p999_us);
  fields.emplace_back(prefix + "goodput_mbps", r.goodput_mbps);
}

/// Flash crowd: steady serving load, then a x10 request-rate step against
/// a tight admission cap. Measures the fraction of spike-window requests
/// the servers 503'd (flash_reject_rate) and how long after the rate
/// steps back down the client pools take to drain their backlog to the
/// pre-spike outstanding level (flash_recovery_s, simulated seconds).
/// Both keys are gated lower-is-better.
bool run_flash(bool smoke, uint64_t seed, const std::string& label,
               std::vector<std::pair<std::string, double>>& fields) {
  const std::string prefix = label + "flash_";
  CapacitySpec top;
  top.clients = smoke ? 4 : 8;
  top.servers = 1;
  top.bottleneck_rate_bps = smoke ? 200e6 : 400e6;
  CapacityTopology cap = build_capacity_topology(top, seed);
  Topology& topo = *cap.topo;
  EventLoop& loop = topo.loop();

  WorkloadConfig wc;
  wc.clients = cap.clients;
  wc.servers = cap.servers;
  wc.seed = seed;
  FlowClass c = serving_class(/*request_hz=*/smoke ? 60.0 : 100.0,
                              /*max_inflight=*/smoke ? 8 : 16, seed);
  c.server.service.mean = 2 * kMillisecond;
  c.pool.connections = 2;
  wc.classes.push_back(c);

  const SimTime warmup = smoke ? 500 * kMillisecond : kSecond;
  const SimTime spike = smoke ? 500 * kMillisecond : kSecond;
  const SimTime recovery_cap = smoke ? 2 * kSecond : 5 * kSecond;

  WorkloadEngine engine(topo, wc);
  engine.start();
  loop.run_until(warmup);

  const uint64_t started0 = engine.started(0);
  const uint64_t rejected0 = engine.requests_rejected(0);
  const size_t base_outstanding = engine.outstanding_requests(0);

  engine.set_rate_scale(0, 10.0);
  loop.run_until(warmup + spike);
  const double started_delta =
      static_cast<double>(engine.started(0) - started0);
  const double rejected_delta =
      static_cast<double>(engine.requests_rejected(0) - rejected0);
  const double reject_rate =
      rejected_delta / std::max(1.0, started_delta);

  engine.set_rate_scale(0, 1.0);
  const SimTime recover_start = loop.now();
  const SimTime deadline = recover_start + recovery_cap;
  while (loop.now() < deadline &&
         engine.outstanding_requests(0) > base_outstanding) {
    loop.run_until(loop.now() + 10 * kMillisecond);
  }
  const double recovery_s = to_seconds(loop.now() - recover_start);
  const bool recovered = engine.outstanding_requests(0) <= base_outstanding;

  std::printf("# %sflash crowd: x10 rate step for %.1f s against "
              "max_inflight=%zu\n",
              label.c_str(), to_seconds(spike), c.server.max_inflight);
  std::printf("%-24s %12.0f\n", "spike_started", started_delta);
  std::printf("%-24s %12.0f\n", "spike_rejected", rejected_delta);
  std::printf("%-24s %12.3f\n", "reject_rate", reject_rate);
  std::printf("%-24s %12.2f %s\n\n", "recovery_s", recovery_s,
              recovered ? "" : "(cap hit)");

  fields.emplace_back(prefix + "reject_rate", reject_rate);
  fields.emplace_back(prefix + "recovery_s", recovery_s);

  if (rejected_delta <= 0) {
    std::fprintf(stderr,
                 "FAIL: %sflash spike produced no rejections -- the "
                 "overload path is not exercised\n",
                 prefix.c_str());
    return false;
  }
  if (!recovered) {
    std::fprintf(stderr, "FAIL: %sflash backlog did not drain within "
                 "%.1f s of the rate stepping back down\n",
                 prefix.c_str(), to_seconds(recovery_cap));
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Sharded runs.

struct ShardedRunResult {
  double concurrent_end = 0;  ///< connections open when the run stopped
  double peak_concurrent = 0;
  double completed = 0;
  double errors = 0;
  double goodput_mbps = 0;
  double handoff_packets = 0;
  double wall_seconds = 0;
  std::map<std::string, double> merged;  ///< merged per-shard stats export
};

ShardedRunResult run_sharded(const ShardedCapacitySpec& spec,
                             const FlowClass& local, const FlowClass& cross,
                             size_t shards, uint64_t seed, SimTime duration) {
  WallTimer wall;
  ShardedCapacity net = build_sharded_capacity(spec, seed, shards);
  Topology& topo = *net.topo;

  ShardedCapacityWorkload workload(net, local, cross, seed);
  workload.start();
  ShardedEngine engine(topo);
  engine.run_until(duration);

  ShardedRunResult out;
  out.wall_seconds = wall.seconds();
  out.concurrent_end = static_cast<double>(workload.concurrent());
  out.peak_concurrent = static_cast<double>(workload.peak_concurrent_sum());
  out.completed = static_cast<double>(workload.total_completed());
  out.errors = static_cast<double>(workload.total_errors());
  out.goodput_mbps = static_cast<double>(workload.bytes_received()) * 8.0 /
                     to_seconds(duration) / 1e6;
  out.handoff_packets = static_cast<double>(engine.handoff_packets());
  out.merged = StatsRegistry::merged_flatten(topo.shard_stats());
  return out;
}

/// Compares two runs' canonicalized merged exports. Returns the number
/// of mismatched keys (0 = the sharded run reproduced the single-shard
/// simulation bit for bit).
size_t compare_merged(const std::map<std::string, double>& ref_raw,
                      const std::map<std::string, double>& got_raw) {
  const CanonicalStats ref = canonicalize(ref_raw);
  const CanonicalStats got = canonicalize(got_raw);
  size_t bad = 0;
  auto report = [&bad](const std::string& key, const char* what) {
    if (++bad <= 8) std::fprintf(stderr, "MISMATCH: %s %s\n",
                                 key.c_str(), what);
  };
  for (const auto& [key, value] : ref.exact) {
    const auto it = got.exact.find(key);
    if (it == got.exact.end()) {
      report(key, "missing");
    } else if (it->second != value) {
      report(key, "differs");
    }
  }
  for (const auto& [key, value] : got.exact) {
    if (ref.exact.find(key) == ref.exact.end()) report(key, "extra");
  }
  for (const auto& [key, values] : ref.per_conn) {
    const auto it = got.per_conn.find(key);
    if (it == got.per_conn.end()) {
      report(key, "missing (per-conn)");
    } else if (it->second != values) {
      report(key, "differs (per-conn multiset)");
    }
  }
  for (const auto& [key, values] : got.per_conn) {
    if (ref.per_conn.find(key) == ref.per_conn.end()) {
      report(key, "extra (per-conn)");
    }
  }
  return bad;
}

FlowClass sharded_local_class(size_t persistent, double churn_hz,
                              uint64_t seed) {
  FlowClass local;
  local.name = "bulk";
  local.persistent_per_client = persistent;
  local.arrival_rate_hz = churn_hz;
  local.size_dist = FlowClass::SizeDist::kExponential;
  local.mean_size = 20 * 1000;
  local.min_size = 1000;
  local.max_size = 1000 * 1000;
  local.transport = capacity_transport(16 * 1024, 8 * 1024, seed);
  return local;
}

FlowClass disabled_class() {
  FlowClass off;
  off.name = "off";
  off.arrival_rate_hz = 0;
  off.persistent_per_client = 0;
  return off;
}

/// The >= 50k-connection sharded scale run: 4 cells x 25 clients x 500
/// persistent connections = 50,000 sustained, plus light churn for FCT
/// signal. Traffic stays inside each cell (the ring is wired but idle),
/// which is what makes the single-shard reference and the N-shard run
/// provably identical in simulated metrics -- the self-check below
/// compares every non-execution-dependent merged stat exactly.
bool run_sharded_full(size_t shards, uint64_t seed,
                      std::vector<std::pair<std::string, double>>& fields) {
  ShardedCapacitySpec spec;
  spec.cells = 4;
  spec.cell.clients = 25;
  spec.cell.servers = 2;
  spec.cell.bottleneck_rate_bps = 2e9;
  const SimTime duration = 2 * kSecond;
  const FlowClass local = sharded_local_class(500, 2.0, seed);
  const FlowClass off = disabled_class();

  std::printf("# sharded: %zu cells x %zu clients x %zu persistent, "
              "1-shard reference vs %zu shards\n",
              spec.cells, spec.cell.clients, local.persistent_per_client,
              shards);
  const ShardedRunResult ref =
      run_sharded(spec, local, off, 1, seed, duration);
  const ShardedRunResult run =
      run_sharded(spec, local, off, shards, seed, duration);

  bool ok = true;
  const size_t mismatches = compare_merged(ref.merged, run.merged);
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu merged-stat mismatches between 1-shard and "
                 "%zu-shard runs\n",
                 mismatches, shards);
    ok = false;
  }
  if (run.concurrent_end < 50000) {
    std::fprintf(stderr, "FAIL: sharded concurrent_end %.0f < 50000\n",
                 run.concurrent_end);
    ok = false;
  }

  const double speedup =
      run.wall_seconds > 0 ? ref.wall_seconds / run.wall_seconds : 0;
  std::printf("%-32s %12.0f\n", "sharded_concurrent_end", run.concurrent_end);
  std::printf("%-32s %12.0f\n", "sharded_peak_concurrent",
              run.peak_concurrent);
  std::printf("%-32s %12.0f\n", "sharded_completed", run.completed);
  std::printf("%-32s %12.0f\n", "sharded_errors", run.errors);
  std::printf("%-32s %12.1f\n", "sharded_goodput_mbps", run.goodput_mbps);
  std::printf("%-32s %12.2f\n", "sharded_wall_seconds_1shard",
              ref.wall_seconds);
  std::printf("%-32s %12.2f\n", "sharded_wall_seconds_nshard",
              run.wall_seconds);
  std::printf("%-32s %12.2f\n", "sharded_speedup", speedup);
  std::printf("%-32s %12s\n\n", "metrics_vs_1shard",
              mismatches == 0 ? "identical" : "DIVERGED");

  fields.emplace_back("sharded_shards", static_cast<double>(shards));
  fields.emplace_back("sharded_concurrent_end", run.concurrent_end);
  fields.emplace_back("sharded_peak_concurrent", run.peak_concurrent);
  fields.emplace_back("sharded_completed", run.completed);
  fields.emplace_back("sharded_goodput_mbps", run.goodput_mbps);
  fields.emplace_back("sharded_wall_seconds_1shard", ref.wall_seconds);
  fields.emplace_back("sharded_wall_seconds_nshard", run.wall_seconds);
  return ok;
}

/// Reduced-scale sharded run with cross-cell traffic enabled: every byte
/// of the cross class rides the cross-shard handoff channels around the
/// cell ring. This is the phase the ThreadSanitizer CI job runs (--smoke
/// --shards N) and the source of the handoff counters in the JSON.
bool run_sharded_cross(size_t shards, uint64_t seed, const char* prefix,
                       std::vector<std::pair<std::string, double>>& fields) {
  ShardedCapacitySpec spec;
  spec.cells = 4;
  spec.cell.clients = 4;
  spec.cell.servers = 1;
  spec.cell.bottleneck_rate_bps = 200e6;
  const SimTime duration = 1500 * kMillisecond;
  const FlowClass local = sharded_local_class(10, 5.0, seed);
  FlowClass cross = sharded_local_class(5, 5.0, seed ^ 0x2545f4914f6cdd1dULL);
  cross.name = "cross";

  std::printf("# %scross-cell handoff: %zu cells over %zu shards\n", prefix,
              spec.cells, shards);
  const ShardedRunResult run =
      run_sharded(spec, local, cross, shards, seed, duration);

  std::printf("%-32s %12.0f\n", "concurrent_end", run.concurrent_end);
  std::printf("%-32s %12.0f\n", "completed", run.completed);
  std::printf("%-32s %12.0f\n\n", "handoff_packets", run.handoff_packets);

  const std::string p = prefix;
  fields.emplace_back(p + "cross_concurrent_end", run.concurrent_end);
  fields.emplace_back(p + "cross_completed", run.completed);
  fields.emplace_back(p + "cross_handoff_packets", run.handoff_packets);

  if (shards > 1 && run.handoff_packets <= 0) {
    std::fprintf(stderr, "FAIL: no packets crossed shards\n");
    return false;
  }
  if (run.completed <= 0) {
    std::fprintf(stderr, "FAIL: no cross-cell flows completed\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke_only = false;
  size_t shards = 0;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke_only = true;
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::strtoull(argv[++i], nullptr, 10);
    } else {
      out_path = argv[i];
    }
  }
  shards = clamp_shards(shards);

  WallTimer wall;
  std::vector<std::pair<std::string, double>> fields;
  bool ok = true;

  if (smoke_only && shards > 0) {
    // The ThreadSanitizer CI workload: only the reduced-scale sharded
    // phase, with cross-cell traffic keeping the handoff channels hot.
    if (!run_sharded_cross(shards, /*seed=*/1, "smoke_", fields)) ok = false;
    fields.emplace_back("wall_seconds_total", wall.seconds());
    if (!out_path.empty() && !write_json(out_path, fields)) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 2;
    }
    return ok ? 0 : 1;
  }

  // Build the shared pattern tape before the baseline reading, so its
  // 4 MiB are not charged to the connections.
  pattern_payload(0, 1);
  const double rss_before = proc_status_bytes("VmRSS");
  const ScaleResult smoke = run_scale(kSmoke, /*seed=*/1);
  const double bytes_per_conn = (proc_status_bytes("VmHWM") - rss_before) /
                                std::max(1.0, smoke.peak_concurrent);
  std::printf("%-24s %12.0f\n\n", "bytes_per_conn", bytes_per_conn);
  append_fields(fields, "smoke_", smoke);
  fields.emplace_back("smoke_bytes_per_conn", bytes_per_conn);
  if (allocations_counted()) {
    fields.emplace_back("smoke_allocs_per_pkt_hop", smoke.allocs_per_pkt_hop);
  }
  const ServingResult smoke_serving = run_serving(kServingSmoke, /*seed=*/1);
  append_serving_fields(fields, "smoke_serving_", smoke_serving);
  if (smoke_serving.completed <= 0) {
    std::fprintf(stderr, "FAIL: smoke serving phase completed no requests\n");
    ok = false;
  }
  if (!run_flash(/*smoke=*/true, /*seed=*/1, "smoke_", fields)) {
    ok = false;
  }

  if (!smoke_only) {
    const ScaleResult full = run_scale(kFull, /*seed=*/1);
    append_fields(fields, "capacity_", full);
    const ServingResult serving = run_serving(kServingFull, /*seed=*/1);
    append_serving_fields(fields, "serving_", serving);
    if (serving.completed <= 0) {
      std::fprintf(stderr, "FAIL: serving phase completed no requests\n");
      ok = false;
    }
    if (!run_flash(/*smoke=*/false, /*seed=*/1, "", fields)) {
      ok = false;
    }
    // The acceptance floor: a full-scale run must sustain >= 5000
    // concurrent connections.
    if (full.peak_concurrent < 5000) {
      std::fprintf(stderr,
                   "FAIL: peak_concurrent %.0f < 5000 at full scale\n",
                   full.peak_concurrent);
      ok = false;
    }
    if (shards > 0) {
      if (!run_sharded_full(shards, /*seed=*/1, fields)) ok = false;
      if (!run_sharded_cross(shards, /*seed=*/1, "sharded_", fields)) {
        ok = false;
      }
    }
  }
  fields.emplace_back("wall_seconds_total", wall.seconds());

  if (!out_path.empty()) {
    if (!write_json(out_path, fields)) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 2;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return ok ? 0 : 1;
}
