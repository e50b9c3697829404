// One repetition of one benchmark workload, printed as one JSON line.
//
//   perfbench --workload NAME [--seed N] [--trace 0|1] [--reduced]
//             [--shards N]
//
// Phases, each timed in process CPU time (see cpu_seconds()); the run is
// also timed on the wall clock:
//   setup     topology build (routes, middleboxes), then engine
//             construction and start, up to the first simulated event.
//             Done kSetups times, the first kSetups - 1 torn down again
//             untimed, so setup_s is a median within one process;
//   run       the fixed simulated horizon, advanced in fixed slices;
//   teardown  engines destroyed, then the topology.
// Peak RSS (VmHWM) covers this process, i.e. this one workload; RSS is
// also read before set-up so per-connection memory can be derived.
//
// --trace 1 splices the timing taps of trace.h into every link direction
// after the topology is built and reads layer counters at every slice
// boundary. Untraced and traced runs advance in identical slices, and the
// JSON carries an outcome fingerprint so the caller can check that the
// taps did not perturb the simulation. run.py aggregates repetitions.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"
#include "workloads.h"

using namespace perfbench;

namespace {

/// A "Vm...:  <n> kB" field of /proc/self/status, in bytes.
double proc_status_bytes(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n &&
        line[n] == ':') {
      return std::strtod(line.c_str() + n + 1, nullptr) * 1024.0;
    }
  }
  return 0;
}

class JsonLine {
 public:
  void num(const std::string& k, double v) { fields_.emplace_back(k, fmt(v)); }
  void list(const std::string& k, const std::vector<double>& v) {
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) s += (i > 0 ? ", " : "") + fmt(v[i]);
    fields_.emplace_back(k, s + "]");
  }
  void str(const std::string& k, const std::string& v) {
    fields_.emplace_back(k, "\"" + v + "\"");
  }
  void print() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    std::printf("%s}\n", out.c_str());
  }

 private:
  static std::string fmt(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }
  std::vector<std::pair<std::string, std::string>> fields_;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload bulk_5k|serving|fleet|cross_shard "
               "[--seed N] [--trace 0|1] [--reduced] [--shards N]\n");
  return 2;
}

/// Set-ups per process; setup_s is their median CPU time.
constexpr int kSetups = 7;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  WorkloadOptions opt;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const bool has_arg = i + 1 < argc;
    if (std::strcmp(argv[i], "--workload") == 0 && has_arg) {
      name = argv[++i];
    } else if (std::strcmp(argv[i], "--seed") == 0 && has_arg) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--trace") == 0 && has_arg) {
      traced = std::strcmp(argv[++i], "0") != 0;
    } else if (std::strcmp(argv[i], "--shards") == 0 && has_arg) {
      opt.shards = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--reduced") == 0) {
      opt.reduced = true;
    } else {
      return usage();
    }
  }
  std::unique_ptr<Workload> wl = make_workload(name, opt);
  if (wl == nullptr) return usage();

  const double rss_before = proc_status_bytes("VmRSS");

  // --- setup ---------------------------------------------------------------
  std::vector<double> setup_s;
  for (int i = 1; i < kSetups; ++i) {
    std::unique_ptr<Workload> w = make_workload(name, opt);
    const double c0 = cpu_seconds();
    w->build();
    w->start();
    setup_s.push_back(cpu_seconds() - c0);
    w->destroy_engine();
    w->destroy_topology();
  }
  double c0 = cpu_seconds();
  wl->build();
  const double topology_build_s = cpu_seconds() - c0;
  std::unique_ptr<LayerTrace> trace;
  if (traced) trace = std::make_unique<LayerTrace>(wl->topo());
  c0 = cpu_seconds();
  wl->start();
  const double engine_start_s = cpu_seconds() - c0;
  setup_s.push_back(topology_build_s + engine_start_s);

  // --- run -----------------------------------------------------------------
  mptcp::Topology& topo = wl->topo();
  const size_t shards = topo.shard_count();
  std::vector<SliceTime> slices;
  uint64_t events_live_max = 0;
  wl->run(slices, [&] {
    if (!traced) return;
    wl->sample();
    uint64_t live = 0;
    for (size_t s = 0; s < shards; ++s) live += topo.loop(s).pending_count();
    events_live_max = std::max(events_live_max, live);
  });
  std::vector<double> slice_s, slice_cpu_s;
  double run_s = 0, run_cpu_s = 0;
  for (const SliceTime& s : slices) {
    slice_s.push_back(s.wall_s);
    slice_cpu_s.push_back(s.cpu_s);
    run_s += s.wall_s;
    run_cpu_s += s.cpu_s;
  }

  // --- outcome and counters (untimed) --------------------------------------
  const Outcome out = wl->outcome();
  const Ops ops = wl->ops();
  const std::string check = wl->self_check();

  JsonLine j;
  j.str("workload", name);
  j.num("seed", static_cast<double>(opt.seed));
  j.num("traced", traced ? 1 : 0);
  j.str("check", check);
  // Fingerprint: simulated outcome only.
  j.num("fp.flows_completed", static_cast<double>(out.flows_completed));
  j.num("fp.requests_completed", static_cast<double>(out.requests_completed));
  j.num("fp.bytes_delivered", static_cast<double>(out.bytes_delivered));
  j.num("fp.fallbacks", static_cast<double>(out.fallbacks));
  j.num("fp.fct_p50_us", static_cast<double>(out.fct_p50_us));
  j.num("fp.fct_p99_us", static_cast<double>(out.fct_p99_us));
  j.num("fp.pkt_hops", static_cast<double>(out.pkt_hops));
  j.num("ops", static_cast<double>(ops.attempted));
  j.num("failed_ops", static_cast<double>(ops.failed));
  j.num("requests_rejected", static_cast<double>(ops.rejected));
  j.num("peak_connections", static_cast<double>(wl->peak_connections()));
  j.num("shards", static_cast<double>(shards));
  j.list("slice_s", slice_s);
  j.list("slice_cpu_s", slice_cpu_s);

  if (traced) {
    uint64_t fired = 0, cancelled = 0, sweeps = 0, fired_max = 0;
    for (size_t s = 0; s < shards; ++s) {
      const mptcp::EventLoop& loop = topo.loop(s);
      fired += loop.events_fired();
      cancelled += loop.events_cancelled();
      sweeps += loop.heap_compactions();
      fired_max = std::max(fired_max, loop.events_fired());
    }
    j.num("sim.events_fired", static_cast<double>(fired));
    j.num("sim.timer_rearms", static_cast<double>(cancelled));
    j.num("sim.timer_gc_sweeps", static_cast<double>(sweeps));
    j.num("sim.events_live_max", static_cast<double>(events_live_max));
    j.num("shard.event_imbalance",
          fired == 0 ? 0
                     : static_cast<double>(fired_max) * shards /
                           static_cast<double>(fired));
    uint64_t drops = 0;
    for (size_t l = 0; l < topo.link_count(); ++l) {
      for (const mptcp::Link* link : {&topo.link_ab(l), &topo.link_ba(l)}) {
        const mptcp::Link::Stats& st = link->stats();
        drops += st.dropped_overflow + st.dropped_loss + st.dropped_down;
      }
    }
    j.num("sim.link.drops", static_cast<double>(drops));

    // Registry aggregates (summed over shard partitions).
    for (const char* key : {"tcp.segments_sent", "tcp.retransmits",
                            "tcp.rto_firings", "tcp.rwnd_stalls"}) {
      double v = 0;
      for (size_t s = 0; s < shards; ++s) v += topo.stats(s).value(key);
      j.num(key, v);
    }
    // The payload pool is per thread; shard 0 runs on this thread.
    j.num("payload.pool.hits", topo.stats(0).value("payload.pool.hits"));
    j.num("payload.pool.misses", topo.stats(0).value("payload.pool.misses"));

    const CoreCounters c = wl->core();
    j.num("core.connections", static_cast<double>(c.connections));
    j.num("core.dss_mappings", static_cast<double>(c.dss_mappings));
    j.num("core.scheduler_picks", static_cast<double>(c.scheduler_picks));
    j.num("core.data_ack_advances", static_cast<double>(c.data_ack_advances));
    j.num("core.reinjected_bytes", static_cast<double>(c.reinjected_bytes));
    j.num("core.m1_opportunistic_rtx", static_cast<double>(c.m1));
    j.num("core.m2_penalizations", static_cast<double>(c.m2));
    j.num("core.m3_autotune_resizes", static_cast<double>(c.m3));
    j.num("core.m4_cap_activations", static_cast<double>(c.m4));
    j.num("core.checksum_failures", static_cast<double>(c.checksum_failures));
    j.num("core.subflow_resets", static_cast<double>(c.subflow_resets));
    j.num("core.meta_buffer_bytes_max",
          static_cast<double>(wl->meta_buffer_bytes_max()));
    j.num("app.outstanding_max",
          static_cast<double>(wl->requests_outstanding_max()));
    j.num("payload_sent", static_cast<double>(trace->payload_sent()));

    const ShardCounters sc = wl->shard();
    j.num("shard.epochs", static_cast<double>(sc.epochs));
    j.num("shard.drain_skips", static_cast<double>(sc.drain_skips));
    j.num("shard.handoff_packets", static_cast<double>(sc.handoff_packets));
    j.num("shard.handoff_spills", static_cast<double>(sc.handoff_spills));
    j.num("shard.ring_resizes", static_cast<double>(sc.ring_resizes));

    const struct {
      const char* name;
      SpanKind kind;
    } spans[] = {{"router", SpanKind::kRouter},
                 {"host", SpanKind::kHost},
                 {"middlebox", SpanKind::kMiddlebox}};
    for (const auto& sp : spans) {
      const SpanSummary sum = trace->summary(sp.kind);
      const std::string p = std::string("span.") + sp.name;
      j.num(p + ".ns_p50", static_cast<double>(sum.p50));
      j.num(p + ".ns_tail", static_cast<double>(sum.tail));
      j.num(p + ".total_ns", static_cast<double>(sum.total_ns));
    }
  }

  // --- teardown ------------------------------------------------------------
  c0 = cpu_seconds();
  wl->destroy_engine();
  const double engine_teardown_s = cpu_seconds() - c0;
  c0 = cpu_seconds();
  wl->destroy_topology();
  const double topology_teardown_s = cpu_seconds() - c0;

  j.num("setup_s", median(setup_s));
  j.num("app.topology_build_s", topology_build_s);
  j.num("app.engine_start_s", engine_start_s);
  j.num("run_s", run_s);
  j.num("run_cpu_s", run_cpu_s);
  j.num("teardown_s", engine_teardown_s + topology_teardown_s);
  j.num("app.engine_teardown_s", engine_teardown_s);
  j.num("app.topology_teardown_s", topology_teardown_s);
  j.num("rss_before_bytes", rss_before);
  j.num("peak_rss_bytes", proc_status_bytes("VmHWM"));
  j.print();
  return check.empty() ? 0 : 1;
}
