// Fleet-scale Internet-realism benchmark: a population of heterogeneous
// client islands (app/fleet.h) drawn from configurable distributions --
// per-path rate/RTT/loss, middlebox prevalence (SYN option strippers,
// NATs, payload-corrupting proxies), mobility events (make-before-break
// handover, REMOVE_ADDR storms, NAT rebinding) -- run through the
// sharded engine and reported as population-level metrics: fallback
// rate, M1-M4 mechanism trigger mix, goodput and FCT distribution.
//
// The full run drives >= 2000 clients and self-checks that
//   * the fallback rate is monotone in option-stripper prevalence and
//     exactly zero at zero prevalence (the paper's deployability story:
//     fallback happens iff a middlebox interferes);
//   * island placement is balanced across shards (shard_for_token).
//
// --smoke is the CI gate: a reduced fleet whose smoke_* keys
// bench/check_bench.py compares against the tracked BENCH_fleet.json
// (*_us keys are informational). Determinism is pinned separately by
// `sim_digest --scenario fleet`, whose digest must also be identical
// across --shards 1/2/4.
//
// Usage: bench_fleet [--smoke] [--clients N] [--shards N] [--seed N]
//                    [--duration-ms M] [--p-stripper P] [--p-nat P]
//                    [--p-corrupter P] [--p-handover P] [--p-storm P]
//                    [--p-rebind P] [--arrival-hz R] [--persistent N]
//                    [--no-selfcheck] [OUTPUT.json]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "app/fleet.h"
#include "bench_util.h"

using namespace mptcp;
using namespace mptcp::bench;

namespace {

struct FleetRun {
  FleetMetrics m;
  double goodput_mbps = 0;
  double wall_seconds = 0;
  bool balanced = true;
};

FleetRun run_fleet(const FleetSpec& spec, const char* name) {
  if (std::getenv("FLEET_DUMP") != nullptr) {
    for (const ClientProfile& p : sample_fleet(spec)) {
      std::printf("client %llu:", (unsigned long long)p.index);
      for (const PathProfile& path : p.paths) {
        std::printf(" [%.1fMbps rtt%.0fms loss%.4f%s%s%s]",
                    path.rate_bps / 1e6,
                    static_cast<double>(path.rtt) / kMillisecond,
                    path.loss, path.stripper ? " STRIP" : "",
                    path.nat ? " NAT" : "", path.corrupter ? " CORR" : "");
      }
      std::printf(" handover@%.0fms storm@%.0fms x%zu rebind@%.0fms\n",
                  static_cast<double>(p.handover_at) / kMillisecond,
                  static_cast<double>(p.storm_at) / kMillisecond,
                  p.storm_rounds,
                  static_cast<double>(p.rebind_at) / kMillisecond);
    }
  }
  WallTimer wall;
  FleetEngine fleet(spec);
  FleetRun out;
  out.balanced = fleet.shards_balanced();
  fleet.run();
  out.m = fleet.metrics();
  out.wall_seconds = wall.seconds();
  out.goodput_mbps = static_cast<double>(out.m.bytes_received) * 8.0 /
                     to_seconds(spec.duration) / 1e6;

  std::printf("# %s: %zu clients, %zu shards, %.1f s sim "
              "(stripper %.2f nat %.2f corrupter %.2f)\n",
              name, spec.clients, spec.shards, to_seconds(spec.duration),
              spec.p_stripper, spec.p_nat, spec.p_corrupter);
  std::printf("%-26s %12llu\n", "connections",
              (unsigned long long)out.m.connections);
  std::printf("%-26s %12llu\n", "fallbacks",
              (unsigned long long)out.m.fallbacks);
  std::printf("%-26s %12.4f\n", "fallback_rate", out.m.fallback_rate());
  std::printf("%-26s %12llu\n", "flows_completed",
              (unsigned long long)out.m.flows_completed);
  std::printf("%-26s %12llu\n", "flows_errored",
              (unsigned long long)out.m.flows_errored);
  std::printf("%-26s %12.1f\n", "goodput_mbps", out.goodput_mbps);
  std::printf("%-26s %12llu\n", "m1_opportunistic_rtx",
              (unsigned long long)out.m.m1_opportunistic_rtx);
  std::printf("%-26s %12llu\n", "m2_penalizations",
              (unsigned long long)out.m.m2_penalizations);
  std::printf("%-26s %12llu\n", "m3_autotune_resizes",
              (unsigned long long)out.m.m3_autotune_resizes);
  std::printf("%-26s %12llu\n", "m4_cap_activations",
              (unsigned long long)out.m.m4_cap_activations);
  std::printf("%-26s %12llu\n", "checksum_failures",
              (unsigned long long)out.m.checksum_failures);
  std::printf("%-26s %12llu\n", "subflow_resets",
              (unsigned long long)out.m.subflow_resets);
  std::printf("%-26s %12llu\n", "handovers",
              (unsigned long long)out.m.handovers);
  std::printf("%-26s %12llu\n", "storm_removals",
              (unsigned long long)out.m.storm_removals);
  std::printf("%-26s %12llu\n", "nat_rebinds",
              (unsigned long long)out.m.nat_rebinds);
  std::printf("%-26s %12llu\n", "fct_p50_us",
              (unsigned long long)out.m.fct_p50_us);
  std::printf("%-26s %12llu\n", "fct_p99_us",
              (unsigned long long)out.m.fct_p99_us);
  std::printf("%-26s %12.2f\n\n", "wall_seconds", out.wall_seconds);
  return out;
}

void append_fields(std::vector<std::pair<std::string, double>>& fields,
                   const std::string& prefix, const FleetRun& r) {
  fields.emplace_back(prefix + "connections",
                      static_cast<double>(r.m.connections));
  fields.emplace_back(prefix + "fallback_rate", r.m.fallback_rate());
  fields.emplace_back(prefix + "flows_completed",
                      static_cast<double>(r.m.flows_completed));
  fields.emplace_back(prefix + "goodput_mbps", r.goodput_mbps);
  fields.emplace_back(prefix + "m1_opportunistic_rtx",
                      static_cast<double>(r.m.m1_opportunistic_rtx));
  fields.emplace_back(prefix + "m2_penalizations",
                      static_cast<double>(r.m.m2_penalizations));
  fields.emplace_back(prefix + "m3_autotune_resizes",
                      static_cast<double>(r.m.m3_autotune_resizes));
  fields.emplace_back(prefix + "m4_cap_activations",
                      static_cast<double>(r.m.m4_cap_activations));
  fields.emplace_back(prefix + "handovers",
                      static_cast<double>(r.m.handovers));
  fields.emplace_back(prefix + "storm_removals",
                      static_cast<double>(r.m.storm_removals));
  fields.emplace_back(prefix + "nat_rebinds",
                      static_cast<double>(r.m.nat_rebinds));
  fields.emplace_back(prefix + "fct_p50_us",
                      static_cast<double>(r.m.fct_p50_us));
  fields.emplace_back(prefix + "fct_p99_us",
                      static_cast<double>(r.m.fct_p99_us));
}

/// The monotone-fallback self-check: sweep option-stripper prevalence
/// and require fallback_rate(0) == 0 and non-decreasing thereafter.
/// Run at reduced scale so it stays cheap in both modes.
bool sweep_fallback(const FleetSpec& base) {
  FleetSpec spec = base;
  spec.clients = std::min<size_t>(base.clients, 200);
  spec.duration = 1500 * kMillisecond;
  spec.p_handover = spec.p_storm = spec.p_rebind = 0;
  spec.p_nat = spec.p_corrupter = 0;

  const double prevalences[] = {0.0, 0.25, 0.75};
  double prev_rate = -1.0;
  bool ok = true;
  std::printf("# fallback sweep: %zu clients per point\n", spec.clients);
  for (double p : prevalences) {
    spec.p_stripper = p;
    FleetEngine fleet(spec);
    fleet.run();
    const FleetMetrics m = fleet.metrics();
    const double rate = m.fallback_rate();
    std::printf("  p_stripper %.2f -> fallback_rate %.4f "
                "(%llu/%llu)\n",
                p, rate, (unsigned long long)m.fallbacks,
                (unsigned long long)m.connections);
    if (p == 0.0 && m.fallbacks != 0) {
      std::fprintf(stderr,
                   "FAIL: %llu fallbacks at zero stripper prevalence\n",
                   (unsigned long long)m.fallbacks);
      ok = false;
    }
    if (rate < prev_rate) {
      std::fprintf(stderr,
                   "FAIL: fallback rate not monotone (%.4f after %.4f)\n",
                   rate, prev_rate);
      ok = false;
    }
    prev_rate = rate;
  }
  std::printf("\n");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool selfcheck = true;
  std::string out_path;
  FleetSpec spec;
  spec.clients = 0;  // 0 = use the mode default below
  spec.duration = 0;
  // Internet-ish defaults for the benchmark runs: middleboxes and
  // mobility all present at plausible prevalence.
  spec.p_stripper = 0.15;
  spec.p_nat = 0.30;
  spec.p_corrupter = 0.05;
  spec.p_handover = 0.10;
  spec.p_storm = 0.10;
  spec.p_rebind = 0.25;

  auto next_d = [&](int& i) { return std::strtod(argv[++i], nullptr); };
  auto next_u = [&](int& i) {
    return std::strtoull(argv[++i], nullptr, 10);
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--no-selfcheck") == 0) {
      selfcheck = false;
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      spec.clients = next_u(i);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      spec.shards = next_u(i);
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      spec.seed = next_u(i);
    } else if (std::strcmp(argv[i], "--duration-ms") == 0 && i + 1 < argc) {
      spec.duration = next_u(i) * kMillisecond;
    } else if (std::strcmp(argv[i], "--p-stripper") == 0 && i + 1 < argc) {
      spec.p_stripper = next_d(i);
    } else if (std::strcmp(argv[i], "--p-nat") == 0 && i + 1 < argc) {
      spec.p_nat = next_d(i);
    } else if (std::strcmp(argv[i], "--p-corrupter") == 0 && i + 1 < argc) {
      spec.p_corrupter = next_d(i);
    } else if (std::strcmp(argv[i], "--p-handover") == 0 && i + 1 < argc) {
      spec.p_handover = next_d(i);
    } else if (std::strcmp(argv[i], "--p-storm") == 0 && i + 1 < argc) {
      spec.p_storm = next_d(i);
    } else if (std::strcmp(argv[i], "--p-rebind") == 0 && i + 1 < argc) {
      spec.p_rebind = next_d(i);
    } else if (std::strcmp(argv[i], "--arrival-hz") == 0 && i + 1 < argc) {
      spec.arrival_rate_hz = next_d(i);
    } else if (std::strcmp(argv[i], "--persistent") == 0 && i + 1 < argc) {
      spec.persistent_per_client = next_u(i);
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
      return 2;
    } else {
      out_path = argv[i];
    }
  }
  if (spec.clients == 0) spec.clients = smoke ? 150 : 2000;
  if (spec.duration == 0) {
    spec.duration = smoke ? 2 * kSecond : 4 * kSecond;
  }
  if (spec.shards == 0) spec.shards = 1;
  spec.shards = clamp_shards(spec.shards);

  WallTimer wall;
  std::vector<std::pair<std::string, double>> fields;
  bool ok = true;

  const FleetRun run = run_fleet(spec, smoke ? "smoke" : "full");
  append_fields(fields, smoke ? "smoke_" : "fleet_", run);
  if (!run.balanced) {
    std::fprintf(stderr, "FAIL: island placement unbalanced across "
                         "%zu shards\n", spec.shards);
    ok = false;
  }
  if (run.m.connections == 0 || run.m.flows_completed == 0) {
    std::fprintf(stderr, "FAIL: fleet moved no traffic\n");
    ok = false;
  }
  if (spec.p_stripper > 0 && run.m.fallbacks == 0) {
    std::fprintf(stderr, "FAIL: no fallbacks despite stripper "
                         "prevalence %.2f\n", spec.p_stripper);
    ok = false;
  }

  // A full run also performs the smoke-scale pass so the tracked
  // baseline carries the smoke_* keys the CI bench-track job gates on
  // (same pattern as bench_capacity). Fleet outcomes are deterministic
  // and shard-count-invariant, so these values match a CI --smoke run
  // regardless of either side's --shards.
  if (!smoke) {
    FleetSpec ss = spec;
    ss.clients = 150;
    ss.duration = 2 * kSecond;
    append_fields(fields, "smoke_", run_fleet(ss, "smoke"));
  }

  if (selfcheck) {
    FleetSpec sweep = spec;
    if (smoke) sweep.clients = 60;
    if (!sweep_fallback(sweep)) ok = false;
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
