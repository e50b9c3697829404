// Shared experiment runners for the figure-reproduction benchmarks.
//
// Each paper figure is regenerated by a bench binary that sweeps the
// figure's x-axis and prints the series the paper plots. These helpers
// run one bulk-transfer data point: a given stack variant over a given
// set of paths with a given buffer size, measuring goodput, wire-level
// throughput, memory, and (optionally) application-level block delays.
#pragma once

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "app/bulk_app.h"
#include "app/scenario.h"
#include "app/socket_factory.h"
#include "core/mptcp_stack.h"

namespace mptcp {
namespace bench {

/// Wall-clock stopwatch for benchmark sections (monotonic clock; the
/// simulator's own SimTime measures virtual time, not host time).
class WallTimer {
 public:
  WallTimer() { reset(); }
  void reset() { start_ = std::chrono::steady_clock::now(); }
  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Writes a flat {"name": value, ...} JSON object so benchmark results are
/// machine-readable and can be tracked across commits. Returns false if
/// the file could not be written.
bool write_json(const std::string& path,
                const std::vector<std::pair<std::string, double>>& fields);

/// Clamps a --shards request to std::thread::hardware_concurrency()
/// (floor 1), warning on stderr when it lowers the request: the sharded
/// engine runs one worker thread per shard, and oversubscribing cores
/// turns the epoch barrier's bounded spin into scheduler thrash instead
/// of parallelism. Setting MPTCP_ALLOW_OVERSUBSCRIBE (to any value)
/// bypasses the clamp -- digests depend on the shard count, so runs that
/// pin a count for cross-machine comparison (CI's determinism matrix)
/// must not let it drift with the host.
size_t clamp_shards(size_t requested);

/// A "<field>: N kB" line of /proc/self/status (VmRSS, VmHWM, ...) in
/// bytes; 0 when the field or the file is missing (non-Linux hosts).
double proc_status_bytes(const char* field);

/// Calls to the global operator new made so far by this process, every
/// thread included. bench_util.cc replaces operator new with a counting
/// one (one relaxed atomic increment per call) in every binary that links
/// it, except under the sanitizers, which bring their own allocator:
/// there allocations_counted() is false and the count stays 0.
uint64_t allocation_count();
bool allocations_counted();

/// Packets every link of `topo` has delivered, both directions summed:
/// the packet-hops perfbench divides its run time by.
uint64_t count_pkt_hops(Topology& topo);

/// Which sender-side mechanisms a variant enables (section 4.2).
struct Variant {
  std::string name;
  bool m1_opportunistic = false;
  bool m2_penalize = false;
  bool m3_autotune = false;
  bool m4_cap = false;
};

inline Variant regular_mptcp() { return {"regular MPTCP", false, false}; }
inline Variant mptcp_m1() { return {"MPTCP+M1", true, false}; }
inline Variant mptcp_m12() { return {"MPTCP+M1,2", true, true}; }
inline Variant mptcp_m123() { return {"MPTCP+M1,2,3", true, true, true}; }
inline Variant mptcp_m1234() {
  return {"MPTCP+M1,2,3,4", true, true, true, true};
}
inline Variant mptcp_m3() { return {"MPTCP+M3", false, false, true, false}; }
inline Variant mptcp_m34() { return {"MPTCP+M3,4", false, false, true, true}; }

struct RunResult {
  double goodput_bps = 0;     ///< application bytes delivered / time
  double throughput_bps = 0;  ///< subflow payload bytes sent / time
  double snd_mem_mean = 0;    ///< mean sender memory (bytes)
  double rcv_mem_mean = 0;    ///< mean receiver memory (bytes)
  Distribution app_delays;    ///< 8KB-block delays (seconds), if requested
  uint64_t m1_count = 0;
  uint64_t m2_count = 0;
};

struct RunConfig {
  std::vector<PathSpec> paths;
  size_t buffer_bytes = 256 * 1024;  ///< the Rcv/Snd-Buffer knob
  Variant variant = mptcp_m12();
  SimTime warmup = 3 * kSecond;
  SimTime duration = 15 * kSecond;
  bool measure_block_delay = false;  ///< Fig. 7 workload instead of bulk
  uint64_t seed = 1;
  std::string stats_out;  ///< if set, write the run's full stats JSON here
};

/// Runs MPTCP (client sends, server receives) and reports the data point.
RunResult run_mptcp(const RunConfig& cfg);

/// Runs single-path TCP over paths[path_index] with the same buffer knob.
RunResult run_tcp(const RunConfig& cfg, size_t path_index);

/// Prints one aligned table row: label then values in Mbps.
void print_row(const std::string& label, const std::vector<double>& mbps);
void print_header(const std::string& xlabel,
                  const std::vector<std::string>& series);

}  // namespace bench
}  // namespace mptcp
