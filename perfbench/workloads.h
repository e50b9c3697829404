// The benchmark's four workloads, behind one small lifecycle interface so
// perfbench.cc can time every phase the same way for each of them.
//
// Every workload is a fixed simulated horizon with open-loop arrivals in
// simulated time: a slower build sees exactly the same simulated load and
// simply takes longer to advance it. Inputs derive from the seed alone.
// The fleet and cross_shard horizons are short enough that one repetition
// takes 2-3 CPU seconds on a 4-vCPU host, so a 50 s run holds more than a
// dozen repetitions for run.py's per-slice minimum to choose from.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_loop.h"
#include "sim/topology.h"

namespace perfbench {

/// Simulated outcome of one run; everything here is a pure function of
/// (workload, scale, seed) and must not depend on tracing or shard count.
struct Outcome {
  uint64_t flows_completed = 0;
  uint64_t requests_completed = 0;
  uint64_t bytes_delivered = 0;  ///< application bytes received by clients
  uint64_t fallbacks = 0;
  uint64_t fct_p50_us = 0;  ///< simulated flow/request completion times
  uint64_t fct_p99_us = 0;
  uint64_t pkt_hops = 0;  ///< link deliveries, every direction
};

/// Operation accounting: flows plus requests started, and the ones that
/// errored, were reset, or were rejected by an overloaded server.
struct Ops {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;  ///< subset of failed: server 503s
};

/// MPTCP-layer counters. Mechanism counters come from the fleet's own
/// per-connection fold where the fleet runs; elsewhere from a sweep of
/// the connections still open when the horizon is reached.
struct CoreCounters {
  uint64_t connections = 0;
  uint64_t dss_mappings = 0;
  uint64_t scheduler_picks = 0;
  uint64_t data_ack_advances = 0;
  uint64_t reinjected_bytes = 0;
  uint64_t m1 = 0, m2 = 0, m3 = 0, m4 = 0;
  uint64_t checksum_failures = 0;
  uint64_t subflow_resets = 0;
};

struct ShardCounters {
  uint64_t epochs = 0;
  uint64_t drain_skips = 0;
  uint64_t handoff_packets = 0;
  uint64_t handoff_spills = 0;
  uint64_t ring_resizes = 0;
};

/// CPU seconds used so far by every thread of this process. Unlike the wall
/// clock it excludes time the process waits for a core, including time a
/// hypervisor steals from the virtual CPU, so on a shared host it measures
/// the program rather than its neighbours.
double cpu_seconds();

/// Wall and process CPU time of one simulated slice.
struct SliceTime {
  double wall_s = 0;
  double cpu_s = 0;
};

struct WorkloadOptions {
  uint64_t seed = 1;
  bool reduced = false;  ///< small variant for the shard-identity test
  size_t shards = 0;     ///< 0 = the workload's own shard count
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Topology, routes and middlebox chains.
  virtual void build() = 0;
  /// Engine construction and start: everything up to the first event.
  virtual void start() = 0;
  /// Advances the whole horizon in fixed simulated slices, appending each
  /// slice's wall and CPU time to `slices` and calling `at_boundary`
  /// between slices (with nothing running).
  virtual void run(std::vector<SliceTime>& slices,
                   const std::function<void()>& at_boundary);
  /// Called at slice boundaries in traced runs: tracks live-state maxima.
  virtual void sample() {}

  virtual mptcp::SimTime horizon() const = 0;
  virtual mptcp::Topology& topo() = 0;
  virtual Outcome outcome() = 0;
  virtual Ops ops() = 0;
  virtual CoreCounters core() = 0;
  virtual ShardCounters shard() { return {}; }
  virtual uint64_t peak_connections() = 0;
  virtual uint64_t requests_outstanding_max() const { return 0; }
  virtual uint64_t meta_buffer_bytes_max() const { return meta_max_; }
  /// The workload's own outcome check after the horizon; empty = passed.
  virtual std::string self_check() = 0;

  /// Teardown in two timed halves: engines (sockets, apps) first, then
  /// the topology (nodes, links, loops).
  virtual void destroy_engine() = 0;
  virtual void destroy_topology() = 0;

 protected:
  /// Advances simulated time to `t`, a slice boundary (the default run()).
  virtual void advance(mptcp::SimTime) {}

  uint64_t meta_max_ = 0;
};

/// Creates a workload by name ("bulk_5k", "serving", "fleet",
/// "cross_shard"); null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& opt);

}  // namespace perfbench
