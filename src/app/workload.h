// Many-connection workload engine: open-loop traffic over a Topology.
//
// The WorkloadEngine models *load*, not a fixed client count, in one of
// two per-class application modes:
//
//  * kConnectionPerTransfer (the legacy shape): each class opens new
//    connections from every client host as a Poisson process, draws a
//    flow size from a configurable distribution, fetches that many bytes
//    from a round-robin-chosen server over a fresh connection, and
//    records the flow completion time. Classes can additionally pin
//    long-lived "persistent" connections open for the whole run, which
//    is how the capacity benchmark sustains thousands of concurrent
//    MPTCP connections over a shared bottleneck.
//
//  * kServing (the production serving stack): each (client, class) pair
//    keeps a ConnectionPool of persistent connections to one server
//    running a ServerApp, and *requests* -- not connections -- arrive
//    open-loop as a Poisson process with heavy-tailed (Pareto) response
//    sizes. Request FCTs, including pool queueing delay, land in a
//    fine-grained histogram whose p50/p99/p999 are the tail-latency SLO
//    numbers; server rejections (503s) are counted per class.
//    set_rate_scale() steps the request rate mid-run, which is how the
//    flash-crowd benchmark drives a x10 load spike.
//
// Every class carries its own TransportConfig (TCP vs MPTCP, buffer
// sizes, subflow policy); a client's flows bind its interfaces
// round-robin as the first-subflow source address. Everything is
// written against StreamSocket/SocketFactory; the engine never names a
// transport.
//
// Observability: each class exports "workload.<name>" through the
// engine's stats hook -- started/completed/errors/bytes counters, a
// power-of-two FCT histogram and its p50/p99 -- plus the engine's shared
// "workload" scope (concurrent and peak concurrent flows), all exported
// by Topology::dump_stats().
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "app/client_pool.h"
#include "app/http_app.h"
#include "app/server_app.h"
#include "app/socket_factory.h"
#include "sim/topology.h"

namespace mptcp {

/// One traffic class: arrival process, size distribution, transport.
struct FlowClass {
  std::string name = "default";
  /// Per-class transport selection, including the MPTCP send-path
  /// policies: classes in one workload can run different schedulers and
  /// congestion controllers side by side (e.g. `transport.mptcp.scheduler
  /// = SchedulerPolicy::kBackupAware` for one class, default lowest-RTT
  /// for another) -- each class gets its own factory per client host.
  TransportConfig transport;

  /// New-flow arrival rate per client host (Poisson; 0 = no churn).
  /// kConnectionPerTransfer only.
  double arrival_rate_hz = 10.0;

  enum class SizeDist : uint8_t { kFixed, kExponential, kPareto };
  SizeDist size_dist = SizeDist::kFixed;
  uint64_t mean_size = 100 * 1000;        ///< bytes fetched per flow
  uint64_t min_size = 1000;               ///< clamp for the random dists
  uint64_t max_size = 100 * 1000 * 1000;  ///< clamp for the random dists
  double pareto_alpha = 1.5;  ///< kPareto shape (heavier tail toward 1)

  /// Long-lived connections opened per client host at start(); they fetch
  /// an effectively infinite response and stay up for the whole run.
  /// kConnectionPerTransfer only.
  size_t persistent_per_client = 0;

  // --- serving-stack mode ---------------------------------------------

  enum class AppMode : uint8_t {
    kConnectionPerTransfer,  ///< legacy MPGET, one connection per flow
    kServing,                ///< open-loop requests over connection pools
  };
  AppMode app_mode = AppMode::kConnectionPerTransfer;

  /// Open-loop request arrival rate per client host (kServing; Poisson).
  double request_rate_hz = 100.0;
  /// Client pool shape for kServing (connections, mux limit, retry
  /// budget).
  PoolConfig pool;
  /// Server-side serving knobs for kServing (admission bounds,
  /// service-time model).
  ServingConfig server;
};

/// What the engine knows about one client-side flow when it hands the
/// socket to an observer (the completion hook, or the open-socket sweep
/// at the end of a run).
struct FlowReport {
  size_t cls = 0;          ///< class index within the engine
  bool ok = false;         ///< completed with exactly `want` bytes
  bool persistent = false;
  SimTime start = 0;       ///< launch time on the engine's loop
  uint64_t bytes = 0;      ///< received so far
};

struct WorkloadConfig {
  std::vector<NodeId> clients;
  std::vector<NodeId> servers;
  std::vector<FlowClass> classes;
  Port base_port = 8000;  ///< class k is served on base_port + k
  uint64_t seed = 1;

  /// Invoked as each client-side flow finishes, while its socket (and any
  /// per-connection transport state -- fallback mode, meta stats) is
  /// still alive; runs on this engine's shard thread. Population-level
  /// scenarios use it to fold per-connection outcomes into fleet-wide
  /// metrics that survive socket destruction.
  std::function<void(StreamSocket&, const FlowReport&)> on_flow_done;

  /// Invoked with each *server*-side connection just before the server
  /// closes it. The server is the data sender in this workload, so
  /// sender-side transport state (cwnd caps, send-buffer autotune) lives
  /// on these connections, not the client-side ones on_flow_done sees.
  std::function<void(StreamSocket&)> on_server_conn_done;

  /// Shard whose loop drives this engine's client side (arrival timers,
  /// flow bookkeeping, stats registration). Every client host must live
  /// in this shard; server hosts may live elsewhere -- their listeners
  /// run on their own shard's loop and traffic crosses through the
  /// topology's shard channels.
  size_t shard = 0;
  /// Prepended to every stats scope ("c3." -> "c3.workload.<class>...").
  /// Cell-structured scenarios use this to keep scopes globally unique,
  /// which makes the merged multi-shard export identical to a
  /// single-shard run of the same topology.
  std::string scope_prefix;
  /// Global client identities, parallel to `clients`. RNG streams and
  /// round-robin staggers derive from these instead of local indices, so
  /// a workload split across several engines draws the same per-client
  /// streams as one engine owning all of them. Empty = 0..N-1.
  std::vector<uint64_t> client_ids;
};

/// The canonical scale-out shape shared by the capacity benchmark, the
/// multi-host determinism digest and the topology tests: N dual-homed
/// client hosts fan into two aggregation routers whose uplinks to a core
/// router are the shared bottlenecks; M servers hang off the core.
///
///   client_i --access--> agg_a --bottleneck_a--> core --access--> server_j
///            \-access--> agg_b --bottleneck_b--/
///
/// Every client gets two addresses (one per aggregation side), so each
/// MPTCP connection can run one subflow per bottleneck.
struct CapacitySpec {
  size_t clients = 4;
  size_t servers = 2;
  double access_rate_bps = 1e9;
  SimTime access_delay = 200 * kMicrosecond;
  double bottleneck_rate_bps = 400e6;
  SimTime bottleneck_delay = 2 * kMillisecond;
  SimTime bottleneck_buffer_delay = 20 * kMillisecond;
};

struct CapacityTopology {
  std::unique_ptr<Topology> topo;
  std::vector<NodeId> clients;
  std::vector<NodeId> servers;
  NodeId agg_a = 0, agg_b = 0, core = 0;
  size_t bottleneck_a = 0, bottleneck_b = 0;  ///< link indices
};

/// Builds the topology above (routes already computed).
CapacityTopology build_capacity_topology(const CapacitySpec& spec,
                                         uint64_t seed);

/// Scale-out sharded shape: `cells` disjoint replicas of the capacity
/// cell above, cell j pinned to shard j % shards, optionally wired in a
/// ring through their core routers (the ring links are the cross-shard
/// handoff paths). The topology -- node set, link indices, loss seeds,
/// addresses, routes -- depends only on (spec, seed), never on the shard
/// count, which is what lets a sharded run reproduce the single-shard
/// run's simulated metrics exactly when traffic stays inside cells.
struct ShardedCapacitySpec {
  CapacitySpec cell;
  size_t cells = 4;
  /// Connect core[j] -> core[(j+1) % cells]; required for cross-cell
  /// traffic, and the source of the engine's epoch quantum (ring_delay).
  bool ring = true;
  double ring_rate_bps = 2e9;
  SimTime ring_delay = 5 * kMillisecond;
};

struct ShardedCapacity {
  std::unique_ptr<Topology> topo;
  struct Cell {
    std::vector<NodeId> clients;
    std::vector<NodeId> servers;
    NodeId agg_a = 0, agg_b = 0, core = 0;
    size_t bottleneck_a = 0, bottleneck_b = 0;  ///< link indices
  };
  std::vector<Cell> cells;
  std::vector<size_t> ring_links;  ///< cross-shard when shards > 1
};

ShardedCapacity build_sharded_capacity(const ShardedCapacitySpec& spec,
                                       uint64_t seed, size_t shards);

class WorkloadEngine;

/// Drives one WorkloadEngine per cell (each pinned to its cell's shard,
/// scoped "c<j>.", seeded by global client ids) and, when `cross` has
/// any load, a second engine per cell whose clients fetch from the *next*
/// cell's servers over the ring -- the traffic that exercises cross-shard
/// handoff. Aggregates roll up across cells.
class ShardedCapacityWorkload {
 public:
  ShardedCapacityWorkload(ShardedCapacity& net, const FlowClass& local,
                          const FlowClass& cross, uint64_t seed);

  void start();
  void stop();

  size_t concurrent() const;
  size_t peak_concurrent_sum() const;  ///< sum of per-engine peaks
  uint64_t total_completed() const;
  uint64_t total_errors() const;
  uint64_t bytes_received() const;
  size_t engine_count() const { return engines_.size(); }
  WorkloadEngine& engine(size_t i) { return *engines_[i]; }

 private:
  std::vector<std::unique_ptr<WorkloadEngine>> engines_;
};

class WorkloadEngine {
 public:
  WorkloadEngine(Topology& topo, WorkloadConfig cfg);
  ~WorkloadEngine();

  WorkloadEngine(const WorkloadEngine&) = delete;
  WorkloadEngine& operator=(const WorkloadEngine&) = delete;

  /// Installs the servers, opens persistent connections and starts the
  /// arrival processes.
  void start();
  /// Stops launching new flows; in-flight flows run to completion.
  void stop();

  // --- introspection (also exported through the stats registry) ---------
  uint64_t started(size_t cls) const { return classes_[cls].started; }
  uint64_t completed(size_t cls) const { return classes_[cls].completed; }
  uint64_t errors(size_t cls) const { return classes_[cls].errors; }
  uint64_t bytes_received(size_t cls) const { return classes_[cls].bytes; }
  const Histogram& fct_us(size_t cls) const { return classes_[cls].fct_us; }
  size_t class_count() const { return classes_.size(); }

  // --- serving-stack introspection (kServing classes) ------------------
  uint64_t requests_rejected(size_t cls) const {
    return classes_[cls].rejected;
  }
  /// Fine-grained request-FCT histogram (microseconds); null for
  /// kConnectionPerTransfer classes.
  const FineHistogram* request_fct_us(size_t cls) const {
    return classes_[cls].req_fct_us.get();
  }
  /// Requests submitted but not yet finished (on connections or queued in
  /// pools) for one class, across all client slots.
  size_t outstanding_requests(size_t cls) const;

  /// Scales one class's open-loop request rate by `scale` (> 0) from now
  /// on, re-arming every pending arrival clock: the flash-crowd step.
  void set_rate_scale(size_t cls, double scale);

  /// Client-side flows currently open, across all classes.
  size_t concurrent() const { return flows_.size(); }
  size_t peak_concurrent() const { return peak_concurrent_; }
  uint64_t total_completed() const;

  /// Exports "<prefix>workload.{concurrent,peak_concurrent}" (summed with
  /// other engines of the same prefix) and each class under
  /// "<prefix>workload.<class>".
  void publish_stats(StatsOut& out) const;

  /// Visits every still-open client-side flow in launch order (flows get
  /// monotonic ids; the map itself is pointer-keyed and unordered), so
  /// end-of-run sweeps over persistent connections are deterministic.
  void for_each_open_socket(
      const std::function<void(StreamSocket&, const FlowReport&)>& fn);

  /// Visits every still-open server-side connection (accept order within
  /// each (server, class) slot, slots in creation order).
  void for_each_open_server_conn(
      const std::function<void(StreamSocket&)>& fn);

 private:
  struct ClassState {
    FlowClass spec;
    uint64_t started = 0;
    uint64_t completed = 0;
    uint64_t errors = 0;
    uint64_t bytes = 0;
    Histogram fct_us;  ///< completion times, microseconds
    // Serving-stack extras (kServing only; their stats keys, and the
    // request-FCT histogram's memory, exist only for that mode).
    uint64_t rejected = 0;  ///< server answered a reject frame
    std::unique_ptr<FineHistogram> req_fct_us;  ///< request FCT, microseconds
    double rate_scale = 1.0;                    ///< flash-crowd multiplier
  };

  /// One (client host, class) pair: its transport factory, arrival clock
  /// and round-robin cursors; serving-mode slots own a connection pool.
  struct ClientSlot {
    WorkloadEngine* eng = nullptr;
    size_t cls = 0;
    NodeId node = 0;
    std::unique_ptr<SocketFactory> factory;
    std::unique_ptr<Timer> arrival;
    Rng rng{1};
    uint64_t gid = 0;  ///< global client id (RNG streams, server pinning)
    size_t next_server = 0;
    size_t next_local = 0;
    std::unique_ptr<ConnectionPool> pool;  ///< kServing
  };

  /// One open client-side flow.
  struct Flow {
    WorkloadEngine* eng = nullptr;
    size_t cls = 0;
    uint64_t id = 0;  ///< monotonic launch order, for deterministic sweeps
    StreamSocket* sock = nullptr;
    SimTime start = 0;
    uint64_t want = 0;
    uint64_t got = 0;
    bool persistent = false;
    bool done = false;
  };

  void schedule_arrival(ClientSlot& slot);
  void launch(ClientSlot& slot, bool persistent);
  uint64_t sample_size(const FlowClass& spec, Rng& rng);
  void drain(Flow& f);
  void finish(Flow& f, bool ok);
  void detach(Flow& f);  ///< clears socket callbacks and erases the flow

  // Serving-stack paths.
  /// Emits class `k`'s export values.
  void sample_class(size_t k, StatsOut& out) const;
  void start_serving_slot(ClientSlot& slot, uint64_t gid);
  void submit_request(ClientSlot& slot);
  void on_request_outcome(ClientSlot& slot, const RequestOutcome& out);

  Topology& topo_;
  WorkloadConfig cfg_;
  std::vector<ClassState> classes_;
  std::vector<std::unique_ptr<ClientSlot>> slots_;
  /// Server side: one factory per (server host, class), backing either
  /// the legacy MPGET server or a serving-stack ServerApp.
  struct ServerSlot {
    std::unique_ptr<SocketFactory> factory;
    std::unique_ptr<HttpServer> http;        ///< kConnectionPerTransfer
    std::unique_ptr<ServerApp> serving;      ///< kServing
  };
  std::vector<ServerSlot> servers_;
  std::unordered_map<Flow*, std::unique_ptr<Flow>> flows_;
  uint64_t next_flow_id_ = 0;
  size_t peak_concurrent_ = 0;
  bool started_ = false;
  bool stopped_ = false;
  StatsHook stats_hook_;  ///< last: dies first
};

}  // namespace mptcp
