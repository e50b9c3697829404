// Fleet-scale Internet realism: thousands of heterogeneous client
// "islands" drawn from configurable distributions, run as one sharded
// simulation, reported as population-level metrics.
//
// The paper's evaluation argues deployability from *populations*, not
// single links: what fraction of the Internet's middleboxes strip MPTCP
// options (fallback rate), how often do the safety mechanisms M1-M4
// fire, what does the goodput/FCT distribution look like when paths,
// RTTs and losses vary by orders of magnitude. A FleetSpec describes
// those distributions; sample_fleet() draws a deterministic population
// from them; FleetEngine lowers every client onto a declarative
// ScenarioSpec island (client -- K paths -- gateway -- ideal wire --
// server), attaches the sampled middleboxes (SYN option strippers,
// NATs, DSS-checksum-corrupting proxies), schedules the sampled
// mobility events (WiFi->3G make-before-break handover, REMOVE_ADDR
// storms, NAT rebinding mid-connection), and drives the whole fleet
// through the sharded engine.
//
// Determinism contract: sample_fleet() depends only on the seed and the
// distribution knobs -- NEVER on the shard count -- via per-client PRNG
// streams in fixed client-index order. Every island is pinned whole to
// one shard (ScenarioSpec::kAutoShard, i.e. shard_for_token on the
// island prefix), so islands never exchange packets across shards and
// the per-island packet streams are bit-identical for any shard count;
// `sim_digest --scenario fleet` folds per-island tap hashes in island
// order and must produce the same digest for --shards 1/2/4.
#pragma once

#include <memory>
#include <vector>

#include "app/scenario.h"

namespace mptcp {

/// The population's distribution knobs. Middlebox prevalences and
/// mobility rates are probabilities per path / per client.
struct FleetSpec {
  size_t clients = 2000;
  uint64_t seed = 1;
  size_t shards = 1;
  SimTime duration = 5 * kSecond;

  /// Path-count mix: relative weights of 1-, 2- and 3-homed clients.
  double w_single = 0.25;
  double w_dual = 0.55;
  double w_triple = 0.20;

  /// Per-path access rate, log-uniform in [rate_min_bps, rate_max_bps].
  double rate_min_bps = 2e6;
  double rate_max_bps = 100e6;
  /// Per-path RTT, log-uniform in [rtt_min, rtt_max].
  SimTime rtt_min = 10 * kMillisecond;
  SimTime rtt_max = 200 * kMillisecond;
  /// Per-path loss, uniform in [0, loss_max].
  double loss_max = 0.005;
  /// Fraction of access links with bufferbloat: the queue holds
  /// bloat_queue_delay at line rate instead of 2 RTTs. Deep cellular
  /// buffers are the condition M4's cwnd cap bounds (paper section 4.2).
  double p_bloat = 0.25;
  SimTime bloat_queue_delay = 1500 * kMillisecond;

  /// Middlebox prevalence per path (section 3's gauntlet, fleet-wide).
  double p_stripper = 0.0;   ///< SYN MPTCP-option stripper -> fallback
  double p_nat = 0.0;        ///< address/port rewriting NAT
  double p_corrupter = 0.0;  ///< payload-rewriting proxy (DSS checksum)
  uint64_t corrupt_interval = 200;  ///< corrupt every Nth data segment

  /// Mobility, per client: probability the event is scheduled at all
  /// (its time is drawn from the client's stream inside the run).
  double p_handover = 0.0;  ///< multihomed only: path 0 goes away
  double p_storm = 0.0;     ///< REMOVE_ADDR churn on address 1
  double p_rebind = 0.0;    ///< NAT rebinding (needs a NAT'd join path)

  /// Packet scheduling policy for every connection in the fleet (tests
  /// use kRedundant, whose per-subflow cursors make state-hygiene
  /// violations observable across address churn).
  SchedulerPolicy scheduler = SchedulerPolicy::kLowestRtt;

  /// Island-to-shard policy. kTokenHash pins each island by
  /// shard_for_token(prefix + "client") -- stable across fleet sizes and
  /// the policy behind the pinned fleet digest. kGreedy feeds the
  /// islands (weight 1 + path count, no edges: islands never talk) to
  /// the greedy partitioner (sim/placement.h), trading token stability
  /// for tight weight balance on skewed path-count mixes.
  enum class Placement : uint8_t { kTokenHash, kGreedy };
  Placement placement = Placement::kTokenHash;

  /// Per-client workload (one class per island).
  double arrival_rate_hz = 2.0;
  uint64_t mean_size = 50 * 1000;
  size_t persistent_per_client = 1;

  /// Serving-stack mode (app/server_app.h + app/client_pool.h): when
  /// serving_rate_hz > 0 every island switches from the legacy
  /// connection-per-transfer closed loop to open-loop framed requests
  /// with heavy-tailed Pareto sizes over a persistent connection pool,
  /// against an overload-aware island server. Off by default -- the
  /// pinned fleet digest covers the legacy mode and these knobs leave
  /// it untouched at zero.
  double serving_rate_hz = 0.0;     ///< open-loop requests per client
  size_t serving_max_inflight = 0;  ///< island-server admission cap
};

/// One sampled access path of one client.
struct PathProfile {
  double rate_bps = 10e6;
  SimTime rtt = 20 * kMillisecond;
  double loss = 0.0;
  bool bloat = false;
  bool stripper = false;
  bool nat = false;
  bool corrupter = false;
};

/// One sampled client. Event times of 0 mean "not scheduled".
struct ClientProfile {
  uint64_t index = 0;
  std::vector<PathProfile> paths;
  SimTime handover_at = 0;
  SimTime storm_at = 0;
  size_t storm_rounds = 0;
  SimTime rebind_at = 0;
};

/// Draws the population. Deterministic in (seed, clients, distribution
/// knobs); independent of spec.shards by construction -- each client
/// consumes its own splitmix-derived stream, in client-index order.
std::vector<ClientProfile> sample_fleet(const FleetSpec& spec);

/// Fleet-wide outcome of one run. Counter semantics: `connections`
/// counts client-side MPTCP connections whose final state was inspected
/// (finished flows plus the end-of-run sweep of still-open ones);
/// `fallbacks` counts those that ended in MptcpMode::kFallbackTcp. The
/// mechanism counters (m1..m4, checksum failures, resets) sum *both*
/// endpoints -- the server is the data sender here, so most sender-side
/// mechanism activity lives on its connections.
struct FleetMetrics {
  uint64_t flows_started = 0;
  uint64_t flows_completed = 0;
  uint64_t flows_errored = 0;
  uint64_t bytes_received = 0;

  uint64_t connections = 0;
  uint64_t fallbacks = 0;
  uint64_t m1_opportunistic_rtx = 0;
  uint64_t m2_penalizations = 0;
  uint64_t m3_autotune_resizes = 0;
  uint64_t m4_cap_activations = 0;
  uint64_t checksum_failures = 0;
  uint64_t subflow_resets = 0;

  uint64_t handovers = 0;
  uint64_t storm_removals = 0;
  uint64_t nat_rebinds = 0;

  uint64_t fct_samples = 0;
  uint64_t fct_p50_us = 0;
  uint64_t fct_p99_us = 0;

  double fallback_rate() const {
    return connections == 0
               ? 0.0
               : static_cast<double>(fallbacks) / static_cast<double>(connections);
  }
};

/// Builds and drives the fleet. Construction samples the population and
/// lowers it onto a ScenarioSpec; run() starts the workloads, schedules
/// the mobility events and drives the sharded engine to spec.duration.
class FleetEngine {
 public:
  explicit FleetEngine(const FleetSpec& spec);
  ~FleetEngine();

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  Topology& topo();

  /// Runs the whole fleet to spec.duration and finalizes metrics
  /// (including the deterministic sweep of still-open connections).
  void run();

  /// Valid after run(). Percentiles merge every shard's samples.
  FleetMetrics metrics() const;

  // --- introspection (digest taps, tests, self-checks) -------------------
  size_t island_count() const { return islands_.size(); }
  const ClientProfile& profile(size_t i) const { return profiles_[i]; }
  size_t island_shard(size_t i) const { return islands_[i].shard; }
  /// Link index of island i's gateway--server wire (every byte of the
  /// island crosses it exactly once per direction).
  size_t island_server_link(size_t i) const {
    return islands_[i].shape.server_link;
  }
  WorkloadEngine& island_engine(size_t i);
  Nat* island_nat(size_t i, size_t k);

  /// Islands pinned per shard, in shard order.
  std::vector<size_t> shard_occupancy() const;
  /// Self-check: no shard holds more than (1 + tolerance) or less than
  /// (1 - tolerance) times the mean island count.
  bool shards_balanced(double tolerance = 0.5) const;

 private:
  struct Island {
    TwoHostShape shape;
    size_t shard = 0;
    size_t engine_idx = 0;
    /// Middlebox handle per path (SIZE_MAX = none of that kind).
    std::vector<size_t> nat_handle;
  };

  /// Per-shard outcome accumulator; only the owning shard's thread
  /// writes it during the run, the main thread reads after the join.
  struct ShardAcc {
    uint64_t completed = 0;
    uint64_t errored = 0;
    uint64_t bytes = 0;
    uint64_t connections = 0;
    uint64_t fallbacks = 0;
    uint64_t m1 = 0, m2 = 0, m3 = 0, m4 = 0;
    uint64_t checksum_failures = 0;
    uint64_t subflow_resets = 0;
    uint64_t handovers = 0;
    uint64_t storm_removals = 0;
    uint64_t nat_rebinds = 0;
    std::vector<uint64_t> fct_us;
  };

  void record_flow(size_t shard, StreamSocket& s, const FlowReport& r);
  void fold_connection(ShardAcc& acc, MptcpConnection& conn);
  void fold_sender(ShardAcc& acc, MptcpConnection& conn);
  void do_handover(size_t island);
  void do_storm_remove(size_t island);
  void do_storm_readd(size_t island);
  void do_rebind(size_t island);
  void finalize();

  FleetSpec spec_;
  std::vector<ClientProfile> profiles_;
  std::vector<Island> islands_;
  std::vector<ShardAcc> accs_;  ///< indexed by shard
  std::unique_ptr<Scenario> scenario_;
  bool ran_ = false;
};

}  // namespace mptcp
