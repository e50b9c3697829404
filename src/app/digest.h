// Determinism digest: a fixed-seed scenario run with every packet that
// crosses a tapped link folded, in delivery order, into one
// order-sensitive 64-bit hash, together with what the applications saw
// (bytes received, flow and request outcomes).
//
// The simulator is a deterministic discrete-event system: same build +
// same seed must produce byte-identical event streams. CI runs each
// scenario twice and compares digests; any nondeterminism (iteration over
// pointer-keyed containers, uninitialised reads, wall-clock leakage into
// the simulation) shows up as a digest mismatch long before it produces a
// flaky test.
//
// The digest pins behaviour, not the stats export: adding, renaming or
// removing a counter leaves it unchanged. The export's key set is
// reported separately as the schema hash, which nothing pins; CI's
// run-twice diffs of the full stats JSON catch counter nondeterminism.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/scheduler.h"
#include "sim/event_loop.h"

namespace mptcp {

/// Which fixed-seed scenario to hash.
enum class DigestScenario : uint8_t {
  kTwoHost,    ///< Fig. 6 shape: WiFi + weak lossy 3G, one bulk transfer
  kCapacity,   ///< scale-out shape: multi-host workload over shared
               ///< bottlenecks (sim/topology.h + app/workload.h)
  kPingPong,   ///< two hosts, sequential fetches; with shards=2 the link
               ///< crosses a shard boundary and the digest must equal the
               ///< shards=1 reference (epoch-barrier lockstep check)
  kFleet,      ///< small heterogeneous fleet (app/fleet.h): middleboxes,
               ///< mobility events, per-island workloads. Folds per-island
               ///< tap hashes + fleet aggregates only, so the digest must
               ///< be identical for any shard count (islands are
               ///< shard-local by construction)
  kServing,    ///< layered serving stack: open-loop framed requests over
               ///< connection pools against an overload-aware ServerApp
               ///< (app/server_app.h + app/client_pool.h), heavy-tailed
               ///< sizes, single-loop, bottlenecks tapped
};

struct DigestConfig {
  uint64_t seed = 1;
  SimTime duration = 5 * kSecond;
  double loss = 0.02;  ///< Bernoulli loss on the weak 3G path (kTwoHost)
  DigestScenario scenario = DigestScenario::kTwoHost;
  /// Packet scheduling policy for every MPTCP connection in the scenario.
  /// The per-policy digests are the refactoring safety net: a send-path
  /// change that claims to be behavior-preserving must reproduce the
  /// recorded digest for each pre-existing policy bit for bit.
  SchedulerPolicy scheduler = SchedulerPolicy::kLowestRtt;
  /// 0 = the single-loop legacy paths (digests pinned bit-for-bit by
  /// tests). >= 1 = the sharded variants driven by ShardedEngine: the
  /// capacity scenario becomes a cell ring with cross-shard traffic
  /// (deterministic for a *fixed* shard count), the ping-pong scenario
  /// produces the same digest for any shard count.
  size_t shards = 0;
};

struct DigestResult {
  /// FNV-1a 64 over the tapped packet streams plus the applications'
  /// outcomes. The pinned contract.
  uint64_t digest = 0;
  /// FNV-1a 64 over the distinct stats key names, with the instance,
  /// shard and subflow numbers a run picks removed. Reported, not pinned:
  /// it moves when a counter is added or renamed (and, in the fleet
  /// scenario, with the seed, which draws the islands' paths), but not
  /// with the shard count.
  uint64_t schema = 0;
  uint64_t packets_hashed = 0;  ///< link crossings folded into the digest
  uint64_t bytes_delivered = 0;
  std::string stats_json;       ///< the run's full stats export
};

/// Runs the configured scenario and returns the digest. Deterministic by
/// contract: same build + same config => same digest.
DigestResult run_digest_scenario(const DigestConfig& cfg = {});

/// 16-digit lowercase hex rendering of a digest.
std::string digest_hex(uint64_t digest);

/// A stats key with the parts a run picks removed: a scope's "#<n>"
/// instance and "@s<k>" shard suffixes (net/stats.h, StatsOut), and the
/// subflow id in ".sf<id>". What is left names what the key measures,
/// whatever instances and shards the run used (the schema hash is over
/// these).
std::string canonical_key(std::string_view key);

/// A merged stats export in a form that does not depend on the shard
/// count, for checking that one simulation split over 1 and N shards
/// measured the same. Three kinds of key:
///   * execution-dependent (the thread-local payload pool, the loops'
///     own sim.* bookkeeping; links and routers stay): dropped;
///   * per-connection (mptcp.client / mptcp.server): the same connection
///     gets other run-picked numbers under another shard split, so each
///     canonical key holds the sorted values of all of them -- exact and
///     permutation-invariant;
///   * everything else (link/router counters, workload metrics, summed
///     tcp.* counters): compared exactly under its canonical key.
struct CanonicalStats {
  std::map<std::string, double> exact;
  std::map<std::string, std::vector<double>> per_conn;
};
CanonicalStats canonicalize(const std::map<std::string, double>& merged);

}  // namespace mptcp
