// Fleet-scenario contracts (app/fleet.h): sampling and digests must be
// shard-count-invariant, shard placement must stay balanced, and the
// sampled mobility events -- NAT rebinding, REMOVE_ADDR storms, WiFi->3G
// handover -- must leave connections healthy: re-established subflows,
// no app-visible data loss, path-map state back at baseline.
#include <gtest/gtest.h>

#include "app/digest.h"
#include "app/fleet.h"
#include "core/mptcp_connection.h"

namespace mptcp {
namespace {

bool same_profile(const ClientProfile& a, const ClientProfile& b) {
  if (a.index != b.index || a.paths.size() != b.paths.size() ||
      a.handover_at != b.handover_at || a.storm_at != b.storm_at ||
      a.storm_rounds != b.storm_rounds || a.rebind_at != b.rebind_at) {
    return false;
  }
  for (size_t k = 0; k < a.paths.size(); ++k) {
    const PathProfile& p = a.paths[k];
    const PathProfile& q = b.paths[k];
    if (p.rate_bps != q.rate_bps || p.rtt != q.rtt || p.loss != q.loss ||
        p.bloat != q.bloat || p.stripper != q.stripper || p.nat != q.nat ||
        p.corrupter != q.corrupter) {
      return false;
    }
  }
  return true;
}

FleetSpec mobility_spec() {
  // Every client dual-homed so every mobility event is eligible; all
  // event probabilities off by default -- each test turns on exactly one.
  FleetSpec spec;
  spec.clients = 4;
  spec.seed = 7;
  spec.shards = 1;
  spec.duration = 5 * kSecond;
  spec.w_single = 0.0;
  spec.w_dual = 1.0;
  spec.w_triple = 0.0;
  spec.loss_max = 0.0;
  spec.p_bloat = 0.0;
  spec.arrival_rate_hz = 1.0;
  spec.mean_size = 20 * 1000;
  spec.persistent_per_client = 1;
  return spec;
}

TEST(FleetSampling, IndependentOfShardCount) {
  FleetSpec base;
  base.clients = 200;
  base.seed = 42;
  base.p_stripper = 0.2;
  base.p_nat = 0.3;
  base.p_corrupter = 0.1;
  base.p_handover = 0.2;
  base.p_storm = 0.2;
  base.p_rebind = 0.4;

  const auto one = sample_fleet(base);
  for (size_t shards : {2u, 4u}) {
    FleetSpec s = base;
    s.shards = shards;
    const auto many = sample_fleet(s);
    ASSERT_EQ(many.size(), one.size());
    for (size_t i = 0; i < one.size(); ++i) {
      EXPECT_TRUE(same_profile(one[i], many[i]))
          << "client " << i << " re-drawn at shards=" << shards;
    }
  }

  // And the draw really is seeded: a different seed re-draws the fleet.
  FleetSpec other = base;
  other.seed = 43;
  const auto redrawn = sample_fleet(other);
  bool any_diff = false;
  for (size_t i = 0; i < one.size(); ++i) {
    any_diff |= !same_profile(one[i], redrawn[i]);
  }
  EXPECT_TRUE(any_diff);
}

TEST(FleetSampling, DigestIdenticalAcrossShardCounts) {
  DigestConfig cfg;
  cfg.scenario = DigestScenario::kFleet;
  cfg.seed = 5;
  cfg.duration = 1500 * kMillisecond;

  cfg.shards = 1;
  const DigestResult one = run_digest_scenario(cfg);
  ASSERT_GT(one.packets_hashed, 0u);
  for (size_t shards : {2u, 4u}) {
    cfg.shards = shards;
    const DigestResult many = run_digest_scenario(cfg);
    EXPECT_EQ(many.digest, one.digest) << "shards=" << shards;
    EXPECT_EQ(many.packets_hashed, one.packets_hashed);
    EXPECT_EQ(many.bytes_delivered, one.bytes_delivered);
  }
}

TEST(FleetSampling, IslandPlacementBalancedAcrossShards) {
  FleetSpec spec;
  spec.clients = 64;
  spec.shards = 4;
  FleetEngine fleet(spec);
  const auto occ = fleet.shard_occupancy();
  ASSERT_EQ(occ.size(), 4u);
  size_t total = 0;
  for (size_t c : occ) total += c;
  EXPECT_EQ(total, 64u);
  EXPECT_TRUE(fleet.shards_balanced());
}

TEST(FleetSampling, GreedyPlacementBalancedAndDeterministic) {
  // kGreedy feeds the islands to the edge-cut partitioner as isolated
  // weighted units (1 + path count); with no edges the placement
  // degenerates to deterministic weighted balancing, so it must beat the
  // token hash's statistical balance and reproduce exactly run to run.
  FleetSpec spec;
  spec.clients = 64;
  spec.shards = 4;
  spec.placement = FleetSpec::Placement::kGreedy;
  FleetEngine fleet(spec);
  const auto occ = fleet.shard_occupancy();
  ASSERT_EQ(occ.size(), 4u);
  size_t total = 0;
  for (size_t c : occ) total += c;
  EXPECT_EQ(total, 64u);
  EXPECT_TRUE(fleet.shards_balanced(/*tolerance=*/0.3));

  FleetEngine again(spec);
  for (size_t i = 0; i < fleet.island_count(); ++i) {
    EXPECT_EQ(fleet.island_shard(i), again.island_shard(i)) << i;
  }
}

TEST(FleetMobility, NatRebindReestablishesSubflowsWithoutDataLoss) {
  FleetSpec spec = mobility_spec();
  spec.p_nat = 1.0;
  spec.p_rebind = 1.0;

  FleetEngine fleet(spec);
  const ClientProfile& p0 = fleet.profile(0);
  ASSERT_GT(p0.rebind_at, 0u);

  // Sample island 0's delivered bytes just before its rebind; progress
  // past that afterwards proves the re-established subflows carry data.
  uint64_t bytes_before_rebind = 0;
  fleet.topo()
      .loop(fleet.island_shard(0))
      .schedule_in(p0.rebind_at - 1, [&] {
        bytes_before_rebind = fleet.island_engine(0).bytes_received(0);
      });
  fleet.run();

  const FleetMetrics m = fleet.metrics();
  EXPECT_GE(m.nat_rebinds, 2u);  // both of client 0's paths are NAT'd
  EXPECT_EQ(m.flows_errored, 0u) << "rebind lost data";
  EXPECT_GT(m.flows_completed, 0u);
  EXPECT_GT(fleet.island_engine(0).bytes_received(0), bytes_before_rebind)
      << "island 0 made no progress after its NAT forgot the mappings";
}

TEST(FleetMobility, RemoveAddrStormReturnsPathStateToBaseline) {
  FleetSpec spec = mobility_spec();
  spec.p_storm = 1.0;
  // The redundant policy keeps per-subflow scheduler state (a stream
  // cursor in each subflow), the case a leaked subflow would hide most.
  spec.scheduler = SchedulerPolicy::kRedundant;

  FleetEngine fleet(spec);
  fleet.run();

  const FleetMetrics m = fleet.metrics();
  EXPECT_GE(m.storm_removals, spec.clients);
  EXPECT_EQ(m.flows_errored, 0u);

  // Every surviving MPTCP connection must be back at the dual-homed
  // baseline: two subflows, both usable -- the REMOVE_ADDR/re-add cycles
  // may not leave dead subflows (and their per-subflow state) behind
  // (same hygiene contract as the churn test in test_topology.cc,
  // applied to address storms).
  size_t inspected = 0;
  for (size_t i = 0; i < fleet.island_count(); ++i) {
    fleet.island_engine(i).for_each_open_socket(
        [&](StreamSocket& s, const FlowReport&) {
          auto* conn = dynamic_cast<MptcpConnection*>(&s);
          if (conn == nullptr || conn->mode() != MptcpMode::kMptcp) return;
          ++inspected;
          EXPECT_EQ(conn->usable_subflow_count(), 2u)
              << "island " << i << ": storm did not restore the subflow";
          EXPECT_EQ(conn->subflow_count(), 2u)
              << "island " << i << ": storm left dead subflows listed";
        });
  }
  EXPECT_GT(inspected, 0u) << "no live MPTCP connections to inspect";
}

TEST(FleetMobility, HandoverIsMakeBeforeBreak) {
  FleetSpec spec = mobility_spec();
  spec.p_handover = 1.0;

  FleetEngine fleet(spec);
  const ClientProfile& p0 = fleet.profile(0);
  ASSERT_GT(p0.handover_at, 0u);

  // Sample island 0's delivered bytes in 200 ms windows spanning the
  // handover. Make-before-break means every window makes progress: the
  // surviving path carries the stream with no app-visible gap.
  std::vector<uint64_t> samples;
  EventLoop& loop = fleet.topo().loop(fleet.island_shard(0));
  for (int w = -1; w <= 4; ++w) {
    loop.schedule_in(p0.handover_at + w * (200 * kMillisecond), [&] {
      samples.push_back(fleet.island_engine(0).bytes_received(0));
    });
  }
  fleet.run();

  const FleetMetrics m = fleet.metrics();
  EXPECT_GE(m.handovers, spec.clients);
  EXPECT_EQ(m.flows_errored, 0u);
  ASSERT_EQ(samples.size(), 6u);
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i], samples[i - 1])
        << "delivery stalled in the 200 ms window ending "
        << (static_cast<int>(i) - 1) * 200 << " ms after the handover";
  }
}

}  // namespace
}  // namespace mptcp
