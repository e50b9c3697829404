// Scheduler subsystem tests (core/scheduler.h).
//
// Two halves:
//  * The equivalence suite: fixed-seed determinism digests for every
//    pre-existing policy, in both digest scenarios. These constants are
//    the refactoring safety net -- a send-path change that claims to be
//    behavior-preserving must reproduce every one of them bit for bit.
//    A digest covers the tapped packet streams and what the applications
//    saw, not the stats export, so adding or renaming a counter leaves
//    it unchanged. The constants hold across gcc/clang, Debug/Release
//    and the sanitizer builds: the build uses no -march/-ffast-math, so
//    IEEE double arithmetic is identical, and compiling out the payload
//    pool under the sanitizers moves only its own counters.
//  * Behavior tests for the backup-aware policy, the one policy the old
//    monolith could not express: MP_PRIO priorities still rank the paths,
//    but data spills to a backup whenever every primary is blocked.
#include <gtest/gtest.h>

#include <memory>

#include "app/bulk_app.h"
#include "app/digest.h"
#include "app/scenario.h"
#include "app/workload.h"
#include "core/mptcp_stack.h"
#include "core/scheduler.h"

namespace mptcp {
namespace {

// --- equivalence suite ------------------------------------------------------

DigestResult expect_digest(DigestScenario scenario, SchedulerPolicy policy,
                           uint64_t digest, uint64_t packets) {
  DigestConfig cfg;  // seed 1, 5 s -- the recorded baseline configuration
  cfg.scenario = scenario;
  cfg.scheduler = policy;
  const DigestResult r = run_digest_scenario(cfg);
  EXPECT_EQ(digest_hex(r.digest), digest_hex(digest))
      << "packet stream diverged from the pre-refactor scheduler under "
      << to_string(policy);
  EXPECT_EQ(r.packets_hashed, packets);
  EXPECT_GT(r.bytes_delivered, 0u);
  return r;
}

TEST(SchedulerEquivalence, TwoHostLowestRtt) {
  expect_digest(DigestScenario::kTwoHost, SchedulerPolicy::kLowestRtt,
                0x8ba1d1696b0563f2ULL, 4917);
}

TEST(SchedulerEquivalence, TwoHostRoundRobin) {
  // Identical to the lowest-RTT digest: on this seed the weak 3G subflow
  // never has window space at pick time, so both policies make the same
  // choices. The capacity scenario below does tell them apart.
  const DigestResult rr =
      expect_digest(DigestScenario::kTwoHost, SchedulerPolicy::kRoundRobin,
                    0x8ba1d1696b0563f2ULL, 4917);
  // The stats keys name the policy (<conn>.sched.<policy>.*), so the
  // schema differs while the pinned digest does not.
  DigestConfig cfg;
  cfg.scheduler = SchedulerPolicy::kLowestRtt;
  const DigestResult lowest = run_digest_scenario(cfg);
  EXPECT_EQ(digest_hex(rr.digest), digest_hex(lowest.digest));
  EXPECT_NE(digest_hex(rr.schema), digest_hex(lowest.schema));
}

TEST(SchedulerEquivalence, TwoHostRedundant) {
  expect_digest(DigestScenario::kTwoHost, SchedulerPolicy::kRedundant,
                0x93eb1e464cc0584fULL, 4975);
}

TEST(SchedulerEquivalence, CapacityLowestRtt) {
  expect_digest(DigestScenario::kCapacity, SchedulerPolicy::kLowestRtt,
                0x63f5f366cf908aa0ULL, 250516);
}

TEST(SchedulerEquivalence, CapacityRoundRobin) {
  expect_digest(DigestScenario::kCapacity, SchedulerPolicy::kRoundRobin,
                0xc3434bef40f86c62ULL, 250409);
}

TEST(SchedulerEquivalence, CapacityRedundant) {
  expect_digest(DigestScenario::kCapacity, SchedulerPolicy::kRedundant,
                0x8263488c5c2f02c6ULL, 254137);
}

// --- policy objects ---------------------------------------------------------

TEST(SchedulerFactory, MakesEveryPolicy) {
  for (SchedulerPolicy p :
       {SchedulerPolicy::kLowestRtt, SchedulerPolicy::kRoundRobin,
        SchedulerPolicy::kRedundant, SchedulerPolicy::kBackupAware}) {
    auto s = Scheduler::make(p);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->policy(), p);
    EXPECT_EQ(s->allocs(), 0u);
    EXPECT_NE(to_string(p), "?");
  }
}

// --- backup-aware policy ----------------------------------------------------

struct BackupRig {
  explicit BackupRig(SchedulerPolicy policy) {
    MptcpConfig cfg;
    cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 300 * 1000;
    cfg.scheduler = policy;
    cs = std::make_unique<MptcpStack>(rig.client(), cfg);
    ss = std::make_unique<MptcpStack>(rig.server(), cfg);
    ss->listen(80, [this](MptcpConnection& c) {
      rx = std::make_unique<BulkReceiver>(c);
    });
    cc = &cs->connect(rig.client_addr(0), {rig.server_addr(), 80});
    tx = std::make_unique<BulkSender>(*cc, 0);
  }

  /// Demotes every subflow except subflow 0 (the WiFi path) to backup.
  void demote_secondary() {
    for (size_t i = 1; i < cc->subflow_count(); ++i) {
      cc->set_subflow_backup(i, true);
    }
  }

  TwoHostRig rig{{wifi_path(), threeg_path()}};
  std::unique_ptr<MptcpStack> cs, ss;
  MptcpConnection* cc = nullptr;
  std::unique_ptr<BulkSender> tx;
  std::unique_ptr<BulkReceiver> rx;
};

TEST(BackupAware, NeverPicksBackupWhileAPrimaryHasSpace) {
  // The connection itself runs lowest-RTT, which parks the demoted 3G
  // subflow -- so at every sampled instant the backup's window is open
  // while the cwnd-limited WiFi primary's is typically full. Probing a
  // standalone backup-aware policy against that live state exercises
  // both sides of its decision.
  BackupRig r(SchedulerPolicy::kLowestRtt);
  r.rig.loop().run_until(1 * kSecond);
  ASSERT_EQ(r.cc->subflow_count(), 2u);
  r.demote_secondary();

  // Sample the policy's selection at many instants of live send state:
  // whenever it picks a backup subflow, every usable primary must be out
  // of congestion window -- the invariant separating "spill on block"
  // from "ignore priorities".
  auto policy = Scheduler::make(SchedulerPolicy::kBackupAware);
  SchedulerHost& host = r.cc->scheduler_host();
  int backup_picks = 0;
  for (int step = 0; step < 400; ++step) {
    r.rig.loop().run_until(r.rig.loop().now() + 10 * kMillisecond);
    MptcpSubflow* sf = policy->pick(host, 1);
    if (sf == nullptr || !sf->backup()) continue;
    ++backup_picks;
    for (size_t i = 0; i < r.cc->subflow_count(); ++i) {
      MptcpSubflow* other = r.cc->subflow(i);
      if (!other->mptcp_usable() || other->backup()) continue;
      EXPECT_EQ(other->cwnd_space(), 0u)
          << "picked a backup while primary " << i << " had window space";
    }
  }
  // The WiFi primary is cwnd-limited on this path shape, so spills do
  // happen; a test that never exercised the branch would prove nothing.
  EXPECT_GT(backup_picks, 0);
}

TEST(BackupAware, SpillsToBackupWhereLowestRttIdlesIt) {
  // Same scenario under both policies: 3G demoted to backup early on.
  // lowest-RTT parks the backup entirely (only pre-demotion and control
  // bytes); backup-aware keeps it carrying data whenever WiFi's window
  // is full, so it must move strictly more data and deliver more bytes.
  uint64_t backup_bytes[2] = {0, 0};
  uint64_t delivered[2] = {0, 0};
  const SchedulerPolicy policies[2] = {SchedulerPolicy::kLowestRtt,
                                       SchedulerPolicy::kBackupAware};
  for (int i = 0; i < 2; ++i) {
    BackupRig r(policies[i]);
    r.rig.loop().run_until(500 * kMillisecond);
    ASSERT_EQ(r.cc->subflow_count(), 2u);
    r.demote_secondary();
    const uint64_t at_demote = r.cc->subflow(1)->stats().bytes_sent;
    r.rig.loop().run_until(10 * kSecond);
    backup_bytes[i] = r.cc->subflow(1)->stats().bytes_sent - at_demote;
    delivered[i] = r.rx->bytes_received();
    EXPECT_TRUE(r.rx->pattern_ok());
  }
  EXPECT_LT(backup_bytes[0], 60u * 1000u);   // lowest-RTT: backup idle
  EXPECT_GT(backup_bytes[1], 500u * 1000u);  // backup-aware: real spill
  EXPECT_GT(delivered[1], delivered[0]);
}

TEST(BackupAware, SelectableThroughTransportConfigAndWorkloadEngine) {
  // End-to-end: a workload class selects the policy purely through
  // TransportConfig; the per-policy stats keys prove the policy object
  // actually drove the send path of the engine's connections.
  CapacitySpec spec;
  spec.clients = 2;
  spec.servers = 1;
  spec.bottleneck_rate_bps = 200e6;
  CapacityTopology cap = build_capacity_topology(spec, /*seed=*/7);
  Topology& topo = *cap.topo;

  WorkloadConfig wc;
  wc.clients = cap.clients;
  wc.servers = cap.servers;
  wc.seed = 7;
  FlowClass cls;
  cls.name = "backup-aware";
  cls.arrival_rate_hz = 0;
  cls.persistent_per_client = 2;
  cls.transport.mptcp.scheduler = SchedulerPolicy::kBackupAware;
  cls.transport.mptcp.tcp.seed = 7;
  wc.classes.push_back(cls);

  WorkloadEngine engine(topo, wc);
  engine.start();
  topo.loop().run_until(3 * kSecond);

  EXPECT_GT(engine.bytes_received(0), 0u);
  double policy_allocs = 0;
  bool key_seen = false;
  for (const auto& [name, value] : topo.stats().flatten()) {
    if (name.find(".sched.backup-aware.allocs") != std::string::npos) {
      key_seen = true;
      policy_allocs += value;
    }
    EXPECT_EQ(name.find(".sched.lowest-rtt."), std::string::npos)
        << "a connection ran the default policy instead: " << name;
  }
  EXPECT_TRUE(key_seen) << "no per-policy scheduler keys exported";
  EXPECT_GT(policy_allocs, 0.0);
}

TEST(CongestionControl, FactorySelectsUncoupledNewReno) {
  // cc_algo is plumbed end to end: an uncoupled connection still moves data.
  TransportConfig tc;
  tc.mptcp.cc_algo = CcAlgo::kNewReno;
  tc.mptcp.scheduler = SchedulerPolicy::kLowestRtt;
  EXPECT_EQ(to_string(tc.mptcp.cc_algo), "new-reno");
  EXPECT_EQ(to_string(CcAlgo::kLia), "lia");

  TwoHostRig rig({wifi_path(), threeg_path()});
  MptcpStack cs(rig.client(), tc.mptcp), ss(rig.server(), tc.mptcp);
  std::unique_ptr<BulkReceiver> rx;
  ss.listen(80, [&](MptcpConnection& c) {
    rx = std::make_unique<BulkReceiver>(c);
  });
  MptcpConnection& cc =
      cs.connect(rig.client_addr(0), {rig.server_addr(), 80});
  BulkSender tx(cc, 0);
  rig.loop().run_until(3 * kSecond);
  EXPECT_GT(rx->bytes_received(), 500u * 1000u);
  EXPECT_TRUE(rx->pattern_ok());
}

TEST(RoundRobin, ReapedSubflowLeavesAGapInTheRotation) {
  // The rotation runs over subflow ids: when a closed subflow is
  // destroyed, the survivors keep their turns instead of shifting into
  // the dead one's position.
  BackupRig r(SchedulerPolicy::kRoundRobin);
  r.rig.loop().run_until(1 * kSecond);
  ASSERT_NE(r.cc->open_subflow(r.rig.client_addr(0), {r.rig.server_addr(), 80}),
            nullptr);
  r.rig.loop().run_until(2 * kSecond);
  ASSERT_EQ(r.cc->usable_subflow_count(), 3u);

  // min_space 0: every usable primary is a candidate, so the picks show
  // the rotation alone.
  auto rr = Scheduler::make(SchedulerPolicy::kRoundRobin);
  SchedulerHost& host = r.cc->scheduler_host();
  EXPECT_EQ(rr->pick(host, 0)->id(), 0u);
  EXPECT_EQ(rr->pick(host, 0)->id(), 1u);
  r.cc->subflow(1)->abort();
  r.rig.loop().run_until(r.rig.loop().now() + kMillisecond);
  ASSERT_EQ(r.cc->subflow_count(), 2u);
  EXPECT_EQ(rr->pick(host, 0)->id(), 2u);
  EXPECT_EQ(rr->pick(host, 0)->id(), 0u);
}

}  // namespace
}  // namespace mptcp
