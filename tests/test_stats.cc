// Observability layer: the stats registry itself, the counters the
// simulator / TCP / MPTCP layers publish into it, and the determinism
// digest built on top.
//
// The scenario tests deliberately assert *exact* counter values: every
// instrumented code path pairs its registry increment with the per-
// connection stats struct it always updated, so the registry totals must
// equal the struct sums -- that equality is the exactly-once proof.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "app/bulk_app.h"
#include "app/digest.h"
#include "app/harness.h"
#include "core/mptcp_stack.h"
#include "net/stats.h"

namespace mptcp {
namespace {

// ---------------------------------------------------------------------------
// Registry unit tests.
// ---------------------------------------------------------------------------

TEST(StatsRegistry, CounterGaugeHistogramBasics) {
  StatsRegistry reg;
  Counter& c = reg.counter("a.count");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(&reg.counter("a.count"), &c);  // create-on-first-use is stable

  Gauge& g = reg.gauge("a.level");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);

  Histogram& h = reg.histogram("a.sizes");
  h.record(0);
  h.record(1);
  h.record(5);
  h.record(1500);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1506u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1500u);
  EXPECT_EQ(h.bucket(0), 1u);  // the zero
  EXPECT_EQ(h.bucket(1), 1u);  // 1 in [1,2)
  EXPECT_EQ(h.bucket(3), 1u);  // 5 in [4,8)
  EXPECT_EQ(h.bucket(11), 1u);  // 1500 in [1024,2048)
  EXPECT_EQ(h.approx_percentile(1.0), 2048u);
}

TEST(StatsRegistry, SampledValuesAreLazy) {
  StatsRegistry reg;
  int calls = 0;
  reg.sampled("lazy.value", [&calls] {
    ++calls;
    return 3.5;
  });
  EXPECT_EQ(calls, 0);  // registration alone never samples
  EXPECT_DOUBLE_EQ(reg.value("lazy.value"), 3.5);
  EXPECT_EQ(calls, 1);
  (void)reg.flatten();
  EXPECT_EQ(calls, 2);
}

TEST(StatsRegistry, UniqueScopeAndHashSiblingRemoval) {
  StatsRegistry reg;
  const std::string s1 = reg.unique_scope("mptcp.client");
  const std::string s2 = reg.unique_scope("mptcp.client");
  EXPECT_EQ(s1, "mptcp.client");
  EXPECT_EQ(s2, "mptcp.client#2");

  reg.counter(s1 + ".picks").inc();
  reg.counter(s2 + ".picks").inc(5);
  reg.counter("mptcp.clientele");  // shares a prefix but is NOT a child

  // Removing the first instance's scope must not touch the second
  // instance ('#' sorts before '.', so "#2" entries interleave) nor the
  // lookalike prefix.
  EXPECT_EQ(reg.remove_scope(s1), 1u);
  EXPECT_FALSE(reg.contains(s1 + ".picks"));
  EXPECT_TRUE(reg.contains(s2 + ".picks"));
  EXPECT_TRUE(reg.contains("mptcp.clientele"));
  EXPECT_EQ(reg.value(s2 + ".picks"), 5.0);
}

TEST(StatsRegistry, SampledGroupExpandsLazilyAndRemovesAsOneEntry) {
  StatsRegistry reg;
  int calls = 0;
  uint64_t picks = 3;
  reg.sampled_group("mptcp.client", [&](SampleSink& out) {
    ++calls;
    out.emit("scheduler_picks", static_cast<double>(picks));
    out.emit("fallbacks", 1.0);
  });
  EXPECT_EQ(calls, 0);  // registration alone never samples
  EXPECT_EQ(reg.size(), 1u);  // the whole scope is ONE map entry

  // value() resolves "<scope>.<suffix>" through the group.
  EXPECT_DOUBLE_EQ(reg.value("mptcp.client.scheduler_picks"), 3.0);
  picks = 9;
  EXPECT_DOUBLE_EQ(reg.value("mptcp.client.scheduler_picks"), 9.0);
  EXPECT_DOUBLE_EQ(reg.value("mptcp.client.no_such_suffix"), 0.0);

  // flatten() expands the group into per-suffix keys.
  const auto flat = reg.flatten();
  EXPECT_DOUBLE_EQ(flat.at("mptcp.client.scheduler_picks"), 9.0);
  EXPECT_DOUBLE_EQ(flat.at("mptcp.client.fallbacks"), 1.0);
  EXPECT_EQ(flat.count("mptcp.client"), 0u);  // the scope itself is no key

  // remove_scope() drops the group with its single entry.
  EXPECT_EQ(reg.remove_scope("mptcp.client"), 1u);
  EXPECT_DOUBLE_EQ(reg.value("mptcp.client.scheduler_picks"), 0.0);
  EXPECT_EQ(reg.flatten().count("mptcp.client.scheduler_picks"), 0u);
}

TEST(StatsRegistry, JsonRoundTripsAndOmitsUnregistered) {
  StatsRegistry reg;
  reg.counter("z.count").inc(7);
  reg.gauge("a.gauge").set(-4);
  reg.histogram("m.hist").record(100);
  reg.sampled("s.val", [] { return 0.125; });

  const std::string json = reg.to_json();
  EXPECT_EQ(json.find("never_registered"), std::string::npos);

  const auto parsed = StatsRegistry::parse_flat_json(json);
  EXPECT_EQ(parsed, reg.flatten());
  EXPECT_DOUBLE_EQ(parsed.at("z.count"), 7.0);
  EXPECT_DOUBLE_EQ(parsed.at("a.gauge"), -4.0);
  EXPECT_DOUBLE_EQ(parsed.at("m.hist.count"), 1.0);
  EXPECT_DOUBLE_EQ(parsed.at("m.hist.sum"), 100.0);
  EXPECT_DOUBLE_EQ(parsed.at("s.val"), 0.125);
  // Unregistered names read as 0 and are absent from the export.
  EXPECT_DOUBLE_EQ(reg.value("never_registered"), 0.0);
  EXPECT_EQ(parsed.count("never_registered"), 0u);
}

// ---------------------------------------------------------------------------
// Simulator-layer counters.
// ---------------------------------------------------------------------------

TEST(StatsSim, EventLoopCountsScheduleCancelFire) {
  EventLoop loop;
  int fired = 0;
  loop.schedule_at(10, [&] { ++fired; });
  const auto id = loop.schedule_at(20, [&] { ++fired; });
  loop.schedule_at(30, [&] { ++fired; });
  loop.cancel(id);
  loop.run();

  EXPECT_EQ(fired, 2);
  EXPECT_EQ(loop.events_scheduled(), 3u);
  EXPECT_EQ(loop.events_cancelled(), 1u);
  EXPECT_EQ(loop.events_fired(), 2u);
  // The registry's sampled views read the same fields.
  EXPECT_DOUBLE_EQ(loop.stats().value("sim.events_scheduled"), 3.0);
  EXPECT_DOUBLE_EQ(loop.stats().value("sim.events_cancelled"), 1.0);
  EXPECT_DOUBLE_EQ(loop.stats().value("sim.events_fired"), 2.0);
}

TEST(StatsSim, LinksRegisterScopedStats) {
  TwoHostRig rig;
  rig.add_path(wifi_path());
  EXPECT_TRUE(rig.stats().contains("sim.link.wifi-up.delivered_pkts"));
  EXPECT_TRUE(rig.stats().contains("sim.link.wifi-down.delivered_pkts"));
  EXPECT_EQ(rig.up_link(0).stats_scope(), "sim.link.wifi-up");
}

// ---------------------------------------------------------------------------
// End-to-end counter semantics over a deterministic two-subflow run.
// ---------------------------------------------------------------------------

MptcpConfig default_cfg() {
  MptcpConfig cfg;
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 1024 * 1024;
  return cfg;
}

struct TwoSubflowRun {
  TwoSubflowRun(std::vector<PathSpec> paths, uint64_t transfer_bytes,
                SimTime duration, MptcpConfig cfg = default_cfg()) {
    for (const auto& p : paths) rig.add_path(p);
    client_stack = std::make_unique<MptcpStack>(rig.client(), cfg);
    server_stack = std::make_unique<MptcpStack>(rig.server(), cfg);
    server_stack->listen(80, [this](MptcpConnection& c) {
      server_conn = &c;
      receiver = std::make_unique<BulkReceiver>(c);
    });
    client_conn = &client_stack->connect(rig.client_addr(0),
                                         Endpoint{rig.server_addr(), 80});
    sender = std::make_unique<BulkSender>(*client_conn, transfer_bytes);
    rig.loop().run_until(duration);
  }

  uint64_t subflow_sum(MptcpConnection& conn,
                       uint64_t TcpConnection::Stats::*field) const {
    uint64_t sum = 0;
    for (size_t i = 0; i < conn.subflow_count(); ++i) {
      sum += conn.subflow(i)->stats().*field;
    }
    return sum;
  }

  TwoHostRig rig;
  std::unique_ptr<MptcpStack> client_stack;
  std::unique_ptr<MptcpStack> server_stack;
  MptcpConnection* client_conn = nullptr;
  MptcpConnection* server_conn = nullptr;
  std::unique_ptr<BulkSender> sender;
  std::unique_ptr<BulkReceiver> receiver;
};

TEST(StatsMptcp, LosslessTwoSubflowRunHasExactCounters) {
  constexpr uint64_t kBytes = 400 * 1000;
  // A 64 KB shared window keeps the wifi queue well below its 80 KB
  // drop-tail buffer, so the run is genuinely loss-free end to end; M1/M2
  // are off so no duplicate copies are ever injected.
  MptcpConfig cfg = default_cfg();
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 64 * 1024;
  cfg.opportunistic_retransmit = false;
  cfg.penalize_slow_subflows = false;
  // Initial subflow on the slow 3G path: its cwnd cannot swallow the
  // whole 64 KB window before the wifi join completes, so both subflows
  // are guaranteed to carry data.
  TwoSubflowRun f({threeg_path(), wifi_path()}, kBytes, 10 * kSecond, cfg);
  ASSERT_NE(f.server_conn, nullptr);
  ASSERT_EQ(f.receiver->bytes_received(), kBytes);
  StatsRegistry& reg = f.rig.stats();

  // Loss-free run: not a single drop, retransmission or RTO anywhere,
  // and no fallback. Exact zeros, not bounds.
  EXPECT_DOUBLE_EQ(reg.value("sim.link.wifi-up.dropped_overflow") +
                       reg.value("sim.link.wifi-down.dropped_overflow") +
                       reg.value("sim.link.3g-up.dropped_overflow") +
                       reg.value("sim.link.3g-down.dropped_overflow"),
                   0.0);
  EXPECT_DOUBLE_EQ(reg.value("tcp.retransmits"), 0.0);
  EXPECT_DOUBLE_EQ(reg.value("tcp.fast_retransmits"), 0.0);
  EXPECT_DOUBLE_EQ(reg.value("tcp.rto_firings"), 0.0);
  EXPECT_DOUBLE_EQ(reg.value("mptcp.client.fallbacks"), 0.0);
  EXPECT_DOUBLE_EQ(reg.value("mptcp.client.checksum_failures"), 0.0);

  // The server's meta socket delivered exactly the bytes the app wrote.
  EXPECT_DOUBLE_EQ(reg.value("mptcp.server.delivered_bytes"),
                   static_cast<double>(kBytes));

  // Scheduler picks == mappings emitted (no M1 reinjections without loss),
  // and the per-subflow counters sum to the connection total.
  const double picks = reg.value("mptcp.client.scheduler_picks");
  const double maps = reg.value("mptcp.client.dss_mappings_emitted");
  EXPECT_GT(picks, 0.0);
  EXPECT_DOUBLE_EQ(picks, maps);
  EXPECT_DOUBLE_EQ(reg.value("mptcp.client.sf0.scheduler_picks") +
                       reg.value("mptcp.client.sf1.scheduler_picks"),
                   picks);
  EXPECT_DOUBLE_EQ(reg.value("mptcp.client.sf0.dss_mappings_emitted") +
                       reg.value("mptcp.client.sf1.dss_mappings_emitted"),
                   maps);
  // Both subflows actually carried data.
  EXPECT_GT(reg.value("mptcp.client.sf0.scheduler_picks"), 0.0);
  EXPECT_GT(reg.value("mptcp.client.sf1.scheduler_picks"), 0.0);

  // DATA_ACKs advanced over the whole stream (+1 for the DATA_FIN).
  EXPECT_DOUBLE_EQ(reg.value("mptcp.client.data_acked_bytes"),
                   static_cast<double>(kBytes + 1));

  // Exactly-once pairing: the registry's loop-global TCP aggregates must
  // equal the sums of the per-connection stats structs (all four
  // subflows: two per side).
  const uint64_t sent =
      f.subflow_sum(*f.client_conn, &TcpConnection::Stats::segments_sent) +
      f.subflow_sum(*f.server_conn, &TcpConnection::Stats::segments_sent);
  const uint64_t received =
      f.subflow_sum(*f.client_conn,
                    &TcpConnection::Stats::segments_received) +
      f.subflow_sum(*f.server_conn, &TcpConnection::Stats::segments_received);
  EXPECT_DOUBLE_EQ(reg.value("tcp.segments_sent"),
                   static_cast<double>(sent));
  EXPECT_DOUBLE_EQ(reg.value("tcp.segments_received"),
                   static_cast<double>(received));

  // The simulator saw every one of those segments cross a link.
  EXPECT_DOUBLE_EQ(
      reg.value("sim.link.wifi-up.delivered_pkts") +
          reg.value("sim.link.wifi-down.delivered_pkts") +
          reg.value("sim.link.3g-up.delivered_pkts") +
          reg.value("sim.link.3g-down.delivered_pkts"),
      static_cast<double>(sent));
}

TEST(StatsMptcp, LossyRunPairsRetransmitCountersExactly) {
  // 2% loss on the weak 3G path forces real retransmissions; the registry
  // totals must still match the per-connection structs exactly -- each
  // instrumented site increments both, once.
  TwoSubflowRun f({wifi_path(), weak_threeg_path(0.02)}, 0, 8 * kSecond);
  ASSERT_NE(f.server_conn, nullptr);
  StatsRegistry& reg = f.rig.stats();

  const uint64_t rtx =
      f.subflow_sum(*f.client_conn, &TcpConnection::Stats::retransmits) +
      f.subflow_sum(*f.server_conn, &TcpConnection::Stats::retransmits);
  const uint64_t rto =
      f.subflow_sum(*f.client_conn, &TcpConnection::Stats::timeouts) +
      f.subflow_sum(*f.server_conn, &TcpConnection::Stats::timeouts);
  EXPECT_GT(rtx, 0u);  // the loss model did its job
  EXPECT_DOUBLE_EQ(reg.value("tcp.retransmits"), static_cast<double>(rtx));
  EXPECT_DOUBLE_EQ(reg.value("tcp.rto_firings"), static_cast<double>(rto));

  // Dead connections must deregister: destroying the client stack drops
  // every mptcp.client* export but leaves the loop-global ones.
  EXPECT_GT(reg.value("mptcp.client.scheduler_picks"), 0.0);
  EXPECT_GT(f.rig.stats().flatten().count("mptcp.client.sf0.scheduler_picks"),
            0u);
  f.sender.reset();
  f.client_stack.reset();
  EXPECT_DOUBLE_EQ(reg.value("mptcp.client.scheduler_picks"), 0.0);
  EXPECT_DOUBLE_EQ(reg.value("mptcp.client.sf0.scheduler_picks"), 0.0);
  for (const auto& [name, v] : f.rig.stats().flatten()) {
    EXPECT_TRUE(name.rfind("mptcp.client", 0) != 0) << name;
  }
  EXPECT_TRUE(reg.contains("tcp.retransmits"));
}

TEST(StatsMptcp, DumpStatsRoundTrips) {
  TwoSubflowRun f({wifi_path(), threeg_path()}, 50 * 1000, 5 * kSecond);
  const std::string json = f.rig.dump_stats();
  const auto parsed = StatsRegistry::parse_flat_json(json);
  EXPECT_EQ(parsed, f.rig.stats().flatten());
  EXPECT_GT(parsed.at("sim.events_fired"), 0.0);
}

// ---------------------------------------------------------------------------
// Determinism digest.
// ---------------------------------------------------------------------------

TEST(StatsDigest, SameSeedSameDigest) {
  DigestConfig cfg;
  cfg.duration = 2 * kSecond;
  const DigestResult a = run_digest_scenario(cfg);
  const DigestResult b = run_digest_scenario(cfg);
  EXPECT_GT(a.packets_hashed, 0u);
  EXPECT_GT(a.bytes_delivered, 0u);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.packets_hashed, b.packets_hashed);
  EXPECT_EQ(a.stats_json, b.stats_json);
}

TEST(StatsDigest, DifferentSeedDifferentDigest) {
  DigestConfig a, b;
  a.duration = b.duration = 2 * kSecond;
  a.seed = 1;
  b.seed = 2;
  const DigestResult ra = run_digest_scenario(a);
  const DigestResult rb = run_digest_scenario(b);
  EXPECT_NE(ra.digest, rb.digest);
  // The seed changes the packets, not what the export measures.
  EXPECT_EQ(digest_hex(ra.schema), digest_hex(rb.schema));
}

TEST(StatsDigest, SchemaIndependentOfShardCount) {
  // Shard count changes the "@s<k>" and "#<n>" parts of the scope names,
  // never the schema.
  DigestConfig cfg;
  cfg.scenario = DigestScenario::kCapacity;
  cfg.seed = 3;
  cfg.duration = 1 * kSecond;
  cfg.shards = 1;
  const DigestResult one = run_digest_scenario(cfg);
  for (size_t shards : {2u, 4u}) {
    cfg.shards = shards;
    EXPECT_EQ(digest_hex(run_digest_scenario(cfg).schema),
              digest_hex(one.schema))
        << "shards=" << shards;
  }
}

}  // namespace
}  // namespace mptcp
