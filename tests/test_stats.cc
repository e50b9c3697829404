// Observability layer: the stats registry itself, the counters the
// simulator / TCP / MPTCP layers publish into it, and the determinism
// digest built on top.
//
// The scenario tests deliberately assert *exact* counter values: the
// registry's tcp.* totals are summed from the per-connection stats
// structs (live ones plus those destroyed connections folded in), so they
// must equal the struct sums, and keep their values when connections die.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "app/bulk_app.h"
#include "app/digest.h"
#include "app/scenario.h"
#include "core/mptcp_stack.h"
#include "net/stats.h"

namespace mptcp {
namespace {

// ---------------------------------------------------------------------------
// Registry unit tests.
// ---------------------------------------------------------------------------

TEST(StatsRegistry, GaugeHistogramBasics) {
  StatsRegistry reg;
  Gauge& g = reg.gauge("a.level");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  EXPECT_EQ(&reg.gauge("a.level"), &g);  // create-on-first-use is stable

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
  EXPECT_DOUBLE_EQ(reg.value("a.sizes.count"), 4.0);
  EXPECT_DOUBLE_EQ(reg.value("a.sizes.mean"), 1506.0 / 4.0);
}

TEST(StatsRegistry, SampledValuesAreLazy) {
  StatsRegistry reg;
  int calls = 0;
  const StatsRegistry::Handle h = reg.group("lazy", [&calls](SampleSink& out) {
    ++calls;
    out.emit("value", 3.5);
  });
  EXPECT_EQ(calls, 0);  // registration alone never samples
  EXPECT_DOUBLE_EQ(reg.value("lazy.value"), 3.5);
  EXPECT_EQ(calls, 1);
  (void)reg.flatten();
  EXPECT_EQ(calls, 2);
}

StatsRegistry::Handle picks_group(StatsRegistry& reg, std::string scope,
                                  double picks) {
  return reg.group(std::move(scope), [picks](SampleSink& out) {
    out.emit("picks", picks);
  });
}

TEST(StatsRegistry, UniqueScopeAndHashSiblingRemoval) {
  StatsRegistry reg;
  const std::string s1 = reg.unique_scope("mptcp.client");
  const std::string s2 = reg.unique_scope("mptcp.client");
  EXPECT_EQ(s1, "mptcp.client");
  EXPECT_EQ(s2, "mptcp.client#2");

  StatsRegistry::Handle first = picks_group(reg, s1, 1.0);
  StatsRegistry::Handle second = picks_group(reg, s2, 5.0);
  // Shares a prefix but is NOT a child.
  const StatsRegistry::Handle lookalike =
      picks_group(reg, "mptcp.clientele", 2.0);
  EXPECT_EQ(first.scope(), s1);
  EXPECT_EQ(reg.size(), 3u);

  // Destroying the first instance's handle must not touch the second
  // instance ('#' sorts before '.', so "#2" keys interleave) nor the
  // lookalike prefix.
  first = StatsRegistry::Handle();
  auto flat = reg.flatten();
  EXPECT_EQ(flat.count(s1 + ".picks"), 0u);
  EXPECT_EQ(flat.count(s2 + ".picks"), 1u);
  EXPECT_EQ(flat.count("mptcp.clientele.picks"), 1u);
  EXPECT_EQ(reg.value(s2 + ".picks"), 5.0);

  // A moved-from handle erases nothing; the handle it moved to does.
  {
    StatsRegistry::Handle moved = std::move(second);
    EXPECT_EQ(moved.scope(), s2);
    EXPECT_TRUE(second.scope().empty());
    second = StatsRegistry::Handle();  // destroys the empty handle
    EXPECT_EQ(reg.value(s2 + ".picks"), 5.0);
    EXPECT_EQ(reg.size(), 2u);
  }
  flat = reg.flatten();
  EXPECT_EQ(flat.count(s2 + ".picks"), 0u);
  EXPECT_EQ(flat.count("mptcp.clientele.picks"), 1u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(StatsRegistry, SampledGroupExpandsLazilyAndRemovesAsOneEntry) {
  StatsRegistry reg;
  int calls = 0;
  uint64_t picks = 3;
  Histogram sizes;
  sizes.record(100);
  auto handle = std::make_unique<StatsRegistry::Handle>(
      reg.group("mptcp.client", [&](SampleSink& out) {
        ++calls;
        out.emit("scheduler_picks", static_cast<double>(picks));
        out.emit("fallbacks", 1.0);
        out.emit_histogram("sizes", sizes);
      }));
  EXPECT_EQ(calls, 0);  // registration alone never samples
  EXPECT_EQ(reg.size(), 1u);  // the whole scope is ONE map entry

  // value() resolves "<scope>.<suffix>" through the group, histogram
  // members included.
  EXPECT_DOUBLE_EQ(reg.value("mptcp.client.scheduler_picks"), 3.0);
  picks = 9;
  EXPECT_DOUBLE_EQ(reg.value("mptcp.client.scheduler_picks"), 9.0);
  EXPECT_DOUBLE_EQ(reg.value("mptcp.client.no_such_suffix"), 0.0);
  EXPECT_DOUBLE_EQ(reg.value("mptcp.client.sizes.sum"), 100.0);

  // flatten() expands the group into per-suffix keys.
  const auto flat = reg.flatten();
  EXPECT_DOUBLE_EQ(flat.at("mptcp.client.scheduler_picks"), 9.0);
  EXPECT_DOUBLE_EQ(flat.at("mptcp.client.fallbacks"), 1.0);
  EXPECT_DOUBLE_EQ(flat.at("mptcp.client.sizes.count"), 1.0);
  EXPECT_DOUBLE_EQ(flat.at("mptcp.client.sizes.mean"), 100.0);
  EXPECT_EQ(flat.count("mptcp.client"), 0u);  // the scope itself is no key

  // Destroying the handle drops the group with its single entry.
  handle.reset();
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_DOUBLE_EQ(reg.value("mptcp.client.scheduler_picks"), 0.0);
  EXPECT_EQ(reg.flatten().count("mptcp.client.scheduler_picks"), 0u);
}

TEST(StatsRegistry, JsonRoundTripsAndOmitsUnregistered) {
  StatsRegistry reg;
  reg.gauge("a.gauge").set(-4);
  reg.histogram("m.hist").record(100);
  const StatsRegistry::Handle h = reg.group("s", [](SampleSink& out) {
    out.emit("val", 0.125);
    out.emit("count", 7.0);
  });

  const std::string json = reg.to_json();
  EXPECT_EQ(json.find("never_registered"), std::string::npos);

  const auto parsed = StatsRegistry::parse_flat_json(json);
  EXPECT_EQ(parsed, reg.flatten());
  EXPECT_DOUBLE_EQ(parsed.at("s.count"), 7.0);
  EXPECT_DOUBLE_EQ(parsed.at("a.gauge"), -4.0);
  EXPECT_DOUBLE_EQ(parsed.at("m.hist.count"), 1.0);
  EXPECT_DOUBLE_EQ(parsed.at("m.hist.sum"), 100.0);
  EXPECT_DOUBLE_EQ(parsed.at("s.val"), 0.125);
  // Unregistered names read as 0 and are absent from the export.
  EXPECT_DOUBLE_EQ(reg.value("never_registered"), 0.0);
  EXPECT_EQ(parsed.count("never_registered"), 0u);
}

TEST(StatsRegistry, MalformedJsonYieldsPairsParsedSoFar) {
  StatsRegistry reg;
  reg.gauge("a.first").set(1);
  reg.gauge("b.second").set(2);
  reg.gauge("c.third").set(3);
  const std::string json = reg.to_json();
  const std::map<std::string, double> first_two = {{"a.first", 1.0},
                                                   {"b.second", 2.0}};
  // An export cut off inside the third key.
  EXPECT_EQ(StatsRegistry::parse_flat_json(
                json.substr(0, json.find("c.third") + 3)),
            first_two);
  // A non-numeric third value.
  std::string bad = json;
  bad.replace(bad.find(": 3"), 3, ": x");
  EXPECT_EQ(StatsRegistry::parse_flat_json(bad), first_two);
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
  TwoHostRig rig({wifi_path()});
  const auto flat = rig.stats().flatten();
  EXPECT_EQ(flat.count("sim.link.wifi-ab.delivered_pkts"), 1u);
  EXPECT_EQ(flat.count("sim.link.wifi-ba.delivered_pkts"), 1u);
  EXPECT_EQ(flat.count("sim.link.wifi-ab.occupancy_bytes.count"), 1u);
  EXPECT_EQ(rig.up_link(0).stats_scope(), "sim.link.wifi-ab");
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
  TwoSubflowRun(const std::vector<PathSpec>& paths, uint64_t transfer_bytes,
                SimTime duration, MptcpConfig cfg = default_cfg())
      : rig(paths) {
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
  EXPECT_DOUBLE_EQ(reg.value("sim.link.wifi-ab.dropped_overflow") +
                       reg.value("sim.link.wifi-ba.dropped_overflow") +
                       reg.value("sim.link.3g-ab.dropped_overflow") +
                       reg.value("sim.link.3g-ba.dropped_overflow"),
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
      reg.value("sim.link.wifi-ab.delivered_pkts") +
          reg.value("sim.link.wifi-ba.delivered_pkts") +
          reg.value("sim.link.3g-ab.delivered_pkts") +
          reg.value("sim.link.3g-ba.delivered_pkts"),
      static_cast<double>(sent));
}

TEST(StatsMptcp, LossyRunPairsRetransmitCountersExactly) {
  // 2% loss on the weak 3G path forces real retransmissions; the registry
  // totals must still match the per-connection structs exactly.
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
  // every mptcp.client* export but leaves the loop-global ones, and the
  // tcp.* totals keep what the dead subflows counted.
  EXPECT_GT(reg.value("mptcp.client.scheduler_picks"), 0.0);
  EXPECT_GT(f.rig.stats().flatten().count("mptcp.client.sf0.scheduler_picks"),
            0u);
  const double sent = reg.value("tcp.segments_sent");
  EXPECT_GT(sent, 0.0);
  f.sender.reset();
  f.client_stack.reset();
  EXPECT_DOUBLE_EQ(reg.value("mptcp.client.scheduler_picks"), 0.0);
  EXPECT_DOUBLE_EQ(reg.value("mptcp.client.sf0.scheduler_picks"), 0.0);
  const auto flat = f.rig.stats().flatten();
  for (const auto& [name, v] : flat) {
    EXPECT_TRUE(name.rfind("mptcp.client", 0) != 0) << name;
  }
  EXPECT_DOUBLE_EQ(flat.at("tcp.segments_sent"), sent);
  EXPECT_DOUBLE_EQ(flat.at("tcp.retransmits"), static_cast<double>(rtx));
  EXPECT_DOUBLE_EQ(flat.at("tcp.rto_firings"), static_cast<double>(rto));
}

TEST(StatsMptcp, EachLiveObjectHoldsOneRegistryEntry) {
  // A link direction, a router, a workload class and an MPTCP connection
  // with two subflows each publish through exactly one registry entry.
  {
    Topology topo;
    StatsRegistry& reg = topo.stats();
    const NodeId a = topo.add_host("a");
    const NodeId b = topo.add_host("b");
    size_t before = reg.size();
    const NodeId r = topo.add_router("r");
    EXPECT_EQ(reg.size() - before, 1u) << "router";
    before = reg.size();
    topo.connect(a, r, LinkConfig{}, LinkConfig{});
    topo.connect(r, b, LinkConfig{}, LinkConfig{});
    EXPECT_EQ(reg.size() - before, 4u) << "two links, two directions each";
  }
  {
    CapacitySpec spec;
    spec.clients = 1;
    spec.servers = 1;
    CapacityTopology cap = build_capacity_topology(spec, /*seed=*/1);
    StatsRegistry& reg = cap.topo->stats();
    const size_t before = reg.size();
    WorkloadConfig wc;
    wc.clients = cap.clients;
    wc.servers = cap.servers;
    FlowClass bulk;
    bulk.name = "bulk";
    FlowClass serving;
    serving.name = "serving";
    serving.app_mode = FlowClass::AppMode::kServing;
    wc.classes = {bulk, serving};
    WorkloadEngine engine(*cap.topo, wc);
    EXPECT_EQ(reg.size() - before, 3u) << "one per class plus the engine's";
  }
  TwoSubflowRun f({wifi_path(), threeg_path()}, 0, 2 * kSecond);
  ASSERT_NE(f.server_conn, nullptr);
  ASSERT_EQ(f.client_conn->subflow_count(), 2u);
  StatsRegistry& reg = f.rig.stats();
  const size_t before = reg.size();
  f.sender.reset();
  f.client_stack.reset();
  EXPECT_EQ(before - reg.size(), 1u) << "the client connection";
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

TEST(StatsDigest, CapacityExportRoundTrips) {
  // Every key and value of a full export survives parsing: re-serializing
  // the parsed pairs the way to_json() does reproduces it byte for byte.
  DigestConfig cfg;
  cfg.scenario = DigestScenario::kCapacity;
  const DigestResult run = run_digest_scenario(cfg);
  const auto parsed = StatsRegistry::parse_flat_json(run.stats_json);
  EXPECT_GT(parsed.size(), 3000u);
  std::string again = "{\n";
  size_t i = 0;
  for (const auto& [name, v] : parsed) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    again += "  \"" + name + "\": " + buf;
    again += ++i < parsed.size() ? ",\n" : "\n";
  }
  again += "}\n";
  EXPECT_EQ(again, run.stats_json);
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
