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
#include <string>
#include <utility>
#include <vector>

#include "app/bulk_app.h"
#include "app/digest.h"
#include "app/scenario.h"
#include "app/workload.h"
#include "core/mptcp_stack.h"
#include "net/stats.h"
#include "sim/shard.h"

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

  // The top bucket, [2^63, 2^64), has no representable power-of-two
  // bound: its percentile saturates.
  Histogram top;
  top.record(UINT64_MAX);
  EXPECT_EQ(top.bucket(64), 1u);
  EXPECT_EQ(top.approx_percentile(1.0), UINT64_MAX);
  top.record(uint64_t{1} << 63);
  EXPECT_EQ(top.approx_percentile(0.5), UINT64_MAX);
}

/// A publishing object for the registry tests: emits `values` under a
/// scope opened the way its constructor picked, and counts the samples
/// (scopes the reader accepted).
class TestObject {
 public:
  using Values = std::map<std::string, double>;

  /// Shared scope, used as is.
  TestObject(StatsRegistry& reg, std::string scope, Values values)
      : head_(std::move(scope)),
        values_(std::move(values)),
        hook_(reg, *this) {}
  /// Own scope "<head><name>", numbered at export.
  TestObject(StatsRegistry& reg, std::string head, std::string name,
             Values values)
      : head_(std::move(head)),
        name_(std::move(name)),
        numbered_(true),
        values_(std::move(values)),
        hook_(reg, *this) {}
  /// Own scope "<head>", numbered at birth.
  TestObject(StatsRegistry& reg, std::string head, Values values,
             uint32_t instance)
      : head_(std::move(head)),
        instance_(instance),
        values_(std::move(values)),
        hook_(reg, *this) {}

  void publish_stats(StatsOut& out) const {
    const bool open = instance_ > 0 ? out.open_instance(head_, instance_)
                      : numbered_   ? out.open(head_, name_)
                                    : out.open_shared(head_);
    if (!open) return;
    ++samples_;
    for (const auto& [name, v] : values_) out.emit(name, v);
    if (sizes_ != nullptr) out.emit_histogram("sizes", *sizes_);
  }

  void set(const std::string& name, double v) { values_[name] = v; }
  void add_histogram(const Histogram& h) { sizes_ = &h; }
  int samples() const { return samples_; }

 private:
  std::string head_;
  std::string name_;
  bool numbered_ = false;
  uint32_t instance_ = 0;
  Values values_;
  const Histogram* sizes_ = nullptr;
  mutable int samples_ = 0;
  StatsHook hook_;
};

TEST(StatsRegistry, SampledValuesAreLazy) {
  StatsRegistry reg;
  const TestObject lazy(reg, "lazy", {{"value", 3.5}});
  EXPECT_EQ(lazy.samples(), 0);  // registration alone never samples
  EXPECT_DOUBLE_EQ(reg.value("lazy.value"), 3.5);
  EXPECT_EQ(lazy.samples(), 1);
  EXPECT_DOUBLE_EQ(reg.value("other.value"), 0.0);
  EXPECT_EQ(lazy.samples(), 1);  // a key outside its scope does not sample
  (void)reg.flatten();
  EXPECT_EQ(lazy.samples(), 2);
}

TEST(StatsRegistry, InstanceNumbersAndHashSiblingRemoval) {
  StatsRegistry reg;
  const uint32_t n1 = reg.next_instance("mptcp.client");
  const uint32_t n2 = reg.next_instance("mptcp.client");
  EXPECT_EQ(reg.instance_scope("mptcp.client", n1), "mptcp.client");
  EXPECT_EQ(reg.instance_scope("mptcp.client", n2), "mptcp.client#2");

  auto first = std::make_unique<TestObject>(
      reg, "mptcp.client", TestObject::Values{{"picks", 1.0}}, n1);
  auto second = std::make_unique<TestObject>(
      reg, "mptcp.client", TestObject::Values{{"picks", 5.0}}, n2);
  // Shares a prefix but is NOT a child.
  const TestObject lookalike(reg, "mptcp.clientele", {{"picks", 2.0}});
  EXPECT_EQ(reg.size(), 0u);  // hooks are not registry entries

  // Destroying the first instance must not touch the second ('#' sorts
  // before '.', so "#2" keys interleave) nor the lookalike prefix.
  first.reset();
  auto flat = reg.flatten();
  EXPECT_EQ(flat.count("mptcp.client.picks"), 0u);
  EXPECT_EQ(flat.count("mptcp.client#2.picks"), 1u);
  EXPECT_EQ(flat.count("mptcp.clientele.picks"), 1u);
  EXPECT_EQ(reg.value("mptcp.client#2.picks"), 5.0);
  EXPECT_EQ(reg.value("mptcp.client.picks"), 0.0);

  // A number is never handed out twice.
  const TestObject third(reg, "mptcp.client", {{"picks", 7.0}},
                         reg.next_instance("mptcp.client"));
  EXPECT_EQ(reg.value("mptcp.client#3.picks"), 7.0);
  second.reset();
  flat = reg.flatten();
  EXPECT_EQ(flat.count("mptcp.client#2.picks"), 0u);
  EXPECT_EQ(flat.count("mptcp.client#3.picks"), 1u);
  EXPECT_EQ(flat.count("mptcp.clientele.picks"), 1u);
  EXPECT_EQ(reg.size(), 0u);
}

TEST(StatsRegistry, ExportNumbersFollowTheLiveHooksInRegistrationOrder) {
  // Objects numbered at export (links, routers, workload classes) take
  // their "#<n>" from the live objects of the same name before them; the
  // shard tag goes before the number.
  StatsRegistry reg;
  reg.set_scope_tag("@s1");
  auto a = std::make_unique<TestObject>(reg, "sim.link.", "hop",
                                        TestObject::Values{{"pkts", 1.0}});
  const TestObject other(reg, "sim.link.", "hop2", {{"pkts", 9.0}});
  const TestObject b(reg, "sim.link.", "hop", {{"pkts", 2.0}});
  const TestObject c(reg, "sim.link.", "hop", {{"pkts", 3.0}});
  auto flat = reg.flatten();
  EXPECT_EQ(flat.at("sim.link.hop@s1.pkts"), 1.0);
  EXPECT_EQ(flat.at("sim.link.hop@s1#2.pkts"), 2.0);
  EXPECT_EQ(flat.at("sim.link.hop@s1#3.pkts"), 3.0);
  EXPECT_EQ(flat.at("sim.link.hop2@s1.pkts"), 9.0);
  EXPECT_EQ(reg.value("sim.link.hop@s1#3.pkts"), 3.0);
  EXPECT_EQ(reg.value("sim.link.hop2@s1.pkts"), 9.0);
  EXPECT_EQ(reg.value("sim.link.hop.pkts"), 0.0);  // untagged: no such key

  // The numbers are a view of the live set: without the first "hop",
  // the others move up.
  a.reset();
  flat = reg.flatten();
  EXPECT_EQ(flat.at("sim.link.hop@s1.pkts"), 2.0);
  EXPECT_EQ(flat.at("sim.link.hop@s1#2.pkts"), 3.0);
  EXPECT_EQ(flat.count("sim.link.hop@s1#3.pkts"), 0u);
  EXPECT_EQ(reg.value("sim.link.hop@s1#2.pkts"), 3.0);
}

TEST(StatsRegistry, HookExpandsLazilyAndLeavesWithItsObject) {
  StatsRegistry reg;
  Histogram sizes;
  sizes.record(100);
  auto object = std::make_unique<TestObject>(
      reg, "mptcp.client",
      TestObject::Values{{"scheduler_picks", 3.0}, {"fallbacks", 1.0}},
      reg.next_instance("mptcp.client"));
  object->add_histogram(sizes);
  EXPECT_EQ(object->samples(), 0);  // registration alone never samples
  EXPECT_EQ(reg.size(), 0u);        // and adds no registry entry

  // value() resolves "<scope>.<suffix>" through the object, histogram
  // members included.
  EXPECT_DOUBLE_EQ(reg.value("mptcp.client.scheduler_picks"), 3.0);
  object->set("scheduler_picks", 9.0);
  EXPECT_DOUBLE_EQ(reg.value("mptcp.client.scheduler_picks"), 9.0);
  EXPECT_DOUBLE_EQ(reg.value("mptcp.client.no_such_suffix"), 0.0);
  EXPECT_DOUBLE_EQ(reg.value("mptcp.client.sizes.sum"), 100.0);

  // flatten() expands the object into per-suffix keys.
  const auto flat = reg.flatten();
  EXPECT_DOUBLE_EQ(flat.at("mptcp.client.scheduler_picks"), 9.0);
  EXPECT_DOUBLE_EQ(flat.at("mptcp.client.fallbacks"), 1.0);
  EXPECT_DOUBLE_EQ(flat.at("mptcp.client.sizes.count"), 1.0);
  EXPECT_DOUBLE_EQ(flat.at("mptcp.client.sizes.mean"), 100.0);
  EXPECT_EQ(flat.count("mptcp.client"), 0u);  // the scope itself is no key

  // Destroying the object takes its values out of the export.
  object.reset();
  EXPECT_DOUBLE_EQ(reg.value("mptcp.client.scheduler_picks"), 0.0);
  EXPECT_EQ(reg.flatten().count("mptcp.client.scheduler_picks"), 0u);
  EXPECT_TRUE(reg.flatten().empty());
}

TEST(StatsRegistry, JsonRoundTripsAndOmitsUnregistered) {
  StatsRegistry reg;
  reg.gauge("a.gauge").set(-4);
  reg.histogram("m.hist").record(100);
  const TestObject s(reg, "s", {{"val", 0.125}, {"count", 7.0}});

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

TEST(StatsMptcp, PublishingObjectsAddNoRegistryEntry) {
  // A router, a link pair, a two-class workload engine and an MPTCP
  // connection with two subflows publish through hooks: creating or
  // destroying one leaves the registry's entries as they were.
  {
    Topology topo;
    StatsRegistry& reg = topo.stats();
    const NodeId a = topo.add_host("a");
    const NodeId b = topo.add_host("b");
    const size_t before = reg.size();
    const NodeId r = topo.add_router("r");
    EXPECT_EQ(reg.size(), before) << "router";
    topo.connect(a, r, LinkConfig{}, LinkConfig{});
    topo.connect(r, b, LinkConfig{}, LinkConfig{});
    EXPECT_EQ(reg.size(), before) << "two links, two directions each";
    const auto flat = reg.flatten();
    EXPECT_EQ(flat.count("sim.router.r.forwarded"), 1u);
    EXPECT_EQ(flat.count("sim.link.a-r-ab.enqueued_pkts"), 1u);
    EXPECT_EQ(flat.count("sim.link.r-b-ba.enqueued_pkts"), 1u);
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
    EXPECT_EQ(reg.size(), before) << "two classes and the engine's keys";
    const auto flat = reg.flatten();
    EXPECT_EQ(flat.count("workload.bulk.started"), 1u);
    EXPECT_EQ(flat.count("workload.serving.srv_served"), 1u);
    EXPECT_EQ(flat.count("workload.concurrent"), 1u);
  }
  TwoSubflowRun f({wifi_path(), threeg_path()}, 0, 2 * kSecond);
  ASSERT_NE(f.server_conn, nullptr);
  ASSERT_EQ(f.client_conn->subflow_count(), 2u);
  StatsRegistry& reg = f.rig.stats();
  const size_t before = reg.size();
  EXPECT_GT(reg.flatten().count("mptcp.client.sf1.scheduler_picks"), 0u);
  f.sender.reset();
  f.client_stack.reset();
  EXPECT_EQ(reg.size(), before) << "the client connection";
  EXPECT_EQ(reg.flatten().count("mptcp.client.sf1.scheduler_picks"), 0u);
}

// ---------------------------------------------------------------------------
// Scope names: instance numbers, shard tags and the value() lookup path.
// ---------------------------------------------------------------------------

TEST(StatsNaming, ConnectionNumbersFollowBirthOrderAndAreNeverReused) {
  TwoHostRig rig({wifi_path()});
  MptcpStack client(rig.client(), default_cfg());
  MptcpStack server(rig.server(), default_cfg());
  server.listen(80, [](MptcpConnection&) {});
  const auto open = [&]() -> MptcpConnection& {
    return client.connect(rig.client_addr(0), Endpoint{rig.server_addr(), 80});
  };
  MptcpConnection& first = open();
  MptcpConnection& second = open();
  MptcpConnection& third = open();
  rig.loop().run_until(200 * kMillisecond);
  EXPECT_EQ(first.stats_scope(), "mptcp.client");
  EXPECT_EQ(second.stats_scope(), "mptcp.client#2");
  EXPECT_EQ(third.stats_scope(), "mptcp.client#3");

  client.destroy_later(&second);
  rig.loop().run_until(201 * kMillisecond);
  // A fourth connection takes the next number, not the freed "#2" and not
  // a count of the live ones (which would collide with "#3").
  MptcpConnection& fourth = open();
  EXPECT_EQ(fourth.stats_scope(), "mptcp.client#4");
  rig.loop().run_until(400 * kMillisecond);

  const auto flat = rig.stats().flatten();
  EXPECT_EQ(flat.count("mptcp.client.subflows"), 1u);
  EXPECT_EQ(flat.count("mptcp.client#2.subflows"), 0u);
  EXPECT_EQ(flat.count("mptcp.client#3.subflows"), 1u);
  EXPECT_EQ(flat.count("mptcp.client#4.subflows"), 1u);
  EXPECT_EQ(flat.count("mptcp.server#4.subflows"), 1u);
}

TEST(StatsNaming, ShardOneScopesCarryTheShardTag) {
  ShardedCapacitySpec spec;
  spec.cells = 2;
  spec.cell.clients = 2;
  spec.cell.servers = 1;
  spec.cell.bottleneck_rate_bps = 100e6;
  ShardedCapacity net = build_sharded_capacity(spec, /*seed=*/5, /*shards=*/2);
  FlowClass local;
  local.name = "bulk";
  local.persistent_per_client = 2;
  local.arrival_rate_hz = 0;
  local.transport.mptcp.tcp.seed = 5;
  FlowClass off;
  off.arrival_rate_hz = 0;
  off.persistent_per_client = 0;
  ShardedCapacityWorkload workload(net, local, off, /*seed=*/5);
  workload.start();
  ShardedEngine engine(*net.topo);
  engine.run_until(1200 * kMillisecond);  // persistent flows open within 1 s

  // Cell j runs on shard j: shard 1's objects carry "@s1" right after
  // their name, before any "#<n>"; shard 0's and the engines' shared
  // scopes carry no tag.
  const auto flat = StatsRegistry::merged_flatten(net.topo->shard_stats());
  for (const char* key : {"mptcp.client@s1.subflows",
                          "mptcp.client@s1#2.subflows",
                          "mptcp.server@s1.subflows",
                          "sim.link.c1.bottleneck-a-ab@s1.enqueued_pkts",
                          "sim.router.c1.agg-a@s1.forwarded",
                          "c1.workload.bulk@s1.started",
                          "mptcp.client.subflows",
                          "sim.link.c0.bottleneck-a-ab.enqueued_pkts",
                          "sim.router.c0.agg-a.forwarded",
                          "c0.workload.bulk.started",
                          "c1.workload.concurrent",
                          "sim.events_fired"}) {
    EXPECT_EQ(flat.count(key), 1u) << key;
  }
  for (const auto& [key, v] : flat) {
    EXPECT_TRUE(key.rfind("sim.router.c1.agg-a.", 0) != 0) << key;
    EXPECT_TRUE(key.rfind("c1.workload.bulk.", 0) != 0) << key;
  }

  // perfbench's path: value() on a tagged, numbered scope reads what the
  // export holds for that connection.
  size_t checked = 0;
  workload.engine(1).for_each_open_socket(
      [&](StreamSocket& s, const FlowReport&) {
        auto* conn = dynamic_cast<MptcpConnection*>(&s);
        ASSERT_NE(conn, nullptr);
        const std::string scope = conn->stats_scope();
        EXPECT_EQ(scope.rfind("mptcp.client@s1", 0), 0u) << scope;
        const std::string key = scope + ".dss_mappings_emitted";
        EXPECT_DOUBLE_EQ(net.topo->stats(1).value(key), flat.at(key)) << key;
        ++checked;
      });
  EXPECT_EQ(checked, 4u);
}

TEST(StatsNaming, SameNamedLinksOnOneLoopNumberInRegistrationOrder) {
  EventLoop loop;
  Link first(loop, LinkConfig{}, "hop");
  Link second(loop, LinkConfig{}, "hop");
  second.set_up(false);
  second.deliver(TcpSegment{});
  const auto flat = loop.stats().flatten();
  EXPECT_DOUBLE_EQ(flat.at("sim.link.hop.dropped_down"), 0.0);
  EXPECT_DOUBLE_EQ(flat.at("sim.link.hop#2.dropped_down"), 1.0);
  EXPECT_DOUBLE_EQ(loop.stats().value("sim.link.hop#2.dropped_down"), 1.0);
}

TEST(StatsNaming, ValueOfConnectionScopeReadsItsOwnCounts) {
  // M1 off: every mapping is one scheduler pick on one of the two live
  // subflows, so the connection's count has two independent witnesses.
  MptcpConfig cfg = default_cfg();
  cfg.opportunistic_retransmit = false;
  TwoSubflowRun f({wifi_path(), threeg_path()}, 200 * 1000, 5 * kSecond, cfg);
  ASSERT_NE(f.server_conn, nullptr);
  ASSERT_EQ(f.client_conn->subflow_count(), 2u);
  const StatsRegistry& reg = f.rig.stats();
  const auto flat = reg.flatten();
  const std::string scope = f.client_conn->stats_scope();
  const double maps = reg.value(scope + ".dss_mappings_emitted");
  EXPECT_GT(maps, 0.0);
  EXPECT_DOUBLE_EQ(maps, flat.at(scope + ".dss_mappings_emitted"));
  EXPECT_DOUBLE_EQ(maps, reg.value(scope + ".scheduler_picks"));
  EXPECT_DOUBLE_EQ(maps, reg.value(scope + ".sf0.dss_mappings_emitted") +
                             reg.value(scope + ".sf1.dss_mappings_emitted"));
  const std::string server = f.server_conn->stats_scope();
  EXPECT_DOUBLE_EQ(reg.value(server + ".delivered_bytes"), 200.0 * 1000);
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
