// Multi-host topology engine and workload engine: routing correctness,
// router accounting, per-address path pinning, and the registry-hygiene
// contract under heavy connection churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "app/bulk_app.h"
#include "app/workload.h"

namespace mptcp {
namespace {

LinkConfig fast_link() {
  LinkConfig cfg;
  cfg.rate_bps = 100e6;
  cfg.prop_delay = 1 * kMillisecond;
  cfg.buffer_bytes = 64 * 1024;
  return cfg;
}

TransportConfig small_transport(TransportKind kind) {
  TransportConfig tc;
  tc.kind = kind;
  tc.mptcp.meta_snd_buf_max = tc.mptcp.meta_rcv_buf_max = 64 * 1024;
  tc.mptcp.tcp.snd_buf_max = tc.mptcp.tcp.rcv_buf_max = 32 * 1024;
  return tc;
}

/// Data crosses a two-router chain in both directions: every hop must have
/// a route to both endpoint addresses.
TEST(Topology, MultiHopChainDeliversBothWays) {
  Topology topo(7);
  const NodeId a = topo.add_host("a");
  const NodeId r1 = topo.add_router("r1");
  const NodeId r2 = topo.add_router("r2");
  const NodeId b = topo.add_host("b");
  topo.connect(a, r1, fast_link(), fast_link());
  topo.connect(r1, r2, fast_link(), fast_link());
  topo.connect(r2, b, fast_link(), fast_link());
  topo.build_routes();

  SocketFactory cf(topo.host(a), small_transport(TransportKind::kTcp));
  SocketFactory sf(topo.host(b), small_transport(TransportKind::kTcp));
  std::unique_ptr<BulkReceiver> rx;
  sf.listen(80, [&](StreamSocket& s) {
    rx = std::make_unique<BulkReceiver>(s, /*verify=*/true);
  });
  StreamSocket& c = cf.connect(topo.addr(a), {topo.addr(b), 80});
  BulkSender tx(c, 200 * 1000);

  topo.loop().run_until(2 * kSecond);
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->bytes_received(), 200u * 1000u);
  EXPECT_TRUE(rx->pattern_ok());
  EXPECT_TRUE(rx->saw_eof());
  // Both routers carried both directions (data + ACKs).
  EXPECT_GT(topo.router(r1).forwarded(), 100u);
  EXPECT_GT(topo.router(r2).forwarded(), 100u);
  EXPECT_EQ(topo.router(r1).dropped_no_route(), 0u);
  EXPECT_EQ(topo.router(r2).dropped_no_route(), 0u);
}

/// Hosts gain one address per access link, in connect() order, and every
/// address in the topology is distinct.
TEST(Topology, AddressAssignmentIsPerLinkAndUnique) {
  Topology topo;
  const NodeId h = topo.add_host("h");
  const NodeId r = topo.add_router("r");
  const NodeId g = topo.add_host("g");
  topo.connect(h, r, fast_link(), fast_link());
  topo.connect(h, r, fast_link(), fast_link());  // second interface
  topo.connect(r, g, fast_link(), fast_link());

  ASSERT_EQ(topo.addrs(h).size(), 2u);
  ASSERT_EQ(topo.addrs(g).size(), 1u);
  EXPECT_TRUE(topo.addrs(r).empty()) << "routers are not addressed";
  std::set<uint32_t> all;
  for (NodeId n : {h, g}) {
    for (IpAddr a : topo.addrs(n)) all.insert(a.value);
  }
  EXPECT_EQ(all.size(), 3u) << "addresses must be globally distinct";
}

/// A router with no matching route and no default drops and counts.
TEST(Topology, RouterCountsUnroutablePackets) {
  EventLoop loop;
  Router r(loop, "lonely");
  TcpSegment seg;
  seg.tuple.src = {IpAddr(10, 0, 0, 1), 1000};
  seg.tuple.dst = {IpAddr(10, 9, 9, 9), 80};
  r.deliver(seg);
  EXPECT_EQ(r.forwarded(), 0u);
  EXPECT_EQ(r.dropped_no_route(), 1u);
  EXPECT_EQ(loop.stats().value("sim.router.lonely.dropped_no_route"), 1.0);

  NullSink sink;
  r.set_default_route(&sink);
  r.deliver(seg);
  EXPECT_EQ(r.forwarded(), 1u);
  EXPECT_EQ(sink.dropped(), 1u);
}

/// Dual-homed client in the capacity topology: MPTCP's full mesh must put
/// traffic on BOTH aggregation routers -- per-address routing keeps the
/// second subflow pinned to the second access link end to end.
TEST(Topology, CapacitySubflowsUseBothBottlenecks) {
  CapacitySpec spec;
  spec.clients = 1;
  spec.servers = 1;
  spec.bottleneck_rate_bps = 100e6;
  CapacityTopology cap = build_capacity_topology(spec, /*seed=*/3);
  Topology& topo = *cap.topo;

  SocketFactory cf(topo.host(cap.clients[0]),
                   small_transport(TransportKind::kMptcp));
  SocketFactory sf(topo.host(cap.servers[0]),
                   small_transport(TransportKind::kMptcp));
  std::unique_ptr<BulkReceiver> rx;
  sf.listen(80, [&](StreamSocket& s) {
    rx = std::make_unique<BulkReceiver>(s, /*verify=*/true);
  });
  StreamSocket& c = cf.connect(topo.addr(cap.clients[0], 0),
                               {topo.addr(cap.servers[0]), 80});
  BulkSender tx(c, 2 * 1000 * 1000);
  topo.loop().run_until(3 * kSecond);

  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->bytes_received(), 2u * 1000u * 1000u);
  EXPECT_TRUE(rx->pattern_ok());
  MptcpConnection* m = cf.as_mptcp(c);
  ASSERT_NE(m, nullptr);
  EXPECT_GE(m->subflow_count(), 2u);
  EXPECT_GT(topo.router(cap.agg_a).forwarded(), 100u);
  EXPECT_GT(topo.router(cap.agg_b).forwarded(), 100u);
}

/// Taking a link down severs the path; bringing it back restores it.
TEST(Topology, LinkDownStopsDelivery) {
  Topology topo;
  const NodeId a = topo.add_host("a");
  const NodeId r = topo.add_router("r");
  const NodeId b = topo.add_host("b");
  const size_t l0 = topo.connect(a, r, fast_link(), fast_link());
  topo.connect(r, b, fast_link(), fast_link());
  topo.build_routes();

  SocketFactory cf(topo.host(a), small_transport(TransportKind::kTcp));
  SocketFactory sf(topo.host(b), small_transport(TransportKind::kTcp));
  std::unique_ptr<BulkReceiver> rx;
  sf.listen(80, [&](StreamSocket& s) {
    rx = std::make_unique<BulkReceiver>(s, /*verify=*/false);
  });
  StreamSocket& c = cf.connect(topo.addr(a), {topo.addr(b), 80});
  BulkSender tx(c, 0);  // unlimited

  topo.loop().run_until(1 * kSecond);
  ASSERT_NE(rx, nullptr);
  const uint64_t before = rx->bytes_received();
  EXPECT_GT(before, 0u);

  topo.set_link_up(l0, false);
  topo.loop().run_until(2 * kSecond);
  const uint64_t during = rx->bytes_received();
  topo.loop().run_until(3 * kSecond);
  EXPECT_EQ(rx->bytes_received(), during) << "no delivery while down";

  topo.set_link_up(l0, true);
  topo.loop().run_until(6 * kSecond);
  EXPECT_GT(rx->bytes_received(), during) << "recovered after link up";
}

/// Middleboxes spliced into a topology link nest: each new splice inserts
/// directly after the link, so the most recent one sees packets first.
class OrderTap final : public Middlebox {
 public:
  OrderTap(int id, std::vector<int>& order) : id_(id), order_(order) {}
  void deliver(TcpSegment seg) override {
    order_.push_back(id_);
    emit(std::move(seg));
  }

 private:
  int id_;
  std::vector<int>& order_;
};

TEST(Topology, SplicedMiddleboxesChainInCallOrder) {
  Topology topo;
  const NodeId a = topo.add_host("a");
  const NodeId b = topo.add_host("b");
  const size_t l = topo.connect(a, b, fast_link(), fast_link());
  topo.build_routes();

  std::vector<int> order;
  OrderTap first(1, order), second(2, order);
  topo.splice_ab(l, first);
  topo.splice_ab(l, second);

  SocketFactory cf(topo.host(a), small_transport(TransportKind::kTcp));
  SocketFactory sf(topo.host(b), small_transport(TransportKind::kTcp));
  sf.listen(80, [&](StreamSocket&) {});
  StreamSocket& c = cf.connect(topo.addr(a), {topo.addr(b), 80});
  topo.loop().run_until(500 * kMillisecond);
  EXPECT_TRUE(c.established());

  ASSERT_GE(order.size(), 4u);
  ASSERT_EQ(order.size() % 2, 0u);
  for (size_t i = 0; i < order.size(); i += 2) {
    EXPECT_EQ(order[i], 2) << "most recently spliced tap sees packets first";
    EXPECT_EQ(order[i + 1], 1);
  }
}

/// The workload engine drives real flows over a capacity topology and
/// exports completion-time percentiles through the registry.
TEST(Workload, EngineCompletesFlowsAndExportsPercentiles) {
  CapacitySpec spec;
  spec.clients = 2;
  spec.servers = 1;
  spec.bottleneck_rate_bps = 200e6;
  CapacityTopology cap = build_capacity_topology(spec, /*seed=*/5);
  Topology& topo = *cap.topo;

  WorkloadConfig wc;
  wc.clients = cap.clients;
  wc.servers = cap.servers;
  wc.seed = 5;
  FlowClass churn;
  churn.name = "test-churn";
  churn.arrival_rate_hz = 50.0;
  churn.mean_size = 20 * 1000;  // kFixed
  churn.persistent_per_client = 3;
  churn.transport = small_transport(TransportKind::kMptcp);
  wc.classes.push_back(churn);

  WorkloadEngine engine(topo, wc);
  engine.start();
  topo.loop().run_until(3 * kSecond);

  EXPECT_GE(engine.peak_concurrent(), 6u) << "persistent flows all open";
  EXPECT_GT(engine.completed(0), 20u);
  EXPECT_EQ(engine.errors(0), 0u);
  EXPECT_GT(engine.bytes_received(0), 0u);
  EXPECT_GT(topo.stats().value("workload.test-churn.fct_p50_us"), 0.0);
  EXPECT_GE(topo.stats().value("workload.test-churn.fct_p99_us"),
            topo.stats().value("workload.test-churn.fct_p50_us"));
}

std::set<std::string> registry_keys(StatsRegistry& reg) {
  std::set<std::string> keys;
  for (const auto& [name, value] : reg.flatten()) keys.insert(name);
  return keys;
}

/// The registry-hygiene contract at scale: after a churn of 1000+
/// short-lived connections fully drains, the registry's key set is
/// exactly what it was before the churn -- every per-connection and
/// per-subflow scope was removed, including for connections that died
/// abortively (server RST on a port nobody listens on).
TEST(Workload, RegistryReturnsToBaselineAfterThousandConnectionChurn) {
  CapacitySpec spec;
  spec.clients = 2;
  spec.servers = 1;
  spec.bottleneck_rate_bps = 400e6;
  CapacityTopology cap = build_capacity_topology(spec, /*seed=*/11);
  Topology& topo = *cap.topo;

  TransportConfig tc = small_transport(TransportKind::kMptcp);
  tc.mptcp.tcp.seed = 11;

  // Prime every lazily-created loop-global aggregate (tcp.*, mptcp.*)
  // with one throwaway connection + one abortive attempt, then drain.
  {
    SocketFactory cf(topo.host(cap.clients[0]), tc);
    SocketFactory sf(topo.host(cap.servers[0]), tc);
    HttpServer server(sf, 80);
    StreamSocket& s = cf.connect(topo.addr(cap.clients[0]),
                                 {topo.addr(cap.servers[0]), 80});
    cf.release_when_closed(s);
    s.on_connected = [&s] { s.write(make_http_request(1000)); };
    s.on_readable = [&s] {
      uint8_t buf[4096];
      while (s.read(buf) > 0) {
      }
      if (s.at_eof()) s.close();
    };
    // Abortive teardown: RST while the first subflow is still in
    // SYN_SENT. The server side sees SYN then RST and must also unwind
    // its half-created connection scopes.
    StreamSocket& dead = cf.connect(topo.addr(cap.clients[0], 1),
                                    {topo.addr(cap.servers[0]), 80});
    cf.release_when_closed(dead);
    topo.loop().schedule_in(10 * kMicrosecond,
                            [&cf, &dead] { cf.as_mptcp(dead)->abort(); });
    topo.loop().run_until(topo.loop().now() + 2 * kSecond);
    EXPECT_EQ(cf.live_sockets(), 0u) << "both sockets reaped";
  }
  topo.loop().run_until(topo.loop().now() + kSecond);

  const std::set<std::string> baseline = registry_keys(topo.stats());
  ASSERT_FALSE(baseline.empty());

  // Churn >= 1000 short flows through the workload engine.
  uint64_t churned = 0;
  {
    WorkloadConfig wc;
    wc.clients = cap.clients;
    wc.servers = cap.servers;
    wc.seed = 11;
    FlowClass churn;
    churn.name = "churn1k";
    churn.arrival_rate_hz = 400.0;  // x2 clients = 800 flows/s
    churn.mean_size = 4000;         // kFixed, fast turnaround
    churn.transport = tc;
    wc.classes.push_back(churn);

    WorkloadEngine engine(topo, wc);
    engine.start();
    while (engine.total_completed() < 1000) {
      const SimTime horizon = topo.loop().now() + kSecond;
      topo.loop().run_until(horizon);
      ASSERT_LT(topo.loop().now() / kSecond, 60) << "churn stalled";
    }
    churned = engine.total_completed();
    engine.stop();
    // Let in-flight flows finish and deferred destructions run.
    topo.loop().run_until(topo.loop().now() + 5 * kSecond);
    EXPECT_EQ(engine.concurrent(), 0u);
  }
  topo.loop().run_until(topo.loop().now() + kSecond);

  EXPECT_GE(churned, 1000u);
  const std::set<std::string> after = registry_keys(topo.stats());
  std::set<std::string> leaked, lost;
  std::set_difference(after.begin(), after.end(), baseline.begin(),
                      baseline.end(), std::inserter(leaked, leaked.end()));
  std::set_difference(baseline.begin(), baseline.end(), after.begin(),
                      after.end(), std::inserter(lost, lost.end()));
  EXPECT_TRUE(leaked.empty()) << "leaked keys, e.g. " << *leaked.begin();
  EXPECT_TRUE(lost.empty()) << "lost keys, e.g. " << *lost.begin();

  // Subflow churn on a long-lived connection obeys the same contract at
  // the subflow level: a third subflow joins and dies, after which the
  // connection is back at its dual-homed pair of subflows and the dead
  // subflow's registry scope is gone.
  {
    TransportConfig rc = tc;
    rc.mptcp.scheduler = SchedulerPolicy::kRedundant;
    SocketFactory cf(topo.host(cap.clients[0]), rc);
    SocketFactory sf(topo.host(cap.servers[0]), rc);
    HttpServer server(sf, 81);
    StreamSocket& s = cf.connect(topo.addr(cap.clients[0]),
                                 {topo.addr(cap.servers[0]), 81});
    // An effectively endless response keeps the scheduler running for
    // the whole phase.
    s.on_connected = [&s] { s.write(make_http_request(1'000'000'000)); };
    s.on_readable = [&s] {
      uint8_t buf[4096];
      while (s.read(buf) > 0) {
      }
    };
    topo.loop().run_until(topo.loop().now() + 2 * kSecond);
    MptcpConnection* conn = cf.as_mptcp(s);
    ASSERT_NE(conn, nullptr);
    ASSERT_EQ(conn->mode(), MptcpMode::kMptcp);
    ASSERT_EQ(conn->subflow_count(), 2u);  // dual-homed full mesh
    const std::set<std::string> before = registry_keys(topo.stats());

    MptcpSubflow* extra = conn->open_subflow(
        topo.addr(cap.clients[0], 1), {topo.addr(cap.servers[0]), 81});
    ASSERT_NE(extra, nullptr);
    const std::string extra_scope =
        conn->stats_scope() + ".sf" + std::to_string(extra->id()) + ".";
    topo.loop().run_until(topo.loop().now() + 2 * kSecond);
    ASSERT_EQ(conn->subflow_count(), 3u);
    extra = conn->subflow(2);
    EXPECT_TRUE(extra->mptcp_usable());
    const std::set<std::string> during = registry_keys(topo.stats());
    EXPECT_TRUE(std::any_of(during.begin(), during.end(),
                            [&](const std::string& k) {
                              return k.starts_with(extra_scope);
                            }));
    extra->abort();
    topo.loop().run_until(topo.loop().now() + kSecond);
    EXPECT_EQ(conn->subflow_count(), 2u) << "the dead subflow was not reaped";
    EXPECT_EQ(registry_keys(topo.stats()), before)
        << "subflow churn left registry keys behind";
  }
}

}  // namespace
}  // namespace mptcp
