// Workload-layer tests: HTTP closed loop, block latency app, bonding.
#include <gtest/gtest.h>

#include <memory>

#include "app/bulk_app.h"
#include "app/http_app.h"
#include "app/scenario.h"
#include "app/socket_factory.h"
#include "bond/bonding.h"
#include "core/mptcp_stack.h"

namespace mptcp {
namespace {

TEST(HttpApp, ClosedLoopServesRequestsOverMptcp) {
  TwoHostRig rig({ethernet_path(1e9), ethernet_path(1e9)});
  TransportConfig cfg;
  cfg.mptcp.meta_snd_buf_max = cfg.mptcp.meta_rcv_buf_max = 256 * 1024;
  SocketFactory cs(rig.client(), cfg), ss(rig.server(), cfg);
  HttpServer server(ss, 80);
  HttpClientPool pool(cs, rig.client_addr(0), Endpoint{rig.server_addr(), 80},
                      /*clients=*/10, /*response_size=*/20 * 1000);
  pool.start();
  rig.loop().run_until(2 * kSecond);
  EXPECT_GT(pool.completed(), 100u);
  EXPECT_EQ(pool.errors(), 0u);
  // The server may have finished responses the clients are still reading.
  EXPECT_GE(server.requests_served(), pool.completed());
  EXPECT_LE(server.requests_served(), pool.completed() + 10);
}

TEST(HttpApp, WorksOverPlainTcpFallback) {
  TwoHostRig rig({ethernet_path(1e9)});
  TransportConfig cfg;
  cfg.kind = TransportKind::kTcp;  // plain TCP on both sides
  SocketFactory cs(rig.client(), cfg), ss(rig.server(), cfg);
  HttpServer server(ss, 80);
  HttpClientPool pool(cs, rig.client_addr(0), Endpoint{rig.server_addr(), 80},
                      5, 50 * 1000);
  pool.start();
  rig.loop().run_until(2 * kSecond);
  EXPECT_GT(pool.completed(), 50u);
  EXPECT_EQ(pool.errors(), 0u);
}

TEST(HttpApp, LargeResponsesUseBothPaths) {
  TwoHostRig rig({ethernet_path(1e9), ethernet_path(1e9)});
  TransportConfig cfg;
  cfg.mptcp.meta_snd_buf_max = cfg.mptcp.meta_rcv_buf_max = 512 * 1024;
  SocketFactory cs(rig.client(), cfg), ss(rig.server(), cfg);
  HttpServer server(ss, 80);
  HttpClientPool pool(cs, rig.client_addr(0), Endpoint{rig.server_addr(), 80},
                      20, 300 * 1000);
  pool.start();
  rig.loop().run_until(2 * kSecond);
  EXPECT_GT(pool.completed(), 100u);
  // Both paths must carry response traffic (the first subflow dominates
  // short LAN transfers; the join spills over under contention).
  EXPECT_GT(rig.down_link(0).stats().delivered_bytes, 10u * 1000 * 1000);
  EXPECT_GT(rig.down_link(1).stats().delivered_bytes, 1u * 1000 * 1000);
}

TEST(BlockApp, MeasuresApplicationDelay) {
  TwoHostRig rig({wifi_path()});
  MptcpConfig cfg;
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 200 * 1024;
  MptcpStack cs(rig.client(), cfg), ss(rig.server(), cfg);
  MptcpConnection* sconn = nullptr;
  std::unique_ptr<BlockReceiver> rx;
  ss.listen(80, [&](MptcpConnection& c) {
    sconn = &c;
    rx = std::make_unique<BlockReceiver>(rig.loop(), c);
  });
  auto& cc = cs.connect(rig.client_addr(0), Endpoint{rig.server_addr(), 80});
  BlockSender tx(rig.loop(), cc);
  rig.loop().run_until(10 * kSecond);
  ASSERT_GT(rx->blocks_completed(), 100u);
  // Delay must be at least the one-way propagation (10 ms) and is
  // expected to include queueing in the 200 KB send buffer.
  EXPECT_GT(rx->delays().min(), 0.010);
  EXPECT_LT(rx->delays().percentile(0.5), 1.0);
}

TEST(Bonding, RoundRobinStripesPacketsEvenly) {
  EventLoop loop;
  NullSink a, b;
  BondDevice bond;
  bond.add_leg(&a);
  bond.add_leg(&b);
  for (int i = 0; i < 100; ++i) {
    TcpSegment seg;
    seg.payload.assign(100, 0);
    bond.deliver(std::move(seg));
  }
  EXPECT_EQ(a.dropped(), 50u);
  EXPECT_EQ(b.dropped(), 50u);
}

TEST(Bonding, SingleTcpConnectionAggregatesTwoLinksDespiteReordering) {
  // One TCP connection over a 2 x 100 Mbps round-robin bond: throughput
  // should exceed one leg's rate. (DupACK-based fast retransmit tolerates
  // the mild reordering of equal legs.)
  EventLoop loop;
  Host client(loop, "client"), server(loop, "server");
  const IpAddr caddr(10, 0, 0, 2), saddr(10, 99, 0, 1);

  LinkConfig leg_cfg;
  leg_cfg.rate_bps = 100e6;
  leg_cfg.prop_delay = 50 * kMicrosecond;
  leg_cfg.buffer_bytes = 250 * 1000;
  Link up1(loop, leg_cfg, "up1"), up2(loop, leg_cfg, "up2");
  Link down1(loop, leg_cfg, "down1"), down2(loop, leg_cfg, "down2");
  up1.set_target(&server);
  up2.set_target(&server);
  down1.set_target(&client);
  down2.set_target(&client);

  BondDevice client_bond, server_bond;
  client_bond.add_leg(&up1);
  client_bond.add_leg(&up2);
  server_bond.add_leg(&down1);
  server_bond.add_leg(&down2);

  client.add_interface(caddr, &client_bond);
  server.add_interface(saddr, &server_bond);

  TcpConfig cfg;
  cfg.snd_buf_max = cfg.rcv_buf_max = 2 * 1024 * 1024;
  std::unique_ptr<TcpConnection> sconn;
  std::unique_ptr<BulkReceiver> rx;
  TcpListener listener(server, 80, [&](const TcpSegment& syn) {
    sconn = std::make_unique<TcpConnection>(server, cfg, syn.tuple.dst,
                                            syn.tuple.src);
    rx = std::make_unique<BulkReceiver>(*sconn);
    sconn->accept_syn(syn);
  });
  TcpConnection cli(client, cfg, Endpoint{caddr, 40000},
                    Endpoint{saddr, 80});
  BulkSender tx(cli, 0);
  cli.connect();

  loop.run_until(1 * kSecond);
  const uint64_t at1 = rx->bytes_received();
  loop.run_until(3 * kSecond);
  const double bps = static_cast<double>(rx->bytes_received() - at1) * 8 / 2;
  EXPECT_GT(bps, 120e6);  // clearly more than one 100 Mbps leg
  EXPECT_TRUE(rx->pattern_ok());
}

}  // namespace
}  // namespace mptcp
