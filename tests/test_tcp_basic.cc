// End-to-end tests of the plain TCP stack over the simulator.
#include <gtest/gtest.h>

#include <memory>

#include "app/bulk_app.h"
#include "app/scenario.h"
#include "tcp/tcp_connection.h"

namespace mptcp {
namespace {

/// Spawns a passive TCP endpoint per SYN and runs a bulk transfer from
/// client to server.
struct TcpBulkFixture {
  explicit TcpBulkFixture(const PathSpec& path, TcpConfig cfg = {},
                          uint64_t total = 0)
      : rig({path}) {
    server_listener = std::make_unique<TcpListener>(
        rig.server(), kPort, [this, cfg](const TcpSegment& syn) {
          server_conn = std::make_unique<TcpConnection>(
              rig.server(), cfg, syn.tuple.dst, syn.tuple.src);
          receiver = std::make_unique<BulkReceiver>(*server_conn);
          server_conn->accept_syn(syn);
        });
    client_conn = std::make_unique<TcpConnection>(
        rig.client(), cfg, Endpoint{rig.client_addr(0), 40000},
        Endpoint{rig.server_addr(), kPort});
    sender = std::make_unique<BulkSender>(*client_conn, total);
    client_conn->connect();
  }

  static constexpr Port kPort = 80;
  TwoHostRig rig;
  std::unique_ptr<TcpListener> server_listener;
  std::unique_ptr<TcpConnection> client_conn;
  std::unique_ptr<TcpConnection> server_conn;
  std::unique_ptr<BulkSender> sender;
  std::unique_ptr<BulkReceiver> receiver;
};

TEST(TcpBasic, HandshakeEstablishesBothEnds) {
  TcpBulkFixture f(wifi_path(), {}, 1000);
  f.rig.loop().run_until(200 * kMillisecond);
  ASSERT_NE(f.server_conn, nullptr);
  EXPECT_GE(f.receiver->bytes_received(), 1000u);
}

TEST(TcpBasic, TransfersExactByteCountWithIntegrity) {
  TcpBulkFixture f(wifi_path(), {}, 300 * 1000);
  f.rig.loop().run_until(3 * kSecond);
  ASSERT_NE(f.receiver, nullptr);
  EXPECT_EQ(f.receiver->bytes_received(), 300u * 1000u);
  EXPECT_TRUE(f.receiver->pattern_ok());
  EXPECT_TRUE(f.receiver->saw_eof());
}

TEST(TcpBasic, GracefulCloseReachesClosedOnBothEnds) {
  TcpBulkFixture f(wifi_path(), {}, 10 * 1000);
  // Server closes its direction once it has seen EOF.
  f.rig.loop().run_until(1 * kSecond);
  ASSERT_TRUE(f.receiver->saw_eof());
  f.server_conn->close();
  f.rig.loop().run_until(3 * kSecond);
  EXPECT_EQ(f.client_conn->state(), TcpState::kClosed);
  EXPECT_EQ(f.server_conn->state(), TcpState::kClosed);
}

TEST(TcpBasic, GoodputApproachesLinkRateOnWifi) {
  TcpConfig cfg;
  cfg.snd_buf_max = cfg.rcv_buf_max = 256 * 1024;
  TcpBulkFixture f(wifi_path(), cfg, 0);
  f.rig.loop().run_until(1 * kSecond);
  const uint64_t at_1s = f.receiver->bytes_received();
  f.rig.loop().run_until(11 * kSecond);
  const double bps =
      static_cast<double>(f.receiver->bytes_received() - at_1s) * 8.0 / 10.0;
  // 8 Mbps link; expect at least 85% utilization.
  EXPECT_GT(bps, 0.85 * 8e6);
  EXPECT_LT(bps, 8e6);
}

TEST(TcpBasic, GoodputOn3GIsRttLimitedWithSmallBuffer) {
  TcpConfig cfg;
  cfg.snd_buf_max = cfg.rcv_buf_max = 16 * 1024;  // ~0.43 BDP of 3G
  TcpBulkFixture f(threeg_path(), cfg, 0);
  f.rig.loop().run_until(11 * kSecond);
  const double bps =
      static_cast<double>(f.receiver->bytes_received()) * 8.0 / 11.0;
  // Window-limited: 16KB / 150ms ~ 0.87 Mbps, far below the 2 Mbps line.
  EXPECT_LT(bps, 1.2e6);
  EXPECT_GT(bps, 0.4e6);
}

TEST(TcpBasic, SurvivesRandomLoss) {
  PathSpec lossy = wifi_path();
  lossy.up.loss_prob = 0.01;
  lossy.down.loss_prob = 0.01;
  TcpBulkFixture f(lossy, {}, 500 * 1000);
  f.rig.loop().run_until(20 * kSecond);
  EXPECT_EQ(f.receiver->bytes_received(), 500u * 1000u);
  EXPECT_TRUE(f.receiver->pattern_ok());
  EXPECT_GT(f.client_conn->stats().retransmits, 0u);
}

TEST(TcpBasic, FastRetransmitPreferredOverTimeoutAtLowLoss) {
  PathSpec lossy = wifi_path();
  lossy.up.loss_prob = 0.005;
  TcpBulkFixture f(lossy, {}, 2 * 1000 * 1000);
  f.rig.loop().run_until(30 * kSecond);
  ASSERT_EQ(f.receiver->bytes_received(), 2000u * 1000u);
  EXPECT_GT(f.client_conn->stats().fast_retransmits, 0u);
  // Most recoveries should avoid the RTO.
  EXPECT_GT(f.client_conn->stats().fast_retransmits,
            f.client_conn->stats().timeouts);
}

TEST(TcpBasic, ZeroWindowThenPersistProbeRecovers) {
  // Receiver app never reads -> window closes; then it starts reading.
  TwoHostRig rig({wifi_path()});
  TcpConfig cfg;
  cfg.rcv_buf_max = 20 * 1000;
  cfg.snd_buf_max = 200 * 1000;
  std::unique_ptr<TcpConnection> server_conn;
  TcpListener listener(rig.server(), 80, [&](const TcpSegment& syn) {
    server_conn = std::make_unique<TcpConnection>(rig.server(), cfg,
                                                  syn.tuple.dst, syn.tuple.src);
    server_conn->accept_syn(syn);
  });
  TcpConnection client(rig.client(), cfg, Endpoint{rig.client_addr(0), 40000},
                       Endpoint{rig.server_addr(), 80});
  BulkSender sender(client, 100 * 1000);
  client.connect();

  rig.loop().run_until(2 * kSecond);
  ASSERT_NE(server_conn, nullptr);
  // Window must be exhausted: receiver holds ~rcv_buf of unread data.
  EXPECT_GE(server_conn->readable_bytes(), 19u * 1000u);
  EXPECT_LT(server_conn->readable_bytes(), 100u * 1000u);

  // Now drain everything.
  uint64_t total_read = 0;
  uint8_t buf[4096];
  PeriodicSampler reader(rig.loop(), 5 * kMillisecond, [&](SimTime) {
    for (;;) {
      const size_t n = server_conn->read(buf);
      total_read += n;
      if (n == 0) break;
    }
  });
  rig.loop().run_until(10 * kSecond);
  EXPECT_EQ(total_read, 100u * 1000u);
}

TEST(TcpBasic, AbortSendsRstAndPeerCloses) {
  TcpBulkFixture f(wifi_path(), {}, 0);
  f.rig.loop().run_until(500 * kMillisecond);
  ASSERT_NE(f.server_conn, nullptr);
  bool closed = false;
  f.server_conn->on_closed = [&] { closed = true; };
  f.client_conn->abort();
  f.rig.loop().run_until(1 * kSecond);
  EXPECT_TRUE(closed);
  EXPECT_EQ(f.server_conn->state(), TcpState::kClosed);
}

TEST(TcpBasic, BidirectionalTransfer) {
  TwoHostRig rig({wifi_path()});
  TcpConfig cfg;
  std::unique_ptr<TcpConnection> server_conn;
  std::unique_ptr<BulkReceiver> srv_rx;
  std::unique_ptr<BulkSender> srv_tx;
  TcpListener listener(rig.server(), 80, [&](const TcpSegment& syn) {
    server_conn = std::make_unique<TcpConnection>(rig.server(), cfg,
                                                  syn.tuple.dst, syn.tuple.src);
    srv_rx = std::make_unique<BulkReceiver>(*server_conn);
    srv_tx = std::make_unique<BulkSender>(*server_conn, 200 * 1000);
    server_conn->accept_syn(syn);
  });
  TcpConnection client(rig.client(), cfg, Endpoint{rig.client_addr(0), 40000},
                       Endpoint{rig.server_addr(), 80});
  BulkReceiver cli_rx(client);
  BulkSender cli_tx(client, 200 * 1000);
  client.connect();
  rig.loop().run_until(5 * kSecond);
  EXPECT_EQ(cli_rx.bytes_received(), 200u * 1000u);
  EXPECT_EQ(srv_rx->bytes_received(), 200u * 1000u);
  EXPECT_TRUE(cli_rx.pattern_ok());
  EXPECT_TRUE(srv_rx->pattern_ok());
}

TEST(TcpBasic, SynRetransmissionEstablishesOnLossySyns) {
  PathSpec p = wifi_path();
  p.up.loss_prob = 0.9;  // most SYNs die; retries must get through
  TcpBulkFixture f(p, {}, 1000);
  // After establishment remove the loss so data flows.
  f.rig.loop().schedule_in(10 * kSecond,
                           [&] { f.rig.up_link(0).set_loss_prob(0.0); });
  f.rig.loop().run_until(60 * kSecond);
  EXPECT_TRUE(f.client_conn->established() ||
              f.client_conn->state() == TcpState::kFinWait1 ||
              f.client_conn->state() == TcpState::kFinWait2 ||
              f.client_conn->state() == TcpState::kTimeWait ||
              f.client_conn->state() == TcpState::kClosed);
  ASSERT_NE(f.receiver, nullptr);
  EXPECT_GE(f.receiver->bytes_received(), 1000u);
}

}  // namespace
}  // namespace mptcp
