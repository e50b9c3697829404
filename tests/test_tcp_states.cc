// TCP state-machine and negotiation edge cases.
#include <gtest/gtest.h>

#include <memory>

#include "app/bulk_app.h"
#include "app/scenario.h"
#include "tcp/tcp_connection.h"

namespace mptcp {
namespace {

struct Pair {
  explicit Pair(TcpConfig ccfg = {}, TcpConfig scfg = {},
                const PathSpec& path = wifi_path())
      : rig({path}) {
    listener = std::make_unique<TcpListener>(
        rig.server(), 80, [this, scfg](const TcpSegment& syn) {
          server = std::make_unique<TcpConnection>(rig.server(), scfg,
                                                   syn.tuple.dst,
                                                   syn.tuple.src);
          server->accept_syn(syn);
        });
    client = std::make_unique<TcpConnection>(
        rig.client(), ccfg, Endpoint{rig.client_addr(0), 40000},
        Endpoint{rig.server_addr(), 80});
  }
  TwoHostRig rig;
  std::unique_ptr<TcpListener> listener;
  std::unique_ptr<TcpConnection> client;
  std::unique_ptr<TcpConnection> server;
};

std::vector<uint8_t> bytes(size_t n, uint8_t v = 7) {
  return std::vector<uint8_t>(n, v);
}

TEST(TcpStates, HalfCloseAllowsReverseData) {
  Pair p;
  p.client->connect();
  p.rig.loop().run_until(200 * kMillisecond);
  ASSERT_TRUE(p.client->established());

  // Client closes its direction immediately.
  p.client->close();
  p.rig.loop().run_until(400 * kMillisecond);
  EXPECT_EQ(p.server->state(), TcpState::kCloseWait);
  EXPECT_EQ(p.client->state(), TcpState::kFinWait2);

  // Server can still send data on its half of the connection.
  p.server->write(bytes(5000));
  p.rig.loop().run_until(1 * kSecond);
  EXPECT_EQ(p.client->readable_bytes(), 5000u);

  p.server->close();
  p.rig.loop().run_until(3 * kSecond);
  EXPECT_EQ(p.server->state(), TcpState::kClosed);
  EXPECT_EQ(p.client->state(), TcpState::kClosed);  // via TIME_WAIT
}

TEST(TcpStates, SimultaneousCloseReachesClosed) {
  Pair p;
  p.client->connect();
  p.rig.loop().run_until(200 * kMillisecond);
  // Both sides close at the same instant: FINs cross in flight.
  p.client->close();
  p.server->close();
  p.rig.loop().run_until(5 * kSecond);
  EXPECT_EQ(p.client->state(), TcpState::kClosed);
  EXPECT_EQ(p.server->state(), TcpState::kClosed);
}

TEST(TcpStates, MssNegotiatesToMinimum) {
  TcpConfig small;
  small.mss = 536;
  Pair p(TcpConfig{}, small);
  p.client->connect();
  p.rig.loop().run_until(200 * kMillisecond);
  EXPECT_EQ(p.client->config().mss, 536u);
  EXPECT_EQ(p.server->config().mss, 536u);
}

TEST(TcpStates, WindowScaleDisabledWhenEitherSideRefuses) {
  TcpConfig no_ws;
  no_ws.window_scale = false;
  no_ws.rcv_buf_max = 1 << 20;
  TcpConfig big;
  big.rcv_buf_max = 1 << 20;
  big.snd_buf_max = 1 << 20;
  Pair p(no_ws, big);
  std::unique_ptr<BulkReceiver> rx;
  p.client->connect();
  p.rig.loop().run_until(200 * kMillisecond);
  ASSERT_TRUE(p.client->established());
  // Without scaling the server can never grant more than 64 KB.
  BulkSender tx(*p.client, 0);
  tx.start();
  p.rig.loop().run_until(2 * kSecond);
  EXPECT_LE(p.client->peer_window(), 65535u);
}

TEST(TcpStates, DuplicateFinInTimeWaitIsReAcked) {
  TcpConfig long_tw;
  long_tw.time_wait = 10 * kSecond;  // keep TIME_WAIT alive for the probe
  Pair p(long_tw, long_tw);
  p.client->connect();
  p.rig.loop().run_until(200 * kMillisecond);
  p.client->close();
  p.rig.loop().run_until(300 * kMillisecond);
  p.server->close();
  p.rig.loop().run_until(400 * kMillisecond);
  // Client should now be in TIME_WAIT (it closed first).
  EXPECT_EQ(p.client->state(), TcpState::kTimeWait);
  const uint64_t acks_before = p.client->stats().segments_sent;
  // Replay the server's FIN (as if its last ACK were lost).
  TcpSegment fin;
  fin.tuple = {p.server->local(), p.server->remote()};
  fin.seq = seq_wrap(p.server->snd_nxt() - 1);
  fin.ack = seq_wrap(p.server->rcv_nxt());
  fin.ack_flag = true;
  fin.fin = true;
  p.client->on_segment(fin);
  EXPECT_GT(p.client->stats().segments_sent, acks_before);
}

TEST(TcpStates, SynToClosedPortIsIgnoredNotCrash) {
  TwoHostRig rig({wifi_path()});
  TcpConfig cfg;
  cfg.max_syn_retries = 2;
  TcpConnection client(rig.client(), cfg, {rig.client_addr(0), 40000},
                       {rig.server_addr(), 9999});  // nobody listens
  bool closed = false;
  client.on_closed = [&] { closed = true; };
  client.connect();
  rig.loop().run_until(30 * kSecond);
  EXPECT_TRUE(closed);  // gave up after SYN retries
  EXPECT_GT(rig.server().demux_misses(), 0u);
}

TEST(TcpStates, PersistProbesSurviveLostWindowUpdate) {
  // Receiver never reads until late; loss on the ACK path may eat the
  // window update, and the persist probe must recover it.
  PathSpec path = wifi_path();
  path.down.loss_prob = 0.15;  // lossy ACK path
  TwoHostRig rig({path});
  TcpConfig cfg;
  cfg.rcv_buf_max = 10 * 1000;
  cfg.snd_buf_max = 100 * 1000;
  std::unique_ptr<TcpConnection> server;
  TcpListener lis(rig.server(), 80, [&](const TcpSegment& syn) {
    server = std::make_unique<TcpConnection>(rig.server(), cfg, syn.tuple.dst,
                                             syn.tuple.src);
    server->accept_syn(syn);
  });
  TcpConnection client(rig.client(), cfg, {rig.client_addr(0), 40000},
                       {rig.server_addr(), 80});
  BulkSender tx(client, 50 * 1000);
  client.connect();
  rig.loop().run_until(3 * kSecond);
  // Window closed; nothing read yet.
  ASSERT_GE(server->readable_bytes(), 8u * 1000u);
  // Now the app drains periodically; despite ACK loss, the transfer must
  // finish (persist probes re-elicit window updates).
  uint8_t buf[4096];
  uint64_t total = 0;
  PeriodicSampler reader(rig.loop(), 20 * kMillisecond, [&](SimTime) {
    for (;;) {
      const size_t n = server->read(buf);
      total += n;
      if (n == 0) break;
    }
  });
  rig.loop().run_until(60 * kSecond);
  EXPECT_EQ(total, 50u * 1000u);
}

TEST(TcpStates, ReceiveAutotuneGrowsBufferUnderLoad) {
  TcpConfig cfg;
  cfg.autotune = true;
  cfg.buf_initial = 8 * 1024;
  cfg.rcv_buf_max = 512 * 1024;
  cfg.snd_buf_max = 512 * 1024;
  Pair p(cfg, cfg, threeg_path());  // high BDP path needs a big window
  std::unique_ptr<BulkReceiver> rx;
  p.client->connect();
  BulkSender tx(*p.client, 0);
  p.rig.loop().run_until(200 * kMillisecond);
  rx = std::make_unique<BulkReceiver>(*p.server, false);
  p.rig.loop().run_until(20 * kSecond);
  EXPECT_GT(p.server->rcv_buf_capacity(), 8u * 1024u);
  // And throughput is not stuck at the initial window's ceiling
  // (8 KB / 150 ms would be ~0.4 Mbps).
  const double mbps = static_cast<double>(rx->bytes_received()) * 8 / 20e6;
  EXPECT_GT(mbps, 1.0);
}

TEST(TcpStates, AbortDuringHandshakeLeavesNoState) {
  Pair p;
  p.client->connect();
  // Abort before the SYN/ACK can arrive.
  p.client->abort();
  p.rig.loop().run_until(5 * kSecond);
  EXPECT_EQ(p.client->state(), TcpState::kClosed);
  // The server side (if created) must not linger established: it gets a
  // RST when it retransmits its SYN/ACK into a closed port... or times
  // out its handshake. Either way it must not be ESTABLISHED.
  if (p.server) {
    EXPECT_NE(p.server->state(), TcpState::kEstablished);
  }
}

}  // namespace
}  // namespace mptcp
