// Parameterized property sweeps across path-characteristic grids
// (the paper's section 4.2.1 "sensitivity analysis"): for every
// combination, transfers must complete with integrity and MPTCP must not
// collapse below what TCP on the best path would get.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "app/bulk_app.h"
#include "app/scenario.h"
#include "core/mptcp_stack.h"
#include "tcp/tcp_connection.h"

namespace mptcp {
namespace {

PathSpec make_path(double rate_bps, SimTime rtt, SimTime buf_delay,
                   double loss, uint64_t seed) {
  PathSpec s;
  s.name = "sweep";
  s.up.rate_bps = s.down.rate_bps = rate_bps;
  s.up.prop_delay = s.down.prop_delay = rtt / 2;
  s.up.buffer_bytes = s.down.buffer_bytes = std::max<size_t>(
      LinkConfig::buffer_for_delay(rate_bps, buf_delay), 3000);
  s.up.loss_prob = s.down.loss_prob = loss;
  s.up.loss_seed = seed;
  s.down.loss_seed = seed ^ 0xff;
  return s;
}

// --- TCP integrity under a (rate, rtt, loss) grid ----------------------------

using TcpGridParam = std::tuple<double /*Mbps*/, int /*rtt ms*/,
                                double /*loss*/>;

class TcpGrid : public ::testing::TestWithParam<TcpGridParam> {};

TEST_P(TcpGrid, TransferCompletesWithIntegrity) {
  const auto [mbps, rtt_ms, loss] = GetParam();
  TwoHostRig rig({make_path(mbps * 1e6, rtt_ms * kMillisecond,
                            100 * kMillisecond, loss, 42)});
  TcpConfig cfg;
  cfg.snd_buf_max = cfg.rcv_buf_max = 256 * 1024;
  std::unique_ptr<TcpConnection> sconn;
  std::unique_ptr<BulkReceiver> rx;
  TcpListener lis(rig.server(), 80, [&](const TcpSegment& syn) {
    sconn = std::make_unique<TcpConnection>(rig.server(), cfg, syn.tuple.dst,
                                            syn.tuple.src);
    rx = std::make_unique<BulkReceiver>(*sconn);
    sconn->accept_syn(syn);
  });
  TcpConnection cli(rig.client(), cfg, {rig.client_addr(0), 40000},
                    {rig.server_addr(), 80});
  BulkSender tx(cli, 400 * 1000);
  cli.connect();
  rig.loop().run_until(120 * kSecond);
  EXPECT_EQ(rx->bytes_received(), 400u * 1000u);
  EXPECT_TRUE(rx->pattern_ok());
  EXPECT_TRUE(rx->saw_eof());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TcpGrid,
    ::testing::Combine(::testing::Values(1.0, 10.0, 100.0),
                       ::testing::Values(5, 50, 300),
                       ::testing::Values(0.0, 0.005, 0.03)));

// --- MPTCP vs best-path TCP across asymmetric path pairs ----------------------

struct PairCase {
  const char* name;
  PathSpec a;
  PathSpec b;
};

class MptcpPairGrid : public ::testing::TestWithParam<int> {
 public:
  static std::vector<PairCase> cases() {
    return {
        {"wifi+3g", wifi_path(), threeg_path()},
        {"symmetric-10M",
         make_path(10e6, 40 * kMillisecond, 100 * kMillisecond, 0, 1),
         make_path(10e6, 40 * kMillisecond, 100 * kMillisecond, 0, 2)},
        {"rate-asym-20x",
         make_path(20e6, 30 * kMillisecond, 60 * kMillisecond, 0, 3),
         make_path(1e6, 30 * kMillisecond, 60 * kMillisecond, 0, 4)},
        {"rtt-asym-10x",
         make_path(8e6, 10 * kMillisecond, 50 * kMillisecond, 0, 5),
         make_path(8e6, 100 * kMillisecond, 200 * kMillisecond, 0, 6)},
        {"lossy-secondary", wifi_path(),
         make_path(4e6, 80 * kMillisecond, 300 * kMillisecond, 0.02, 7)},
        {"both-lossy",
         make_path(6e6, 30 * kMillisecond, 80 * kMillisecond, 0.005, 8),
         make_path(6e6, 60 * kMillisecond, 80 * kMillisecond, 0.005, 9)},
    };
  }
};

TEST_P(MptcpPairGrid, IntegrityAndNoCollapseBelowHalfBestTcp) {
  const PairCase c = cases()[static_cast<size_t>(GetParam())];
  // Measure best single-path TCP.
  auto tcp_goodput = [&](size_t idx) {
    TwoHostRig rig({c.a, c.b}, 99);
    TcpConfig cfg;
    cfg.snd_buf_max = cfg.rcv_buf_max = 512 * 1024;
    std::unique_ptr<TcpConnection> sconn;
    std::unique_ptr<BulkReceiver> rx;
    TcpListener lis(rig.server(), 80, [&](const TcpSegment& syn) {
      sconn = std::make_unique<TcpConnection>(rig.server(), cfg,
                                              syn.tuple.dst, syn.tuple.src);
      rx = std::make_unique<BulkReceiver>(*sconn, false);
      sconn->accept_syn(syn);
    });
    TcpConnection cli(rig.client(), cfg, {rig.client_addr(idx), 40000},
                      {rig.server_addr(), 80});
    BulkSender tx(cli, 0);
    cli.connect();
    rig.loop().run_until(4 * kSecond);
    const uint64_t b0 = rx->bytes_received();
    rig.loop().run_until(16 * kSecond);
    return static_cast<double>(rx->bytes_received() - b0) * 8.0 / 12.0;
  };
  const double best_tcp = std::max(tcp_goodput(0), tcp_goodput(1));

  TwoHostRig rig({c.a, c.b}, 99);
  MptcpConfig cfg;
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 512 * 1024;
  MptcpStack cs(rig.client(), cfg), ss(rig.server(), cfg);
  MptcpConnection* sconn = nullptr;
  std::unique_ptr<BulkReceiver> rx;
  ss.listen(80, [&](MptcpConnection& conn) {
    sconn = &conn;
    rx = std::make_unique<BulkReceiver>(conn);
  });
  MptcpConnection& cli =
      cs.connect(rig.client_addr(0), Endpoint{rig.server_addr(), 80});
  BulkSender tx(cli, 0);
  rig.loop().run_until(4 * kSecond);
  const uint64_t b0 = rx->bytes_received();
  rig.loop().run_until(16 * kSecond);
  const double mptcp_goodput =
      static_cast<double>(rx->bytes_received() - b0) * 8.0 / 12.0;

  EXPECT_TRUE(rx->pattern_ok()) << c.name;
  // The paper's target is >= best TCP; we assert a generous floor so the
  // sweep flags real collapses without being brittle to CC noise.
  EXPECT_GT(mptcp_goodput, 0.5 * best_tcp) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Pairs, MptcpPairGrid, ::testing::Range(0, 6));

// --- buffer-size sweep: integrity at every buffer size -------------------------

class BufferSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(BufferSweep, MptcpDeliversExactlyAtEveryBufferSize) {
  TwoHostRig rig({wifi_path(), threeg_path()});
  MptcpConfig cfg;
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = GetParam();
  MptcpStack cs(rig.client(), cfg), ss(rig.server(), cfg);
  std::unique_ptr<BulkReceiver> rx;
  ss.listen(80, [&](MptcpConnection& conn) {
    rx = std::make_unique<BulkReceiver>(conn);
  });
  MptcpConnection& cli =
      cs.connect(rig.client_addr(0), Endpoint{rig.server_addr(), 80});
  BulkSender tx(cli, 600 * 1000);
  rig.loop().run_until(60 * kSecond);
  EXPECT_EQ(rx->bytes_received(), 600u * 1000u) << GetParam();
  EXPECT_TRUE(rx->pattern_ok());
  EXPECT_TRUE(rx->saw_eof());
}

INSTANTIATE_TEST_SUITE_P(Sizes, BufferSweep,
                         ::testing::Values(16 * 1024, 50 * 1000, 100 * 1000,
                                           250 * 1000, 500 * 1000,
                                           1000 * 1000, 4 * 1000 * 1000));

// --- receive algorithm sweep: every algorithm end to end -----------------------

class RecvAlgoSweep : public ::testing::TestWithParam<RecvAlgo> {};

TEST_P(RecvAlgoSweep, EndToEndIntegrityWithEachAlgorithm) {
  TwoHostRig rig({wifi_path(), threeg_path()});
  MptcpConfig cfg;
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 512 * 1024;
  cfg.recv_algo = GetParam();
  MptcpStack cs(rig.client(), cfg), ss(rig.server(), cfg);
  std::unique_ptr<BulkReceiver> rx;
  MptcpConnection* sconn = nullptr;
  ss.listen(80, [&](MptcpConnection& conn) {
    sconn = &conn;
    rx = std::make_unique<BulkReceiver>(conn);
  });
  MptcpConnection& cli =
      cs.connect(rig.client_addr(0), Endpoint{rig.server_addr(), 80});
  BulkSender tx(cli, 1000 * 1000);
  rig.loop().run_until(30 * kSecond);
  EXPECT_EQ(rx->bytes_received(), 1000u * 1000u);
  EXPECT_TRUE(rx->pattern_ok());
  // The interleaved paths must actually exercise the ooo queue.
  EXPECT_GT(sconn->recv_queue_stats().inserts, 10u);
}

INSTANTIATE_TEST_SUITE_P(Algos, RecvAlgoSweep,
                         ::testing::Values(RecvAlgo::kRegular, RecvAlgo::kTree,
                                           RecvAlgo::kShortcuts,
                                           RecvAlgo::kAllShortcuts));

}  // namespace
}  // namespace mptcp
