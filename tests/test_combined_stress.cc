// Combined-stress scenarios: multiple hostile conditions at once, across
// every receive algorithm -- the kind of compound case a deployment hits.
#include <gtest/gtest.h>

#include <memory>

#include "app/bulk_app.h"
#include "app/scenario.h"
#include "core/mptcp_stack.h"
#include "middlebox/segment_splitter.h"
#include "middlebox/seq_rewriter.h"

namespace mptcp {
namespace {

class StressAlgo : public ::testing::TestWithParam<RecvAlgo> {};

TEST_P(StressAlgo, TsoPlusRewriterPlusLossPlusEveryAlgorithm) {
  // TSO resegmentation (duplicate mapping copies), ISN rewriting
  // (relative-offset mappings), 1% loss (subflow-level recovery), and the
  // chosen connection-level receive algorithm, simultaneously.
  PathSpec wifi = wifi_path();
  wifi.up.loss_prob = 0.01;
  TwoHostRig rig({wifi, threeg_path()});

  SegmentSplitter split(536);
  SeqRewriter rewriter;
  rig.splice_up(0, split);
  rig.splice_up(0, rewriter.forward_sink());
  rig.splice_down(0, rewriter.reverse_sink());

  MptcpConfig cfg;
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 400 * 1000;
  cfg.recv_algo = GetParam();
  MptcpStack cs(rig.client(), cfg), ss(rig.server(), cfg);
  std::unique_ptr<BulkReceiver> rx;
  ss.listen(80, [&](MptcpConnection& c) {
    rx = std::make_unique<BulkReceiver>(c);
  });
  MptcpConnection& cc =
      cs.connect(rig.client_addr(0), {rig.server_addr(), 80});
  BulkSender tx(cc, 2 * 1000 * 1000);
  rig.loop().run_until(60 * kSecond);

  EXPECT_EQ(cc.mode(), MptcpMode::kMptcp);
  EXPECT_GT(split.splits(), 100u);
  EXPECT_EQ(rx->bytes_received(), 2u * 1000u * 1000u);
  EXPECT_TRUE(rx->pattern_ok());
  EXPECT_TRUE(rx->saw_eof());
}

INSTANTIATE_TEST_SUITE_P(Algos, StressAlgo,
                         ::testing::Values(RecvAlgo::kRegular,
                                           RecvAlgo::kTree,
                                           RecvAlgo::kShortcuts,
                                           RecvAlgo::kAllShortcuts));

TEST(CombinedStress, RepeatedPathFlapping) {
  // The 3G path flaps up and down every 3 seconds; the stream must keep
  // flowing on WiFi and the flapping subflow must never corrupt it.
  TwoHostRig rig({wifi_path(), threeg_path()});
  MptcpConfig cfg;
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 400 * 1000;
  MptcpStack cs(rig.client(), cfg), ss(rig.server(), cfg);
  std::unique_ptr<BulkReceiver> rx;
  ss.listen(80, [&](MptcpConnection& c) {
    rx = std::make_unique<BulkReceiver>(c);
  });
  MptcpConnection& cc =
      cs.connect(rig.client_addr(0), {rig.server_addr(), 80});
  BulkSender tx(cc, 0);
  for (int flap = 0; flap < 6; ++flap) {
    rig.loop().schedule_in((3 + 3 * flap) * kSecond,
                           [&rig, flap] { rig.set_path_up(1, flap % 2); });
  }
  rig.loop().run_until(25 * kSecond);
  EXPECT_GT(rx->bytes_received(), 12u * 1000u * 1000u);  // ~WiFi rate min
  EXPECT_TRUE(rx->pattern_ok());
}

TEST(CombinedStress, BothDirectionsUnderLossAndSmallBuffers) {
  PathSpec a = wifi_path(), b = threeg_path();
  a.up.loss_prob = a.down.loss_prob = 0.005;
  b.up.loss_prob = b.down.loss_prob = 0.005;
  TwoHostRig rig({a, b});
  MptcpConfig cfg;
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 120 * 1000;
  MptcpStack cs(rig.client(), cfg), ss(rig.server(), cfg);
  MptcpConnection* sconn = nullptr;
  std::unique_ptr<BulkReceiver> srv_rx;
  std::unique_ptr<BulkSender> srv_tx;
  ss.listen(80, [&](MptcpConnection& c) {
    sconn = &c;
    srv_rx = std::make_unique<BulkReceiver>(c);
    srv_tx = std::make_unique<BulkSender>(c, 1000 * 1000);
    srv_tx->start();
  });
  MptcpConnection& cc =
      cs.connect(rig.client_addr(0), {rig.server_addr(), 80});
  BulkReceiver cli_rx(cc);
  BulkSender cli_tx(cc, 1000 * 1000);
  rig.loop().run_until(60 * kSecond);
  EXPECT_EQ(cli_rx.bytes_received(), 1000u * 1000u);
  EXPECT_EQ(srv_rx->bytes_received(), 1000u * 1000u);
  EXPECT_TRUE(cli_rx.pattern_ok());
  EXPECT_TRUE(srv_rx->pattern_ok());
}

}  // namespace
}  // namespace mptcp
