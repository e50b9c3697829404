// End-to-end MPTCP tests: negotiation, joins, striping, fallback,
// teardown.
#include <gtest/gtest.h>

#include <memory>

#include "app/bulk_app.h"
#include "app/scenario.h"
#include "core/mptcp_stack.h"

namespace mptcp {
namespace {

struct MptcpFixture {
  MptcpFixture(const std::vector<PathSpec>& paths, MptcpConfig client_cfg,
               MptcpConfig server_cfg, uint64_t transfer_bytes = 0)
      : rig(paths) {
    client_stack = std::make_unique<MptcpStack>(rig.client(), client_cfg);
    server_stack = std::make_unique<MptcpStack>(rig.server(), server_cfg);
    server_stack->listen(80, [this](MptcpConnection& c) {
      server_conn = &c;
      receiver = std::make_unique<BulkReceiver>(c);
    });
    client_conn = &client_stack->connect(rig.client_addr(0),
                                         Endpoint{rig.server_addr(), 80});
    sender = std::make_unique<BulkSender>(*client_conn, transfer_bytes);
  }

  TwoHostRig rig;
  std::unique_ptr<MptcpStack> client_stack;
  std::unique_ptr<MptcpStack> server_stack;
  MptcpConnection* client_conn = nullptr;
  MptcpConnection* server_conn = nullptr;
  std::unique_ptr<BulkSender> sender;
  std::unique_ptr<BulkReceiver> receiver;
};

MptcpConfig default_cfg() {
  MptcpConfig cfg;
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 1024 * 1024;
  return cfg;
}

TEST(MptcpBasic, NegotiatesAndJoinsSecondSubflow) {
  MptcpFixture f({wifi_path(), threeg_path()}, default_cfg(), default_cfg(),
                 /*transfer_bytes=*/0);  // continuous: keep subflows busy
  f.rig.loop().run_until(2 * kSecond);
  ASSERT_NE(f.server_conn, nullptr);
  EXPECT_EQ(f.client_conn->mode(), MptcpMode::kMptcp);
  EXPECT_EQ(f.server_conn->mode(), MptcpMode::kMptcp);
  EXPECT_EQ(f.client_conn->subflow_count(), 2u);
  EXPECT_EQ(f.server_conn->subflow_count(), 2u);
  EXPECT_EQ(f.client_conn->usable_subflow_count(), 2u);
  EXPECT_EQ(f.client_conn->remote_token(), f.server_conn->local_token());
  EXPECT_EQ(f.client_conn->local_token(), f.server_conn->remote_token());
}

TEST(MptcpBasic, TransfersWithIntegrityAcrossTwoPaths) {
  MptcpFixture f({wifi_path(), threeg_path()}, default_cfg(), default_cfg(),
                 2 * 1000 * 1000);
  f.rig.loop().run_until(10 * kSecond);
  ASSERT_NE(f.receiver, nullptr);
  EXPECT_EQ(f.receiver->bytes_received(), 2u * 1000u * 1000u);
  EXPECT_TRUE(f.receiver->pattern_ok());
  EXPECT_TRUE(f.receiver->saw_eof());
  // Both subflows must actually carry data (aggregation, not failover).
  EXPECT_GT(f.client_conn->subflow(0)->stats().bytes_sent, 100u * 1000u);
  EXPECT_GT(f.client_conn->subflow(1)->stats().bytes_sent, 100u * 1000u);
}

TEST(MptcpBasic, AggregatesBandwidthOfBothPaths) {
  // WiFi 8 Mbps + 3G 2 Mbps: with ample buffers MPTCP should clearly
  // exceed what the best single path could deliver.
  MptcpFixture f({wifi_path(), threeg_path()}, default_cfg(), default_cfg());
  // Skip the slow-start / buffer-fill transient, then average 10 seconds.
  f.rig.loop().run_until(5 * kSecond);
  const uint64_t at5 = f.receiver->bytes_received();
  f.rig.loop().run_until(15 * kSecond);
  const double bps =
      static_cast<double>(f.receiver->bytes_received() - at5) * 8.0 / 10.0;
  EXPECT_GT(bps, 8.2e6);   // clearly more than WiFi alone (~7.7)
  EXPECT_LT(bps, 10.1e6);  // can't beat the sum
}

TEST(MptcpBasic, FallsBackWhenServerSpeaksOnlyTcp) {
  MptcpConfig tcp_only = default_cfg();
  tcp_only.enabled = false;
  MptcpFixture f({wifi_path(), threeg_path()}, default_cfg(), tcp_only,
                 200 * 1000);
  f.rig.loop().run_until(5 * kSecond);
  EXPECT_EQ(f.client_conn->mode(), MptcpMode::kFallbackTcp);
  EXPECT_EQ(f.receiver->bytes_received(), 200u * 1000u);
  EXPECT_TRUE(f.receiver->pattern_ok());
  EXPECT_TRUE(f.receiver->saw_eof());
  // No joins should have been attempted.
  EXPECT_EQ(f.client_conn->subflow_count(), 1u);
}

TEST(MptcpBasic, FallsBackWhenClientSpeaksOnlyTcp) {
  MptcpConfig tcp_only = default_cfg();
  tcp_only.enabled = false;
  MptcpFixture f({wifi_path()}, tcp_only, default_cfg(), 200 * 1000);
  f.rig.loop().run_until(5 * kSecond);
  ASSERT_NE(f.server_conn, nullptr);
  EXPECT_EQ(f.server_conn->mode(), MptcpMode::kFallbackTcp);
  EXPECT_EQ(f.receiver->bytes_received(), 200u * 1000u);
  EXPECT_TRUE(f.receiver->saw_eof());
}

TEST(MptcpBasic, DataFinTeardownClosesAllSubflows) {
  MptcpFixture f({wifi_path(), threeg_path()}, default_cfg(), default_cfg(),
                 100 * 1000);
  bool client_closed = false;
  f.client_conn->on_closed = [&] { client_closed = true; };
  f.rig.loop().run_until(2 * kSecond);
  ASSERT_TRUE(f.receiver->saw_eof());
  f.server_conn->close();  // close the reverse direction too
  f.rig.loop().run_until(10 * kSecond);
  EXPECT_TRUE(client_closed);
  for (size_t i = 0; i < f.client_conn->subflow_count(); ++i) {
    EXPECT_EQ(f.client_conn->subflow(i)->state(), TcpState::kClosed)
        << "subflow " << i;
  }
}

TEST(MptcpBasic, ServerToClientTransferWorks) {
  MptcpFixture f({wifi_path(), threeg_path()}, default_cfg(), default_cfg(),
                 0);
  std::unique_ptr<BulkSender> srv_sender;
  std::unique_ptr<BulkReceiver> cli_receiver;
  cli_receiver = std::make_unique<BulkReceiver>(*f.client_conn);
  f.rig.loop().run_until(500 * kMillisecond);
  ASSERT_NE(f.server_conn, nullptr);
  srv_sender = std::make_unique<BulkSender>(*f.server_conn, 1000 * 1000);
  // The server socket is already connected; kick the sender manually.
  srv_sender->start();
  f.rig.loop().run_until(8 * kSecond);
  EXPECT_EQ(cli_receiver->bytes_received(), 1000u * 1000u);
  EXPECT_TRUE(cli_receiver->pattern_ok());
}

TEST(MptcpBasic, SingleSubflowWhenOnlyOnePath) {
  MptcpFixture f({wifi_path()}, default_cfg(), default_cfg(), 300 * 1000);
  f.rig.loop().run_until(3 * kSecond);
  EXPECT_EQ(f.client_conn->mode(), MptcpMode::kMptcp);
  EXPECT_EQ(f.client_conn->subflow_count(), 1u);
  EXPECT_EQ(f.receiver->bytes_received(), 300u * 1000u);
  EXPECT_TRUE(f.receiver->pattern_ok());
}

TEST(MptcpBasic, ChecksumsCanBeDisabled) {
  MptcpConfig no_csum = default_cfg();
  no_csum.dss_checksum = false;
  MptcpFixture f({wifi_path(), threeg_path()}, no_csum, no_csum, 500 * 1000);
  f.rig.loop().run_until(5 * kSecond);
  EXPECT_FALSE(f.client_conn->dss_checksum_enabled());
  EXPECT_EQ(f.receiver->bytes_received(), 500u * 1000u);
  EXPECT_TRUE(f.receiver->pattern_ok());
}

TEST(MptcpBasic, SubflowLossDoesNotCorruptStream) {
  PathSpec lossy3g = threeg_path();
  lossy3g.up.loss_prob = 0.02;
  lossy3g.down.loss_prob = 0.02;
  MptcpFixture f({wifi_path(), lossy3g}, default_cfg(), default_cfg(),
                 1000 * 1000);
  f.rig.loop().run_until(20 * kSecond);
  EXPECT_EQ(f.receiver->bytes_received(), 1000u * 1000u);
  EXPECT_TRUE(f.receiver->pattern_ok());
  EXPECT_TRUE(f.receiver->saw_eof());
}

TEST(MptcpBasic, PathFailureMidTransferSurvivesOnOtherPath) {
  MptcpFixture f({wifi_path(), threeg_path()}, default_cfg(), default_cfg(),
                 2 * 1000 * 1000);
  // Kill the WiFi path (path 0, carrying most traffic) after 1 s.
  f.rig.loop().schedule_in(1 * kSecond, [&] { f.rig.set_path_up(0, false); });
  f.rig.loop().run_until(60 * kSecond);
  EXPECT_EQ(f.receiver->bytes_received(), 2u * 1000u * 1000u);
  EXPECT_TRUE(f.receiver->pattern_ok());
  EXPECT_TRUE(f.receiver->saw_eof());
}

}  // namespace
}  // namespace mptcp
