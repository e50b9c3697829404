// Behavioural tests for the paper's sender-side mechanisms (section 4.2):
// each mechanism must fire under the condition it was designed for and
// produce its intended effect.
#include <gtest/gtest.h>

#include <memory>

#include "app/bulk_app.h"
#include "app/scenario.h"
#include "core/mptcp_stack.h"

namespace mptcp {
namespace {

struct MechRig {
  MechRig(MptcpConfig cfg, const std::vector<PathSpec>& paths) : rig(paths) {
    cs = std::make_unique<MptcpStack>(rig.client(), cfg);
    ss = std::make_unique<MptcpStack>(rig.server(), cfg);
    ss->listen(80, [this](MptcpConnection& c) {
      sconn = &c;
      rx = std::make_unique<BulkReceiver>(c, false);
    });
    cc = &cs->connect(rig.client_addr(0), {rig.server_addr(), 80});
    tx = std::make_unique<BulkSender>(*cc, 0);
  }
  TwoHostRig rig;
  std::unique_ptr<MptcpStack> cs, ss;
  MptcpConnection* cc = nullptr;
  MptcpConnection* sconn = nullptr;
  std::unique_ptr<BulkSender> tx;
  std::unique_ptr<BulkReceiver> rx;
};

MptcpConfig small_buf(size_t kb) {
  MptcpConfig cfg;
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = kb * 1000;
  return cfg;
}

TEST(Mechanism1, FiresUnderWindowStallsAndObeysItsSwitch) {
  // Tight buffers: stalls occur and M1 must fire.
  MechRig tight(small_buf(150), {wifi_path(), threeg_path()});
  tight.rig.loop().run_until(10 * kSecond);
  EXPECT_GT(tight.cc->meta_stats().opportunistic_retransmits, 0u);

  // With the mechanism disabled it must never fire, whatever happens.
  MptcpConfig off = small_buf(150);
  off.opportunistic_retransmit = false;
  MechRig disabled(off, {wifi_path(), threeg_path()});
  disabled.rig.loop().run_until(10 * kSecond);
  EXPECT_EQ(disabled.cc->meta_stats().opportunistic_retransmits, 0u);
}

TEST(Mechanism1, ReinjectedBytesAreDuplicatesNotCorruption) {
  MptcpConfig cfg = small_buf(150);
  cfg.penalize_slow_subflows = false;  // isolate M1
  MechRig r(cfg, {wifi_path(), threeg_path()});
  r.rig.loop().run_until(10 * kSecond);
  EXPECT_GT(r.cc->meta_stats().reinjected_bytes, 0u);
  // The duplicate copies were recognized and dropped at the receiver
  // (either at the meta queue or before it), never delivered twice.
  EXPECT_GT(r.sconn->meta_stats().rx_duplicate_bytes +
                r.sconn->recv_queue_stats().duplicate_bytes,
            0u);
}

TEST(Mechanism2, PenalizesTheBlockingSubflowOnly) {
  MptcpConfig cfg = small_buf(200);
  MechRig r(cfg, {wifi_path(), threeg_path()});
  r.rig.loop().run_until(12 * kSecond);
  EXPECT_GT(r.cc->meta_stats().penalizations, 0u);
  // The 3G subflow (slow, deep-buffered) must end up with the smaller
  // congestion window; WiFi must be allowed to run.
  ASSERT_EQ(r.cc->subflow_count(), 2u);
  EXPECT_LT(r.cc->subflow(1)->cwnd(), 80u * 1000u);
  const double wifi_mbps =
      static_cast<double>(r.cc->subflow(0)->stats().bytes_sent) * 8 / 12e6;
  EXPECT_GT(wifi_mbps, 6.0);
}

TEST(Mechanism2, RateLimitedToOncePerRtt) {
  MptcpConfig cfg = small_buf(150);
  MechRig r(cfg, {wifi_path(), threeg_path()});
  r.rig.loop().run_until(10 * kSecond);
  // 10 s of 3G RTTs (>=150 ms each) bounds penalization count.
  EXPECT_LE(r.cc->meta_stats().penalizations, 10u * 1000u / 150u + 5u);
}

TEST(Mechanism3, AutotuneGrowsMetaBuffersTowardDemand) {
  MptcpConfig cfg;
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 1000 * 1000;
  cfg.meta_autotune = true;
  cfg.tcp.autotune = true;
  MechRig r(cfg, {wifi_path(), threeg_path()});
  const size_t snd0 = r.cc->meta_snd_capacity();
  r.rig.loop().run_until(15 * kSecond);
  // Grew from the small initial allocation...
  EXPECT_GT(r.cc->meta_snd_capacity(), snd0);
  EXPECT_GT(r.sconn->meta_rcv_capacity(), 64u * 1024u);
  // ...but not to silly sizes: 2 * sum(rate) * rtt_max with 3G queueing
  // stays well under a megabyte here.
  EXPECT_LE(r.cc->meta_snd_capacity(), 1000u * 1000u);
  // And throughput beats what the initial buffers alone could carry.
  const double mbps = static_cast<double>(r.rx->bytes_received()) * 8 / 15e6;
  EXPECT_GT(mbps, 4.0);
}

TEST(Mechanism4, CapBoundsSubflowQueueingDelay) {
  MptcpConfig uncapped = small_buf(1000);
  uncapped.opportunistic_retransmit = false;
  uncapped.penalize_slow_subflows = false;  // isolate the cap
  MptcpConfig capped = uncapped;
  capped.cap_subflow_cwnd = true;

  MechRig a(uncapped, {wifi_path(), threeg_path()});
  a.rig.loop().run_until(15 * kSecond);
  MechRig b(capped, {wifi_path(), threeg_path()});
  b.rig.loop().run_until(15 * kSecond);

  // Without the cap the 3G subflow's smoothed RTT inflates far past its
  // 150 ms base; the cap must keep it within a small multiple.
  const SimTime uncapped_srtt = a.cc->subflow(1)->srtt();
  const SimTime capped_srtt = b.cc->subflow(1)->srtt();
  EXPECT_LT(capped_srtt, 450 * kMillisecond);
  EXPECT_LT(capped_srtt, uncapped_srtt);
}

TEST(MetaRtoMechanism, RecoversDataStrandedOnStalledPath) {
  // Disable M1/M2 so only the connection-level retransmission timer can
  // rescue data stranded on a path that silently dies.
  MptcpConfig cfg = small_buf(300);
  cfg.opportunistic_retransmit = false;
  cfg.penalize_slow_subflows = false;
  MechRig r(cfg, {wifi_path(), threeg_path()});
  r.rig.loop().schedule_in(2 * kSecond, [&] { r.rig.set_path_up(1, false); });
  r.rig.loop().run_until(30 * kSecond);
  EXPECT_GT(r.cc->meta_stats().meta_rtx_timeouts, 0u);
  // WiFi keeps the stream flowing after the rescue.
  const uint64_t at30 = r.rx->bytes_received();
  r.rig.loop().run_until(35 * kSecond);
  EXPECT_GT(r.rx->bytes_received(), at30 + 3u * 1000u * 1000u);
}

TEST(Bidirectional, SimultaneousBlockStreamsBothDirections) {
  MptcpConfig cfg = small_buf(300);
  TwoHostRig rig({wifi_path(), threeg_path()});
  MptcpStack cs(rig.client(), cfg), ss(rig.server(), cfg);
  MptcpConnection* sconn = nullptr;
  std::unique_ptr<BlockReceiver> srv_rx;
  std::unique_ptr<BlockSender> srv_tx;
  ss.listen(80, [&](MptcpConnection& c) {
    sconn = &c;
    srv_rx = std::make_unique<BlockReceiver>(rig.loop(), c);
    srv_tx = std::make_unique<BlockSender>(rig.loop(), c);
  });
  MptcpConnection& cc = cs.connect(rig.client_addr(0),
                                   {rig.server_addr(), 80});
  BlockReceiver cli_rx(rig.loop(), cc);
  BlockSender cli_tx(rig.loop(), cc);
  rig.loop().run_until(500 * kMillisecond);
  ASSERT_NE(sconn, nullptr);
  srv_tx->fill_now();
  rig.loop().run_until(15 * kSecond);
  EXPECT_GT(srv_rx->blocks_completed(), 300u);
  EXPECT_GT(cli_rx.blocks_completed(), 300u);
}

}  // namespace
}  // namespace mptcp
