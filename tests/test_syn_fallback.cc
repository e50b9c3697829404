// Section 3.1's last resort: some hosts/paths never answer a SYN carrying
// unknown options (the companion study found 15 of the Alexa top 10,000
// did not respond). After a few unanswered SYNs the client must retry
// *without* MP_CAPABLE and carry on as plain TCP.
#include <gtest/gtest.h>

#include <memory>

#include "app/bulk_app.h"
#include "app/scenario.h"
#include "core/mptcp_stack.h"
#include "middlebox/middlebox.h"

namespace mptcp {
namespace {

/// Drops SYNs that carry any MPTCP option (modelling a host or box that
/// black-holes them); everything else passes.
class MptcpSynBlackhole final : public SimpleMiddlebox {
 public:
  uint64_t dropped = 0;

 protected:
  void process(TcpSegment seg) override {
    if (seg.syn) {
      for (const auto& o : seg.options) {
        if (is_mptcp_option(o)) {
          ++dropped;
          return;
        }
      }
    }
    emit(std::move(seg));
  }
};

TEST(SynFallback, RetransmittedSynOmitsMpCapableAndConnects) {
  TwoHostRig rig({wifi_path()});
  MptcpSynBlackhole hole;
  rig.splice_up(0, hole);

  MptcpConfig cfg;
  cfg.tcp.syn_option_fallback_after = 2;  // drop options from the 2nd rtx on
  MptcpStack cs(rig.client(), cfg), ss(rig.server(), cfg);
  MptcpConnection* sconn = nullptr;
  std::unique_ptr<BulkReceiver> rx;
  ss.listen(80, [&](MptcpConnection& c) {
    sconn = &c;
    rx = std::make_unique<BulkReceiver>(c);
  });
  MptcpConnection& cc =
      cs.connect(rig.client_addr(0), {rig.server_addr(), 80});
  BulkSender tx(cc, 100 * 1000);
  rig.loop().run_until(60 * kSecond);

  EXPECT_GE(hole.dropped, 1u);
  ASSERT_NE(sconn, nullptr) << "option-less SYN retry never connected";
  EXPECT_EQ(cc.mode(), MptcpMode::kFallbackTcp);
  EXPECT_EQ(rx->bytes_received(), 100u * 1000u);
  EXPECT_TRUE(rx->pattern_ok());
  EXPECT_TRUE(rx->saw_eof());
}

TEST(SynFallback, NoFallbackNeededWhenPathIsClean) {
  TwoHostRig rig({wifi_path()});
  MptcpConfig cfg;
  MptcpStack cs(rig.client(), cfg), ss(rig.server(), cfg);
  std::unique_ptr<BulkReceiver> rx;
  ss.listen(80, [&](MptcpConnection& c) {
    rx = std::make_unique<BulkReceiver>(c);
  });
  MptcpConnection& cc =
      cs.connect(rig.client_addr(0), {rig.server_addr(), 80});
  BulkSender tx(cc, 10 * 1000);
  rig.loop().run_until(2 * kSecond);
  // No SYN retransmissions, MPTCP on, no fallback.
  EXPECT_EQ(cc.subflow(0)->stats().timeouts, 0u);
  EXPECT_EQ(cc.mode(), MptcpMode::kMptcp);
}

}  // namespace
}  // namespace mptcp
