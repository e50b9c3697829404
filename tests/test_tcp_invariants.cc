// Plain-TCP wire invariants over sniffed traffic.
#include <gtest/gtest.h>

#include <memory>

#include "app/bulk_app.h"
#include "app/scenario.h"
#include "middlebox/middlebox.h"
#include "tcp/tcp_connection.h"

namespace mptcp {
namespace {

class Sniffer final : public SimpleMiddlebox {
 public:
  std::vector<TcpSegment> log;

 protected:
  void process(TcpSegment seg) override {
    log.push_back(seg);
    emit(std::move(seg));
  }
};

TEST(TcpInvariants, AckAndWindowRightEdgeMonotone) {
  TwoHostRig rig({wifi_path()});
  Sniffer down;
  rig.splice_down(0, down);
  TcpConfig cfg;
  cfg.rcv_buf_max = 512 * 1024;  // wscale 3
  cfg.snd_buf_max = 512 * 1024;
  std::unique_ptr<TcpConnection> sconn;
  std::unique_ptr<BulkReceiver> rx;
  TcpListener lis(rig.server(), 80, [&](const TcpSegment& syn) {
    sconn = std::make_unique<TcpConnection>(rig.server(), cfg, syn.tuple.dst,
                                            syn.tuple.src);
    rx = std::make_unique<BulkReceiver>(*sconn, false);
    sconn->accept_syn(syn);
  });
  TcpConnection cli(rig.client(), cfg, {rig.client_addr(0), 40000},
                    {rig.server_addr(), 80});
  BulkSender tx(cli, 0);
  cli.connect();
  rig.loop().run_until(8 * kSecond);
  ASSERT_GT(rx->bytes_received(), 4u * 1000u * 1000u);

  uint64_t last_ack = 0;
  uint64_t edge = 0;
  for (const auto& seg : down.log) {
    if (!seg.ack_flag || seg.rst) continue;
    const uint64_t ack = seq_unwrap(last_ack, seg.ack);
    EXPECT_GE(ack, last_ack) << "cumulative ACK retreated";
    last_ack = ack;
    if (seg.syn) continue;  // unscaled window on SYN/ACK
    const uint64_t e = ack + (uint64_t{seg.window} << 3);
    EXPECT_GE(e, edge) << "RFC 793: window right edge shrunk";
    if (e > edge) edge = e;
  }
}

TEST(TcpInvariants, SackBlocksAlwaysAboveCumulativeAck) {
  PathSpec lossy = wifi_path();
  lossy.up.loss_prob = 0.02;
  TwoHostRig rig({lossy});
  Sniffer down;
  rig.splice_down(0, down);
  TcpConfig cfg;
  std::unique_ptr<TcpConnection> sconn;
  std::unique_ptr<BulkReceiver> rx;
  TcpListener lis(rig.server(), 80, [&](const TcpSegment& syn) {
    sconn = std::make_unique<TcpConnection>(rig.server(), cfg, syn.tuple.dst,
                                            syn.tuple.src);
    rx = std::make_unique<BulkReceiver>(*sconn, false);
    sconn->accept_syn(syn);
  });
  TcpConnection cli(rig.client(), cfg, {rig.client_addr(0), 40000},
                    {rig.server_addr(), 80});
  BulkSender tx(cli, 0);
  cli.connect();
  rig.loop().run_until(10 * kSecond);

  size_t sacked_segments = 0;
  for (const auto& seg : down.log) {
    const auto* sack = find_option<SackOption>(seg.options);
    if (sack == nullptr) continue;
    ++sacked_segments;
    for (const auto& b : sack->blocks) {
      // Each block sits strictly above the cumulative ACK and is
      // non-empty (32-bit wrap-aware).
      EXPECT_TRUE(seq32_lt(seg.ack, b.begin)) << "block below ack";
      EXPECT_TRUE(seq32_lt(b.begin, b.end)) << "empty/inverted block";
    }
  }
  EXPECT_GT(sacked_segments, 10u);  // loss must have produced SACKs
}

}  // namespace
}  // namespace mptcp
