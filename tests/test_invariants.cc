// Wire-level protocol invariants, asserted over sniffed traffic.
#include <gtest/gtest.h>

#include <memory>

#include "app/bulk_app.h"
#include "app/scenario.h"
#include "core/mptcp_stack.h"
#include "middlebox/middlebox.h"
#include "middlebox/payload_modifier.h"

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

struct SniffedRig {
  SniffedRig() {
    rig.splice_down(0, down0);
    rig.splice_down(1, down1);
    rig.splice_up(0, up0);
    MptcpConfig cfg;
    cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 512 * 1024;
    cs = std::make_unique<MptcpStack>(rig.client(), cfg);
    ss = std::make_unique<MptcpStack>(rig.server(), cfg);
    ss->listen(80, [this](MptcpConnection& c) {
      sconn = &c;
      rx = std::make_unique<BulkReceiver>(c, false);
    });
    cc = &cs->connect(rig.client_addr(0), {rig.server_addr(), 80});
    tx = std::make_unique<BulkSender>(*cc, 0);
  }
  TwoHostRig rig{{wifi_path(), threeg_path()}};
  Sniffer down0, down1, up0;
  std::unique_ptr<MptcpStack> cs, ss;
  MptcpConnection* cc = nullptr;
  MptcpConnection* sconn = nullptr;
  std::unique_ptr<BulkSender> tx;
  std::unique_ptr<BulkReceiver> rx;
};

/// Scans a path's segments: per-segment (data_ack, scaled window).
void check_meta_right_edge_monotone(const std::vector<TcpSegment>& log,
                                    unsigned wscale) {
  uint64_t edge = 0;
  uint64_t last_data_ack = 0;
  for (const auto& seg : log) {
    const auto* dss = find_option<DssOption>(seg.options);
    if (dss == nullptr || !dss->data_ack) continue;
    // DATA_ACK is cumulative: never retreats on one path.
    EXPECT_GE(*dss->data_ack, last_data_ack);
    last_data_ack = *dss->data_ack;
    // Section 3.3.1: the receive window is interpreted against the data
    // sequence space; its right edge (DATA_ACK + window) must never be
    // rescinded.
    const uint64_t e = *dss->data_ack + (uint64_t{seg.window} << wscale);
    EXPECT_GE(e + 1460, edge) << "window right edge retreated";
    if (e > edge) edge = e;
  }
}

TEST(Invariants, MetaWindowRightEdgeNeverRetreats) {
  SniffedRig r;
  r.rig.loop().run_until(8 * kSecond);
  ASSERT_GT(r.rx->bytes_received(), 1000u * 1000u);
  // rcv_buf_max 512 KB -> wscale 3 (65535 << 3 > 512000).
  check_meta_right_edge_monotone(r.down0.log, 3);
  check_meta_right_edge_monotone(r.down1.log, 3);
}

TEST(Invariants, DataAcksConsistentAcrossSubflows) {
  SniffedRig r;
  r.rig.loop().run_until(8 * kSecond);
  // The max DATA_ACK seen on either path equals delivered bytes plus the
  // initial data sequence offset.
  uint64_t max_ack = 0;
  for (const auto* log : {&r.down0.log, &r.down1.log}) {
    for (const auto& seg : *log) {
      const auto* dss = find_option<DssOption>(seg.options);
      if (dss != nullptr && dss->data_ack) {
        max_ack = std::max(max_ack, *dss->data_ack);
      }
    }
  }
  // ACKs still in flight upstream of the sniffer may lag delivery by a
  // window's worth; the max sniffed DATA_ACK can never exceed delivery.
  EXPECT_LE(max_ack, r.cc->idsn_local() + 1 + r.rx->bytes_received());
  EXPECT_GE(max_ack + 128 * 1024,
            r.cc->idsn_local() + 1 + r.rx->bytes_received());
}

TEST(Invariants, MappingsCoverPayloadExactlyOnEachSegment) {
  SniffedRig r;
  r.rig.loop().run_until(3 * kSecond);
  size_t data_segments = 0;
  for (const auto& seg : r.up0.log) {
    if (seg.payload.empty() || seg.syn) continue;
    ++data_segments;
    const auto* dss = find_option<DssOption>(seg.options);
    ASSERT_NE(dss, nullptr);
    ASSERT_TRUE(dss->mapping.has_value());
    // The segment's payload must lie inside its mapping: [ssn, ssn+len).
    // (TSO splitting may make the mapping wider than one segment, never
    // narrower at origination.)
    EXPECT_GE(seg.payload.size(), 1u);
    EXPECT_LE(seg.payload.size(), dss->mapping->length);
  }
  EXPECT_GT(data_segments, 100u);
}

TEST(Invariants, OptionBudgetRespectedOnEveryEmittedSegment) {
  SniffedRig r;
  r.rig.loop().run_until(3 * kSecond);
  for (const auto* log : {&r.up0.log, &r.down0.log, &r.down1.log}) {
    for (const auto& seg : *log) {
      EXPECT_LE(seg.options_wire_size(), kMaxTcpOptionSpace)
          << seg.brief();
    }
  }
}

TEST(Invariants, NoNewSubflowsAfterChecksumFailure) {
  // After a checksum-triggered subflow reset, the connection must not
  // open or accept further subflows (the path environment is hostile).
  TwoHostRig rig({wifi_path(), threeg_path()});
  PayloadModifier alg(3);
  rig.splice_up(1, alg);
  MptcpConfig cfg;
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 512 * 1024;
  MptcpStack cs(rig.client(), cfg), ss(rig.server(), cfg);
  MptcpConnection* sconn = nullptr;
  std::unique_ptr<BulkReceiver> rx;
  ss.listen(80, [&](MptcpConnection& c) {
    if (!sconn) {
      sconn = &c;
      rx = std::make_unique<BulkReceiver>(c);
    }
  });
  MptcpConnection& cc = cs.connect(rig.client_addr(0),
                                   {rig.server_addr(), 80});
  BulkSender tx(cc, 0);
  rig.loop().run_until(5 * kSecond);
  ASSERT_GE(sconn->meta_stats().subflow_resets, 1u);
  const size_t subflows_after_reset = sconn->subflow_count();
  // The client cannot know *why* the subflow was reset, so it may try
  // again -- but the server, which detected the content modification,
  // refuses the join: the new subflow never becomes usable and the
  // server-side subflow set does not grow.
  // The refused retry may close and be destroyed while the loop runs, so
  // it is looked up by id afterwards.
  const MptcpSubflow* retry =
      cc.open_subflow(rig.client_addr(1), {rig.server_addr(), 80});
  const size_t retry_id = retry != nullptr ? retry->id() : SIZE_MAX;
  rig.loop().run_until(8 * kSecond);
  for (size_t i = 0; i < cc.subflow_count(); ++i) {
    if (cc.subflow(i)->id() == retry_id) {
      EXPECT_FALSE(cc.subflow(i)->mptcp_usable());
    }
  }
  EXPECT_EQ(sconn->subflow_count(), subflows_after_reset);
  EXPECT_TRUE(rx->pattern_ok());
}

TEST(Invariants, ChecksumRequiredIfEitherSideRequests) {
  // One side configured without checksums, the other with: the OR rule
  // means both must use them.
  TwoHostRig rig({wifi_path()});
  MptcpConfig on, off;
  on.dss_checksum = true;
  off.dss_checksum = false;
  MptcpStack cs(rig.client(), off), ss(rig.server(), on);
  MptcpConnection* sconn = nullptr;
  ss.listen(80, [&](MptcpConnection& c) { sconn = &c; });
  MptcpConnection& cc = cs.connect(rig.client_addr(0),
                                   {rig.server_addr(), 80});
  BulkSender tx(cc, 10 * 1000);
  rig.loop().run_until(2 * kSecond);
  EXPECT_TRUE(cc.dss_checksum_enabled());
  EXPECT_TRUE(sconn->dss_checksum_enabled());
}

TEST(Invariants, FastcloseOptionAppearsOnWire) {
  SniffedRig r;
  r.rig.loop().run_until(1 * kSecond);
  r.cc->abort();
  r.rig.loop().run_until(2 * kSecond);
  bool saw_fastclose = false;
  for (const auto& seg : r.up0.log) {
    if (find_option<MpFastcloseOption>(seg.options) != nullptr) {
      saw_fastclose = true;
    }
  }
  EXPECT_TRUE(saw_fastclose);
}

}  // namespace
}  // namespace mptcp
