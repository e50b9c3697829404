// The section 4.1 interoperability matrix: MPTCP through every middlebox
// the paper models. For each element the expected outcome is one of
// "works as MPTCP", "falls back to TCP", or "loses the affected subflow
// but the connection survives" -- never a broken transfer.
#include <gtest/gtest.h>

#include <memory>

#include "app/bulk_app.h"
#include "app/scenario.h"
#include "core/mptcp_stack.h"
#include "middlebox/nat.h"
#include "middlebox/option_stripper.h"
#include "middlebox/payload_modifier.h"
#include "middlebox/proactive_acker.h"
#include "middlebox/segment_coalescer.h"
#include "middlebox/segment_splitter.h"
#include "middlebox/seq_rewriter.h"

namespace mptcp {
namespace {

constexpr uint64_t kTransfer = 400 * 1000;

struct MboxFixture {
  explicit MboxFixture(size_t n_paths = 2)
      : rig(n_paths > 1 ? std::vector{wifi_path(), threeg_path()}
                        : std::vector{wifi_path()}) {}

  /// Call after splicing middleboxes; starts the transfer.
  void start(uint64_t transfer = kTransfer) {
    MptcpConfig cfg;
    cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 512 * 1024;
    client_stack = std::make_unique<MptcpStack>(rig.client(), cfg);
    server_stack = std::make_unique<MptcpStack>(rig.server(), cfg);
    server_stack->listen(80, [this](MptcpConnection& c) {
      if (server_conn != nullptr) return;  // e.g. a stripped MP_JOIN SYN
      server_conn = &c;
      receiver = std::make_unique<BulkReceiver>(c);
    });
    client_conn = &client_stack->connect(rig.client_addr(0),
                                         Endpoint{rig.server_addr(), 80});
    sender = std::make_unique<BulkSender>(*client_conn, transfer);
  }

  void run(SimTime t = 30 * kSecond) { rig.loop().run_until(t); }

  TwoHostRig rig;
  std::unique_ptr<MptcpStack> client_stack, server_stack;
  MptcpConnection* client_conn = nullptr;
  MptcpConnection* server_conn = nullptr;
  std::unique_ptr<BulkSender> sender;
  std::unique_ptr<BulkReceiver> receiver;
};

// ---------------------------------------------------------------------------
// Option strippers (section 3.1).
// ---------------------------------------------------------------------------

TEST(Middlebox, McCapableStrippedFromSynFallsBackCleanly) {
  MboxFixture f;
  OptionStripper strip(OptionStripper::Scope::kSynOnly,
                       OptionStripper::What::kMpCapable);
  f.rig.splice_up(0, strip);
  f.start();
  f.run();
  EXPECT_EQ(f.client_conn->mode(), MptcpMode::kFallbackTcp);
  EXPECT_EQ(f.server_conn->mode(), MptcpMode::kFallbackTcp);
  EXPECT_EQ(f.receiver->bytes_received(), kTransfer);
  EXPECT_TRUE(f.receiver->pattern_ok());
  EXPECT_TRUE(f.receiver->saw_eof());
}

TEST(Middlebox, McCapableStrippedFromSynAckFallsBackCleanly) {
  MboxFixture f;
  OptionStripper strip(OptionStripper::Scope::kSynOnly,
                       OptionStripper::What::kMpCapable);
  f.rig.splice_down(0, strip);
  f.start();
  f.run();
  // The server believed MPTCP was on until the first data packet arrived
  // without options (the client, having fallen back, sends none).
  EXPECT_EQ(f.client_conn->mode(), MptcpMode::kFallbackTcp);
  EXPECT_EQ(f.server_conn->mode(), MptcpMode::kFallbackTcp);
  EXPECT_EQ(f.receiver->bytes_received(), kTransfer);
  EXPECT_TRUE(f.receiver->pattern_ok());
}

TEST(Middlebox, OptionsStrippedFromDataSegmentsFallsBack) {
  // SYN options pass but data options are dropped: negotiation succeeds
  // and both ends must then detect the stripping and fall back.
  MboxFixture f(1);
  OptionStripper up(OptionStripper::Scope::kNonSynOnly,
                    OptionStripper::What::kAllMptcp);
  OptionStripper down(OptionStripper::Scope::kNonSynOnly,
                      OptionStripper::What::kAllMptcp);
  f.rig.splice_up(0, up);
  f.rig.splice_down(0, down);
  f.start();
  f.run();
  EXPECT_EQ(f.client_conn->mode(), MptcpMode::kFallbackTcp);
  EXPECT_EQ(f.server_conn->mode(), MptcpMode::kFallbackTcp);
  EXPECT_EQ(f.receiver->bytes_received(), kTransfer);
  EXPECT_TRUE(f.receiver->pattern_ok());
}

TEST(Middlebox, MpJoinStrippedLosesSubflowNotConnection) {
  MboxFixture f;
  OptionStripper strip(OptionStripper::Scope::kSynOnly,
                       OptionStripper::What::kMpJoin);
  f.rig.splice_up(1, strip);
  f.start();
  f.run();
  EXPECT_EQ(f.client_conn->mode(), MptcpMode::kMptcp);
  // The join on path 1 failed; data flowed on path 0 only.
  EXPECT_EQ(f.client_conn->usable_subflow_count(), 0u)
      << "transfer finished; subflows closed";
  EXPECT_EQ(f.receiver->bytes_received(), kTransfer);
  EXPECT_TRUE(f.receiver->pattern_ok());
}

// ---------------------------------------------------------------------------
// Sequence rewriting and NAT (sections 3.2 / 3.3.4).
// ---------------------------------------------------------------------------

TEST(Middlebox, SequenceRewritingIsHarmless) {
  MboxFixture f;
  SeqRewriter rewriter;
  f.rig.splice_up(0, rewriter.forward_sink());
  f.rig.splice_down(0, rewriter.reverse_sink());
  f.start();
  f.run();
  EXPECT_EQ(f.client_conn->mode(), MptcpMode::kMptcp);
  EXPECT_GT(rewriter.flows_tracked(), 0u);
  EXPECT_EQ(f.receiver->bytes_received(), kTransfer);
  EXPECT_TRUE(f.receiver->pattern_ok());
  EXPECT_EQ(f.client_conn->meta_stats().fallbacks, 0u);
}

TEST(Middlebox, NatOnJoinPathStillJoinsByToken) {
  MboxFixture f;
  Nat nat(IpAddr(192, 0, 2, 1));
  f.rig.splice_up(1, nat.forward_sink());
  // Return traffic to the public address must route through the NAT: the
  // gateway sends it down the 3G path, whose reverse NAT side rewrites it
  // for the client.
  f.rig.splice_down(1, nat.reverse_sink());
  f.rig.topo().alias_route(nat.public_addr(), f.rig.client_addr(1));
  f.start();
  f.run();
  EXPECT_EQ(f.client_conn->mode(), MptcpMode::kMptcp);
  EXPECT_GT(nat.mappings(), 0u);
  EXPECT_EQ(f.receiver->bytes_received(), kTransfer);
  EXPECT_TRUE(f.receiver->pattern_ok());
}

// ---------------------------------------------------------------------------
// Resegmentation (sections 3.3.4 / 3.3.5).
// ---------------------------------------------------------------------------

TEST(Middlebox, TsoSplitterCopiesOptionsAndMappingsSurvive) {
  MboxFixture f;
  // Endpoints send 1460-byte segments; the splitter re-cuts them to 536.
  SegmentSplitter split(536);
  f.rig.splice_up(0, split);
  f.start();
  f.run();
  EXPECT_EQ(f.client_conn->mode(), MptcpMode::kMptcp);
  EXPECT_GT(split.splits(), 0u);
  EXPECT_EQ(f.receiver->bytes_received(), kTransfer);
  EXPECT_TRUE(f.receiver->pattern_ok());
}

TEST(Middlebox, CoalescerLosesMappingsButConnectionRecovers) {
  MboxFixture f;
  // Hold long enough to span back-to-back segment spacing at 8 Mbps.
  SegmentCoalescer coalesce(f.rig.loop(), 5 * kMillisecond);
  f.rig.splice_up(0, coalesce);
  f.start(150 * 1000);
  f.run(60 * kSecond);
  EXPECT_GT(coalesce.coalesced(), 0u);
  // Unmapped bytes are dropped at the data level and repaired by
  // connection-level retransmission: slower, never corrupt.
  EXPECT_EQ(f.receiver->bytes_received(), 150u * 1000u);
  EXPECT_TRUE(f.receiver->pattern_ok());
  EXPECT_TRUE(f.receiver->saw_eof());
}

// ---------------------------------------------------------------------------
// Pro-active ACKing proxies (section 3.3.5).
// ---------------------------------------------------------------------------

TEST(Middlebox, ProactiveAckerDoesNotCorruptTransfer) {
  MboxFixture f;
  ProactiveAcker proxy;
  f.rig.splice_up(0, proxy.forward_sink());
  proxy.reverse_sink().set_downstream(&f.rig.client());
  f.start();
  f.run();
  EXPECT_GT(proxy.forged_acks(), 0u);
  EXPECT_EQ(f.receiver->bytes_received(), kTransfer);
  EXPECT_TRUE(f.receiver->pattern_ok());
  EXPECT_TRUE(f.receiver->saw_eof());
}

TEST(Middlebox, AckCorrectionSurvivedByDataAck) {
  MboxFixture f;
  ProactiveAcker proxy(ProactiveAcker::AckPolicy::kCorrectUnseen);
  f.rig.splice_up(0, proxy.forward_sink());
  f.rig.splice_down(0, proxy.reverse_sink());
  f.start();
  f.run();
  EXPECT_EQ(f.receiver->bytes_received(), kTransfer);
  EXPECT_TRUE(f.receiver->pattern_ok());
}

// ---------------------------------------------------------------------------
// Content-modifying middleboxes (section 3.3.6).
// ---------------------------------------------------------------------------

TEST(Middlebox, PayloadModifierOnOneOfTwoPathsResetsThatSubflow) {
  MboxFixture f;
  PayloadModifier alg(/*interval=*/3);
  f.rig.splice_up(1, alg);
  f.start();
  f.run();
  EXPECT_GT(alg.segments_modified(), 0u);
  EXPECT_GE(f.server_conn->meta_stats().checksum_failures, 1u);
  EXPECT_GE(f.server_conn->meta_stats().subflow_resets, 1u);
  // The modified data was rejected; everything arrived intact via path 0.
  EXPECT_EQ(f.receiver->bytes_received(), kTransfer);
  EXPECT_TRUE(f.receiver->pattern_ok());
  EXPECT_TRUE(f.receiver->saw_eof());
}

TEST(Middlebox, PayloadModifierOnOnlyPathFallsBackAndDelivers) {
  MboxFixture f(1);
  PayloadModifier alg(/*interval=*/5);
  f.rig.splice_up(0, alg);
  f.start();
  f.run();
  EXPECT_GE(f.server_conn->meta_stats().checksum_failures, 1u);
  EXPECT_GE(f.server_conn->meta_stats().fallbacks, 1u);
  // Fallback semantics: the middlebox may rewrite; data flows, modified.
  EXPECT_EQ(f.receiver->bytes_received(), kTransfer);
  EXPECT_GT(f.receiver->pattern_errors(), 0u);
  EXPECT_TRUE(f.receiver->saw_eof());
}

TEST(Middlebox, ChecksumDisabledMissesModification) {
  // Negative control: with DSS checksums off, the modification sails
  // through -- the exact trade the paper allows for datacenters.
  MboxFixture f(1);
  PayloadModifier alg(/*interval=*/5);
  f.rig.splice_up(0, alg);
  MptcpConfig cfg;
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 512 * 1024;
  cfg.dss_checksum = false;
  f.client_stack = std::make_unique<MptcpStack>(f.rig.client(), cfg);
  f.server_stack = std::make_unique<MptcpStack>(f.rig.server(), cfg);
  f.server_stack->listen(80, [&f](MptcpConnection& c) {
    f.server_conn = &c;
    f.receiver = std::make_unique<BulkReceiver>(c);
  });
  f.client_conn = &f.client_stack->connect(f.rig.client_addr(0),
                                           Endpoint{f.rig.server_addr(), 80});
  f.sender = std::make_unique<BulkSender>(*f.client_conn, kTransfer);
  f.run();
  EXPECT_EQ(f.server_conn->meta_stats().checksum_failures, 0u);
  EXPECT_EQ(f.receiver->bytes_received(), kTransfer);
  EXPECT_GT(f.receiver->pattern_errors(), 0u);  // corruption undetected
}

// ---------------------------------------------------------------------------
// Hole-sensitive proxies (section 3.3).
// ---------------------------------------------------------------------------

TEST(Middlebox, SubflowStreamsPresentNoHolesToHoleDroppers) {
  // The design claim: per-subflow contiguous sequence spaces never show a
  // hole to a middlebox on a loss-free path segment, so proxies that
  // refuse data-after-hole are harmless.
  MboxFixture f;
  HoleDropper dropper;
  f.rig.splice_up(0, dropper);
  // Keep the path loss-free: bound outstanding data below the link buffer
  // so slow-start bursts cannot overflow it (holes from packet loss are a
  // different phenomenon from the design-induced holes of striping).
  MptcpConfig cfg;
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 64 * 1024;
  f.client_stack = std::make_unique<MptcpStack>(f.rig.client(), cfg);
  f.server_stack = std::make_unique<MptcpStack>(f.rig.server(), cfg);
  f.server_stack->listen(80, [&f](MptcpConnection& c) {
    f.server_conn = &c;
    f.receiver = std::make_unique<BulkReceiver>(c);
  });
  f.client_conn = &f.client_stack->connect(f.rig.client_addr(0),
                                           Endpoint{f.rig.server_addr(), 80});
  f.sender = std::make_unique<BulkSender>(*f.client_conn, kTransfer);
  f.run();
  EXPECT_EQ(dropper.holes_dropped(), 0u);
  EXPECT_EQ(f.receiver->bytes_received(), kTransfer);
  EXPECT_TRUE(f.receiver->pattern_ok());
}

}  // namespace
}  // namespace mptcp
