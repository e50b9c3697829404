// Protocol-level MPTCP tests: what actually goes on the wire during
// handshakes, authentication failure handling, path management, and
// teardown signalling. A sniffer element records traffic for inspection.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "app/bulk_app.h"
#include "app/scenario.h"
#include "core/mptcp_stack.h"
#include "middlebox/middlebox.h"

namespace mptcp {
namespace {

/// Records copies of everything that passes, then forwards.
class Sniffer final : public SimpleMiddlebox {
 public:
  std::vector<TcpSegment> log;

 protected:
  void process(TcpSegment seg) override {
    log.push_back(seg);
    emit(std::move(seg));
  }
};

/// Corrupts the MAC of MP_JOIN SYN/ACKs (a blind-spoof stand-in).
class JoinMacCorrupter final : public SimpleMiddlebox {
 public:
  uint64_t corrupted = 0;

 protected:
  void process(TcpSegment seg) override {
    if (auto* mpj = find_option<MpJoinOption>(seg.options)) {
      if (mpj->phase == JoinPhase::kSynAck) {
        mpj->mac ^= 0xdeadbeef;
        ++corrupted;
      }
    }
    emit(std::move(seg));
  }
};

struct Rig2 {
  Rig2(MptcpConfig ccfg, MptcpConfig scfg, size_t paths = 2)
      : rig(paths > 1 ? std::vector{wifi_path(), threeg_path()}
                      : std::vector{wifi_path()}) {
    cs = std::make_unique<MptcpStack>(rig.client(), ccfg);
    ss = std::make_unique<MptcpStack>(rig.server(), scfg);
    ss->listen(80, [this](MptcpConnection& c) {
      if (sconn == nullptr) {
        sconn = &c;
        rx = std::make_unique<BulkReceiver>(c);
      }
    });
  }
  void connect(uint64_t transfer = 100 * 1000) {
    cconn = &cs->connect(rig.client_addr(0), {rig.server_addr(), 80});
    tx = std::make_unique<BulkSender>(*cconn, transfer);
  }
  TwoHostRig rig;
  std::unique_ptr<MptcpStack> cs, ss;
  MptcpConnection* cconn = nullptr;
  MptcpConnection* sconn = nullptr;
  std::unique_ptr<BulkSender> tx;
  std::unique_ptr<BulkReceiver> rx;
};

MptcpConfig cfg1m() {
  MptcpConfig c;
  c.meta_snd_buf_max = c.meta_rcv_buf_max = 1024 * 1024;
  return c;
}

// ---------------------------------------------------------------------------
// Handshake wire format (section 3.1 / 3.2).
// ---------------------------------------------------------------------------

TEST(MptcpWire, HandshakeCarriesKeysAndEcho) {
  Rig2 r(cfg1m(), cfg1m(), 1);
  Sniffer up, down;
  r.rig.splice_up(0, up);
  r.rig.splice_down(0, down);
  r.connect();
  r.rig.loop().run_until(5 * kSecond);

  // SYN: MP_CAPABLE with the client key only.
  ASSERT_FALSE(up.log.empty());
  const auto* syn_mpc = find_option<MpCapableOption>(up.log[0].options);
  ASSERT_TRUE(up.log[0].syn);
  ASSERT_NE(syn_mpc, nullptr);
  ASSERT_TRUE(syn_mpc->sender_key.has_value());
  EXPECT_EQ(*syn_mpc->sender_key, r.cconn->local_key());
  EXPECT_FALSE(syn_mpc->receiver_key.has_value());

  // SYN/ACK: MP_CAPABLE with the server key.
  ASSERT_FALSE(down.log.empty());
  const auto* synack_mpc = find_option<MpCapableOption>(down.log[0].options);
  ASSERT_TRUE(down.log[0].syn && down.log[0].ack_flag);
  ASSERT_NE(synack_mpc, nullptr);
  EXPECT_EQ(*synack_mpc->sender_key, r.sconn->local_key());

  // Third ACK: MP_CAPABLE echo with both keys (section 3.1: repeated
  // until the peer demonstrably has it).
  ASSERT_GE(up.log.size(), 2u);
  const auto* echo = find_option<MpCapableOption>(up.log[1].options);
  ASSERT_NE(echo, nullptr);
  EXPECT_EQ(*echo->sender_key, r.cconn->local_key());
  ASSERT_TRUE(echo->receiver_key.has_value());
  EXPECT_EQ(*echo->receiver_key, r.sconn->local_key());
}

TEST(MptcpWire, TokensAreSha1OfKeys) {
  Rig2 r(cfg1m(), cfg1m(), 1);
  r.connect();
  r.rig.loop().run_until(1 * kSecond);
  EXPECT_EQ(r.cconn->local_token(),
            mptcp_token_from_key(r.cconn->local_key()));
  EXPECT_EQ(r.cconn->remote_token(),
            mptcp_token_from_key(r.sconn->local_key()));
}

TEST(MptcpWire, JoinSynCarriesServerTokenAndFreshNonce) {
  Rig2 r(cfg1m(), cfg1m(), 2);
  Sniffer join_path;
  r.rig.splice_up(1, join_path);
  r.connect();
  r.rig.loop().run_until(2 * kSecond);

  ASSERT_FALSE(join_path.log.empty());
  const TcpSegment& jsyn = join_path.log[0];
  ASSERT_TRUE(jsyn.syn);
  const auto* mpj = find_option<MpJoinOption>(jsyn.options);
  ASSERT_NE(mpj, nullptr);
  EXPECT_EQ(mpj->phase, JoinPhase::kSyn);
  // The token names the *receiver's* (server's) key.
  EXPECT_EQ(mpj->token, r.sconn->local_token());
}

TEST(MptcpWire, DataSegmentsCarryDssWithRelativeMappings) {
  Rig2 r(cfg1m(), cfg1m(), 1);
  Sniffer up;
  r.rig.splice_up(0, up);
  r.connect(50 * 1000);
  r.rig.loop().run_until(5 * kSecond);

  size_t data_segments = 0, with_mapping = 0;
  for (const auto& seg : up.log) {
    if (seg.payload.empty()) continue;
    ++data_segments;
    const auto* dss = find_option<DssOption>(seg.options);
    if (dss == nullptr || !dss->mapping) continue;
    ++with_mapping;
    EXPECT_TRUE(dss->data_ack.has_value());
    // Relative subflow sequence numbers start at 1 (ISN+1 is byte one).
    EXPECT_GE(dss->mapping->ssn_rel, 1u);
    EXPECT_LE(dss->mapping->ssn_rel, 60u * 1000u);
    EXPECT_TRUE(dss->mapping->checksum.has_value());
  }
  EXPECT_GT(data_segments, 10u);
  EXPECT_EQ(data_segments, with_mapping);
}

TEST(MptcpWire, DataFinSignaledInDss) {
  Rig2 r(cfg1m(), cfg1m(), 1);
  Sniffer up;
  r.rig.splice_up(0, up);
  r.connect(10 * 1000);
  r.rig.loop().run_until(5 * kSecond);
  bool saw_data_fin = false;
  for (const auto& seg : up.log) {
    const auto* dss = find_option<DssOption>(seg.options);
    if (dss != nullptr && dss->data_fin) saw_data_fin = true;
  }
  EXPECT_TRUE(saw_data_fin);
  EXPECT_TRUE(r.rx->saw_eof());
}

// ---------------------------------------------------------------------------
// Authentication (section 3.2).
// ---------------------------------------------------------------------------

TEST(MptcpAuth, CorruptedJoinMacRejectsSubflow) {
  Rig2 r(cfg1m(), cfg1m(), 2);
  JoinMacCorrupter corrupter;
  r.rig.splice_down(1, corrupter);
  r.connect(200 * 1000);
  r.rig.loop().run_until(10 * kSecond);

  EXPECT_GT(corrupter.corrupted, 0u);
  // The join was aborted; data still flows on the initial subflow.
  EXPECT_EQ(r.rx->bytes_received(), 200u * 1000u);
  EXPECT_TRUE(r.rx->pattern_ok());
  // The corrupted-MAC subflow must never become usable.
  for (size_t i = 0; i < r.cconn->subflow_count(); ++i) {
    if (r.cconn->subflow(i)->kind() == SubflowKind::kJoinActive) {
      EXPECT_FALSE(r.cconn->subflow(i)->mptcp_usable());
    }
  }
}

TEST(MptcpAuth, JoinToUnknownTokenIsIgnored) {
  // A join SYN whose token matches nothing must not crash or create
  // connections; the stack silently drops it.
  TwoHostRig rig({wifi_path()});
  MptcpStack ss(rig.server(), cfg1m());
  size_t accepted = 0;
  ss.listen(80, [&](MptcpConnection&) { ++accepted; });

  TcpSegment syn;
  syn.tuple = {{rig.client_addr(0), 5555}, {rig.server_addr(), 80}};
  syn.syn = true;
  syn.seq = 1000;
  MpJoinOption mpj;
  mpj.phase = JoinPhase::kSyn;
  mpj.token = 0xdeadbeef;
  mpj.nonce = 42;
  syn.options.push_back(mpj);
  rig.server().deliver(syn);
  rig.loop().run_until(1 * kSecond);
  EXPECT_EQ(accepted, 0u);
  EXPECT_EQ(ss.live_connections(), 0u);
}

// ---------------------------------------------------------------------------
// Path management (sections 3.2 / 3.4).
// ---------------------------------------------------------------------------

TEST(MptcpPaths, RemoveAddrClosesMatchingSubflows) {
  Rig2 r(cfg1m(), cfg1m(), 2);
  r.connect(/*continuous*/ 0);
  r.rig.loop().run_until(2 * kSecond);
  ASSERT_EQ(r.cconn->usable_subflow_count(), 2u);

  r.rig.set_path_up(1, false);
  r.cconn->remove_local_address(r.rig.client_addr(1));
  r.rig.loop().run_until(4 * kSecond);

  // Server side dropped its half of the 3G subflow.
  size_t server_open = 0;
  for (size_t i = 0; i < r.sconn->subflow_count(); ++i) {
    if (r.sconn->subflow(i)->state() != TcpState::kClosed) ++server_open;
  }
  EXPECT_EQ(server_open, 1u);
  // And the transfer keeps running on WiFi.
  const uint64_t before = r.rx->bytes_received();
  r.rig.loop().run_until(6 * kSecond);
  EXPECT_GT(r.rx->bytes_received(), before + 500 * 1000);
}

TEST(MptcpPaths, FastcloseAbortsEverything) {
  Rig2 r(cfg1m(), cfg1m(), 2);
  r.connect(0);
  r.rig.loop().run_until(2 * kSecond);
  bool server_closed = false;
  r.sconn->on_closed = [&] { server_closed = true; };
  r.cconn->abort();
  r.rig.loop().run_until(3 * kSecond);
  EXPECT_TRUE(server_closed);
  for (size_t i = 0; i < r.sconn->subflow_count(); ++i) {
    EXPECT_EQ(r.sconn->subflow(i)->state(), TcpState::kClosed);
  }
}

TEST(MptcpPaths, BackupSubflowCarriesNothingWhilePrimaryHealthy) {
  Rig2 r(cfg1m(), cfg1m(), 2);
  r.connect(0);
  r.rig.loop().run_until(500 * kMillisecond);
  // Mark the 3G subflow backup after establishment.
  for (size_t i = 0; i < r.cconn->subflow_count(); ++i) {
    if (r.cconn->subflow(i)->kind() == SubflowKind::kJoinActive) {
      r.cconn->subflow(i)->set_backup(true);
    }
  }
  const uint64_t sent_before =
      r.cconn->subflow(1) ? r.cconn->subflow(1)->stats().bytes_sent : 0;
  r.rig.loop().run_until(5 * kSecond);
  const uint64_t sent_after = r.cconn->subflow(1)->stats().bytes_sent;
  // A healthy primary means the backup gets (almost) nothing new.
  EXPECT_LT(sent_after - sent_before, 100u * 1000u);
}

// ---------------------------------------------------------------------------
// ADD_ADDR with a multihomed server.
// ---------------------------------------------------------------------------

TEST(MptcpPaths, ServerAddAddrTriggersClientJoin) {
  // Single-homed client behind a gateway; the server is dual-homed, with
  // its WiFi address reached over the first path and its 3G address over
  // the second.
  ScenarioSpec spec;
  const NodeId client = spec.host("client");
  const NodeId gw = spec.router("gw");
  const NodeId server = spec.host("server");
  spec.path(client, gw, ethernet_path(1e9));
  spec.path(gw, server, wifi_path());
  spec.path(gw, server, threeg_path());
  Scenario scn = spec.build();
  Topology& t = scn.topo();
  EventLoop& loop = t.loop();
  const IpAddr caddr = t.addr(client);
  const IpAddr saddr1 = t.addr(server, 0), saddr2 = t.addr(server, 1);

  MptcpStack cs(t.host(client), cfg1m()), ss(t.host(server), cfg1m());
  MptcpConnection* sconn = nullptr;
  std::unique_ptr<BulkReceiver> rx;
  ss.listen(80, [&](MptcpConnection& c) {
    sconn = &c;
    rx = std::make_unique<BulkReceiver>(c);
  });
  MptcpConnection& cc = cs.connect(caddr, {saddr1, 80});
  BulkSender tx(cc, 0);
  loop.run_until(5 * kSecond);

  // The server advertised saddr2; the client joined toward it.
  ASSERT_NE(sconn, nullptr);
  EXPECT_EQ(cc.subflow_count(), 2u);
  EXPECT_EQ(cc.usable_subflow_count(), 2u);
  bool has_second = false;
  for (size_t i = 0; i < cc.subflow_count(); ++i) {
    if (cc.subflow(i)->remote().addr == saddr2) has_second = true;
  }
  EXPECT_TRUE(has_second);
  EXPECT_TRUE(rx->pattern_ok());
}

// ---------------------------------------------------------------------------
// Sequence unwrap helper.
// ---------------------------------------------------------------------------

TEST(SeqUnwrap, NearbyValuesResolveCorrectly) {
  EXPECT_EQ(seq_unwrap(1000, 1200), 1200u);
  EXPECT_EQ(seq_unwrap(1000, 800), 800u);
}

TEST(SeqUnwrap, CrossesWrapBoundaryUpward) {
  const uint64_t ref = 0xfffffff0ULL;
  EXPECT_EQ(seq_unwrap(ref, 0x00000010), 0x100000010ULL);
}

TEST(SeqUnwrap, CrossesWrapBoundaryDownward) {
  const uint64_t ref = 0x100000010ULL;
  EXPECT_EQ(seq_unwrap(ref, 0xfffffff0), 0xfffffff0ULL);
}

TEST(SeqUnwrap, DeepIntoStreamStaysMonotonic) {
  uint64_t seq = 0x2fff0000;  // ~800 MB in
  for (int i = 0; i < 1000; ++i) {
    const uint64_t next = seq + 1460;
    EXPECT_EQ(seq_unwrap(seq, seq_wrap(next)), next);
    seq = next;
  }
}

}  // namespace
}  // namespace mptcp
