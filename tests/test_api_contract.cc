// StreamSocket API contracts: what a downstream application may rely on.
#include <gtest/gtest.h>

#include <memory>
#include <type_traits>

#include "app/bulk_app.h"
#include "app/harness.h"
#include "app/http_app.h"
#include "app/workload.h"
#include "core/mptcp_stack.h"
#include "middlebox/option_stripper.h"

namespace mptcp {
namespace {

// --- compile-time layering contract ------------------------------------
// Both transports are StreamSockets; the application classes accept the
// abstract socket (or a factory), never a concrete transport. This is the
// "no app-layer code names TcpConnection/MptcpConnection" rule, checked
// where the compiler can see it.
static_assert(std::is_abstract_v<StreamSocket>);
static_assert(std::is_base_of_v<StreamSocket, TcpConnection>);
static_assert(std::is_base_of_v<StreamSocket, MptcpConnection>);
static_assert(std::is_constructible_v<BulkSender, StreamSocket&>);
static_assert(std::is_constructible_v<BulkReceiver, StreamSocket&>);
static_assert(std::is_constructible_v<HttpServer, SocketFactory&, Port>);
static_assert(!std::is_constructible_v<BulkSender, MptcpStack&>,
              "apps take sockets, not stacks");

struct ApiRig {
  ApiRig() {
    rig.add_path(wifi_path());
    MptcpConfig cfg;
    cs = std::make_unique<MptcpStack>(rig.client(), cfg);
    ss = std::make_unique<MptcpStack>(rig.server(), cfg);
    ss->listen(80, [this](MptcpConnection& c) { sconn = &c; });
    cconn = &cs->connect(rig.client_addr(0), {rig.server_addr(), 80});
  }
  TwoHostRig rig;
  std::unique_ptr<MptcpStack> cs, ss;
  MptcpConnection* cconn = nullptr;
  MptcpConnection* sconn = nullptr;
};

TEST(ApiContract, WriteBeforeEstablishmentIsBuffered) {
  ApiRig r;
  // Nothing has flowed yet; writes must be accepted into the buffer.
  EXPECT_EQ(r.cconn->write(pattern_payload(0, 10000).span()), 10000u);
  r.rig.loop().run_until(1 * kSecond);
  ASSERT_NE(r.sconn, nullptr);
  EXPECT_EQ(r.sconn->readable_bytes(), 10000u);
}

TEST(ApiContract, ReadOnEmptySocketReturnsZero) {
  ApiRig r;
  r.rig.loop().run_until(500 * kMillisecond);
  uint8_t buf[64];
  EXPECT_EQ(r.sconn->read(buf), 0u);
  EXPECT_FALSE(r.sconn->at_eof());
}

TEST(ApiContract, EofOnlyAfterAllDataRead) {
  ApiRig r;
  r.cconn->write(pattern_payload(0, 5000).span());
  r.cconn->close();
  r.rig.loop().run_until(1 * kSecond);
  ASSERT_NE(r.sconn, nullptr);
  EXPECT_FALSE(r.sconn->at_eof()) << "unread data pending";
  uint8_t buf[8192];
  size_t total = 0;
  for (;;) {
    const size_t n = r.sconn->read(buf);
    if (n == 0) break;
    total += n;
  }
  EXPECT_EQ(total, 5000u);
  EXPECT_TRUE(r.sconn->at_eof());
}

TEST(ApiContract, OnReadableFiresForEofAloneToo) {
  ApiRig r;
  r.rig.loop().run_until(500 * kMillisecond);
  ASSERT_NE(r.sconn, nullptr);
  int readable_events = 0;
  r.sconn->on_readable = [&] { ++readable_events; };
  r.cconn->close();  // no data at all, just EOF
  r.rig.loop().run_until(1 * kSecond);
  EXPECT_GT(readable_events, 0);
  EXPECT_TRUE(r.sconn->at_eof());
}

TEST(ApiContract, OnSendSpaceFiresWhenBufferDrains) {
  TwoHostRig rig;
  rig.add_path(wifi_path());
  MptcpConfig cfg;
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 20 * 1000;
  MptcpStack cs(rig.client(), cfg), ss(rig.server(), cfg);
  std::unique_ptr<BulkReceiver> rx;
  ss.listen(80, [&](MptcpConnection& c) {
    rx = std::make_unique<BulkReceiver>(c, false);
  });
  MptcpConnection& cc = cs.connect(rig.client_addr(0),
                                   {rig.server_addr(), 80});
  // Fill the buffer completely.
  const size_t first = cc.write(pattern_payload(0, 40 * 1000).span());
  EXPECT_LE(first, 20u * 1000u);
  int space_events = 0;
  cc.on_send_space = [&] { ++space_events; };
  rig.loop().run_until(2 * kSecond);
  EXPECT_GT(space_events, 0);
}

TEST(ApiContract, CallbacksClearableWithoutCrash) {
  ApiRig r;
  r.cconn->on_connected = nullptr;
  r.cconn->on_readable = nullptr;
  r.cconn->on_send_space = nullptr;
  r.cconn->on_closed = nullptr;
  r.cconn->write(pattern_payload(0, 1000).span());
  r.cconn->close();
  r.rig.loop().run_until(2 * kSecond);  // must not crash
  SUCCEED();
}

TEST(ApiContract, ZeroByteWriteIsANoOp) {
  ApiRig r;
  EXPECT_EQ(r.cconn->write({}), 0u);
  r.rig.loop().run_until(500 * kMillisecond);
  EXPECT_TRUE(r.cconn->established());
}

// --- send_space() / write_shared(): the writer's half of the contract ---

enum class Backing { kTcp, kMptcp, kMptcpFallback };

/// An established client socket on one WiFi path. The checks below never
/// advance the clock, so nothing gets acknowledged and the send space
/// only shrinks.
struct WriterRig {
  explicit WriterRig(Backing b) {
    rig.add_path(wifi_path());
    // Without MP_CAPABLE on its SYN the server answers as plain TCP and
    // the client falls back during the handshake.
    if (b == Backing::kMptcpFallback) rig.splice_up(0, strip);
    TransportConfig tc;
    tc.kind = b == Backing::kTcp ? TransportKind::kTcp : TransportKind::kMptcp;
    tc.with_buffers(64 * 1024, 64 * 1024);
    cf = std::make_unique<SocketFactory>(rig.client(), tc);
    sf = std::make_unique<SocketFactory>(rig.server(), tc);
    sf->listen(80, [](StreamSocket&) {});
    sock = &cf->connect(rig.client_addr(0), {rig.server_addr(), 80});
    rig.loop().run_until(500 * kMillisecond);
  }
  OptionStripper strip{OptionStripper::Scope::kSynOnly,
                       OptionStripper::What::kMpCapable};
  TwoHostRig rig;
  std::unique_ptr<SocketFactory> cf, sf;
  StreamSocket* sock = nullptr;
};

/// Runs `check` on a fresh socket of each backing: plain TCP, MPTCP, and
/// MPTCP after fallback, whose writes bypass the meta send buffer.
template <typename Fn>
void for_each_backing(Fn check) {
  for (Backing b : {Backing::kTcp, Backing::kMptcp, Backing::kMptcpFallback}) {
    SCOPED_TRACE(static_cast<int>(b));
    WriterRig w(b);
    ASSERT_TRUE(w.sock->established());
    const MptcpConnection* m = w.cf->as_mptcp(*w.sock);
    ASSERT_EQ(m != nullptr, b != Backing::kTcp);
    if (m != nullptr) {
      ASSERT_EQ(m->mode() == MptcpMode::kFallbackTcp,
                b == Backing::kMptcpFallback);
    }
    check(*w.sock);
  }
}

TEST(ApiContract, WritesAcceptExactlySendSpace) {
  for_each_backing([](StreamSocket& s) {
    const size_t space = s.send_space();
    ASSERT_GT(space, 1000u);
    // write() copies what fits...
    EXPECT_EQ(s.write(pattern_payload(0, 1000).span()), 1000u);
    EXPECT_EQ(s.send_space(), space - 1000);
    // ...write_shared() keeps a share of exactly the rest (a socket that
    // copied the bytes would hold no reference to the caller's buffer)...
    const Payload big(space, 0x5a);
    const uint32_t refs = big.buffer_refs();
    EXPECT_EQ(s.write_shared(big), space - 1000);
    EXPECT_EQ(s.send_space(), 0u);
    EXPECT_GT(big.buffer_refs(), refs);
    // ...and a full socket takes nothing.
    EXPECT_EQ(s.write(big.span()), 0u);
  });
}

TEST(ApiContract, WriteAfterCloseReturnsZero) {
  for_each_backing([](StreamSocket& s) {
    ASSERT_GT(s.send_space(), 0u);
    s.close();
    EXPECT_EQ(s.send_space(), 0u);
    EXPECT_EQ(s.write(pattern_payload(0, 100).span()), 0u);
  });
}

// --- SocketFactory: one app, either transport ---------------------------

/// The same application code, byte for byte, runs over both transports;
/// only the TransportConfig differs.
void exercise_transport(TransportKind kind) {
  Topology topo(21);
  const NodeId a = topo.add_host("a");
  const NodeId b = topo.add_host("b");
  LinkConfig link;
  link.rate_bps = 50e6;
  link.prop_delay = 2 * kMillisecond;
  link.buffer_bytes = 64 * 1024;
  topo.connect(a, b, link, link);
  topo.build_routes();

  TransportConfig tc;
  tc.kind = kind;
  SocketFactory cf(topo.host(a), tc);
  SocketFactory sf(topo.host(b), tc);
  ASSERT_EQ(cf.kind(), kind);

  std::unique_ptr<BulkReceiver> rx;
  sf.listen(80, [&](StreamSocket& s) {
    rx = std::make_unique<BulkReceiver>(s, /*verify=*/true);
  });
  StreamSocket& c = cf.connect(topo.addr(a), {topo.addr(b), 80});
  BulkSender tx(c, 100 * 1000);
  topo.loop().run_until(2 * kSecond);

  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->bytes_received(), 100u * 1000u);
  EXPECT_TRUE(rx->pattern_ok());
  EXPECT_TRUE(rx->saw_eof());
  // The typed escape hatches agree with the configured kind.
  if (kind == TransportKind::kMptcp) {
    EXPECT_NE(cf.as_mptcp(c), nullptr);
    EXPECT_NE(cf.mptcp_stack(), nullptr);
  } else {
    EXPECT_EQ(cf.as_mptcp(c), nullptr);
    EXPECT_NE(cf.as_tcp(c), nullptr);
    EXPECT_EQ(cf.mptcp_stack(), nullptr);
  }
}

TEST(ApiContract, SocketFactoryRunsAppOverTcp) {
  exercise_transport(TransportKind::kTcp);
}

TEST(ApiContract, SocketFactoryRunsAppOverMptcp) {
  exercise_transport(TransportKind::kMptcp);
}

TEST(ApiContract, ReleasedSocketsLeaveTheFactory) {
  Topology topo;
  const NodeId a = topo.add_host("a");
  const NodeId b = topo.add_host("b");
  LinkConfig link;
  link.rate_bps = 50e6;
  link.prop_delay = 1 * kMillisecond;
  link.buffer_bytes = 64 * 1024;
  topo.connect(a, b, link, link);
  topo.build_routes();

  for (TransportKind kind : {TransportKind::kTcp, TransportKind::kMptcp}) {
    TransportConfig tc;
    tc.kind = kind;
    SocketFactory cf(topo.host(a), tc);
    SocketFactory sf(topo.host(b), tc);
    HttpServer server(sf, 80);
    StreamSocket& c = cf.connect(topo.addr(a), {topo.addr(b), 80});
    cf.release_when_closed(c);
    c.on_connected = [&c] { c.write(make_http_request(5000)); };
    c.on_readable = [&c] {
      uint8_t buf[4096];
      while (c.read(buf) > 0) {
      }
      if (c.at_eof()) c.close();
    };
    EXPECT_EQ(cf.live_sockets(), 1u);
    topo.loop().run_until(topo.loop().now() + 3 * kSecond);
    EXPECT_EQ(cf.live_sockets(), 0u)
        << "closed+released socket still owned (kind "
        << static_cast<int>(kind) << ")";
    EXPECT_EQ(server.requests_served(), 1u);
  }
}

// --- Topology construction contract -------------------------------------

TEST(ApiContract, TopologyNamesAndLinksAreQueryable) {
  Topology topo;
  const NodeId h = topo.add_host("alpha");
  const NodeId r = topo.add_router("beta");
  LinkConfig link;
  const size_t l = topo.connect(h, r, link, link);
  EXPECT_EQ(topo.node_count(), 2u);
  EXPECT_EQ(topo.link_count(), 1u);
  EXPECT_FALSE(topo.is_router(h));
  EXPECT_TRUE(topo.is_router(r));
  EXPECT_EQ(topo.node_name(h), "alpha");
  EXPECT_EQ(topo.node_name(r), "beta");
  EXPECT_EQ(topo.link_node_a(l), h);
  EXPECT_EQ(topo.link_node_b(l), r);
  EXPECT_EQ(topo.addrs(h).size(), 1u);
}

}  // namespace
}  // namespace mptcp
