// Workload robustness: the HTTP closed loop under packet loss, path
// failure, a peer that keeps sending past its request and a request that
// arrives in pieces, plus harness utility coverage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "app/bulk_app.h"
#include "app/harness.h"
#include "app/http_app.h"
#include "app/scenario.h"
#include "app/socket_factory.h"
#include "middlebox/middlebox.h"

namespace mptcp {
namespace {

TEST(HttpRobustness, ClosedLoopSurvivesRandomLoss) {
  PathSpec p = ethernet_path(100e6, 2 * kMillisecond, 10 * kMillisecond);
  p.up.loss_prob = 0.01;
  p.down.loss_prob = 0.01;
  TwoHostRig rig({p});
  TransportConfig cfg;
  cfg.mptcp.meta_snd_buf_max = cfg.mptcp.meta_rcv_buf_max = 128 * 1024;
  SocketFactory cs(rig.client(), cfg), ss(rig.server(), cfg);
  HttpServer server(ss, 80);
  HttpClientPool pool(cs, rig.client_addr(0), {rig.server_addr(), 80},
                      /*clients=*/8, /*size=*/40 * 1000);
  pool.start();
  rig.loop().run_until(10 * kSecond);
  // Requests complete despite loss; every completed response was intact
  // (the pool verifies exact byte counts).
  EXPECT_GT(pool.completed(), 200u);
  EXPECT_EQ(pool.errors(), 0u);
}

TEST(HttpRobustness, ServerSurvivesClientPathFailureMidResponse) {
  TwoHostRig rig({wifi_path(), threeg_path()});
  TransportConfig cfg;
  cfg.mptcp.meta_snd_buf_max = cfg.mptcp.meta_rcv_buf_max = 256 * 1024;
  SocketFactory cs(rig.client(), cfg), ss(rig.server(), cfg);
  HttpServer server(ss, 80);
  HttpClientPool pool(cs, rig.client_addr(0), {rig.server_addr(), 80},
                      /*clients=*/3, /*size=*/400 * 1000);
  pool.start();
  // Kill WiFi mid-stream; responses continue over 3G.
  rig.loop().schedule_in(700 * kMillisecond,
                         [&] { rig.set_path_up(0, false); });
  rig.loop().run_until(60 * kSecond);
  EXPECT_GT(pool.completed(), 10u);
  EXPECT_EQ(pool.errors(), 0u);
}

TEST(HttpRobustness, ManySmallRequestsChurnConnectionsCleanly) {
  // Thousands of connections through the stack: auto-destroy must reap
  // them (live_connections stays bounded by the client count).
  TwoHostRig rig({ethernet_path(1e9)});
  TransportConfig cfg;
  cfg.mptcp.meta_snd_buf_max = cfg.mptcp.meta_rcv_buf_max = 64 * 1024;
  cfg.mptcp.tcp.time_wait = 5 * kMillisecond;
  SocketFactory cs(rig.client(), cfg), ss(rig.server(), cfg);
  HttpServer server(ss, 80);
  HttpClientPool pool(cs, rig.client_addr(0), {rig.server_addr(), 80},
                      /*clients=*/20, /*size=*/2000);
  pool.start();
  rig.loop().run_until(2 * kSecond);
  EXPECT_GT(pool.completed(), 2000u);
  // Live connections = the in-flight requests plus the TIME_WAIT tail,
  // which is churn-rate * TIME_WAIT duration. Anything well beyond that
  // bound would be a leak.
  const double churn_per_sec = static_cast<double>(pool.completed()) / 2.0;
  const size_t tw_tail =
      static_cast<size_t>(churn_per_sec * to_seconds(cfg.mptcp.tcp.time_wait));
  EXPECT_LE(cs.live_sockets(), 3 * (20 + tw_tail));
  EXPECT_LE(ss.live_sockets(), 3 * (20 + tw_tail));
}

TEST(HttpRobustness, BytesTrailingTheRequestLeaveTheResponseExact) {
  // The server keeps only the 16-byte request: what the peer sends after
  // it is read and dropped, the response is still exactly the named
  // pattern bytes, and the server still closes at its end.
  TwoHostRig rig({ethernet_path(100e6, kMillisecond)});
  TransportConfig cfg;
  SocketFactory cs(rig.client(), cfg), ss(rig.server(), cfg);
  HttpServer server(ss, 80);
  constexpr uint64_t kSize = 2'000'000;
  constexpr size_t kTrailing = 256 * 1024;
  StreamSocket& s = cs.connect(rig.client_addr(0), {rig.server_addr(), 80});
  const std::vector<uint8_t> junk(16 * 1024, 0xEE);
  size_t sent = 0;
  auto push = [&] {
    while (sent < kTrailing) {
      const size_t n = s.write(std::span<const uint8_t>(junk).first(
          std::min(junk.size(), kTrailing - sent)));
      if (n == 0) return;
      sent += n;
    }
  };
  uint64_t got = 0;
  bool intact = true;
  s.on_connected = [&] {
    ASSERT_EQ(s.write(make_http_request(kSize)), kHttpRequestSize);
    push();
  };
  s.on_send_space = push;
  s.on_readable = [&] {
    uint8_t buf[4096];
    for (size_t n; (n = s.read(buf)) > 0; got += n) {
      for (size_t i = 0; i < n; ++i) intact &= buf[i] == pattern_byte(got + i);
    }
  };
  rig.loop().run_until(5 * kSecond);

  EXPECT_EQ(sent, kTrailing);
  EXPECT_EQ(got, kSize);
  EXPECT_TRUE(intact);
  EXPECT_TRUE(s.at_eof());
  EXPECT_EQ(server.requests_served(), 1u);
  EXPECT_EQ(server.bytes_served(), kSize);
}

// A client of the MPGET server on path 0 that asks for 1,000 bytes and,
// once told to, sends up to 64 MiB of junk as fast as its send buffer
// drains, reading and dropping whatever comes back.
class FloodingClient {
 public:
  static constexpr uint64_t kFlood = 64ull << 20;

  FloodingClient(TwoHostRig& rig, SocketFactory& cs)
      : cs_(cs), s_(cs.connect(rig.client_addr(0), {rig.server_addr(), 80})) {
    s_.on_send_space = [this] {
      if (flooding_) push();
    };
    s_.on_readable = [this] {
      uint8_t buf[4096];
      while (s_.read(buf) > 0) {
      }
    };
    s_.on_closed = [this] { closed_ = true; };
  }
  FloodingClient(const FloodingClient&) = delete;
  FloodingClient& operator=(const FloodingClient&) = delete;

  StreamSocket& socket() { return s_; }
  bool closed() const { return closed_; }
  uint64_t sent() const { return sent_; }
  /// Bytes of the client's stream the server acknowledged past its start
  /// (request()).
  uint64_t acked_from_request() const { return acked() - acked_base_; }

  void request() {
    acked_base_ = acked();
    ASSERT_EQ(s_.write(make_http_request(1000)), kHttpRequestSize);
  }
  void flood() {
    flooding_ = true;
    push();
  }

 private:
  uint64_t acked() const {
    if (TcpConnection* t = cs_.as_tcp(s_)) return t->snd_una();
    return cs_.as_mptcp(s_)->data_acked();
  }
  void push() {
    while (sent_ < kFlood) {
      const size_t n = s_.write(std::span<const uint8_t>(junk_).first(
          std::min<size_t>(junk_.size(), kFlood - sent_)));
      if (n == 0) return;
      sent_ += n;
    }
  }

  SocketFactory& cs_;
  StreamSocket& s_;
  const std::vector<uint8_t> junk_ = std::vector<uint8_t>(16 * 1024, 0xEE);
  uint64_t acked_base_ = 0;
  uint64_t sent_ = 0;
  bool flooding_ = false;
  bool closed_ = false;
};

// Bytes that arrive after the response is queued and the send side
// closed reset the connection: the server's socket must be gone by
// `deadline`, and the server must have accepted at most one receive
// window (`window`) of the flood.
void expect_flood_reset(TwoHostRig& rig, SocketFactory& ss,
                        const HttpServer& server, const FloodingClient& c,
                        SimTime deadline, size_t window) {
  rig.loop().run_until(deadline);
  EXPECT_EQ(ss.live_sockets(), 0u) << "the server still holds the connection";
  EXPECT_TRUE(c.closed());
  rig.loop().run_until(deadline + kSecond);
  EXPECT_EQ(server.requests_served(), 1u);
  EXPECT_LE(c.acked_from_request(), kHttpRequestSize + window);
  EXPECT_LT(c.sent(), FloodingClient::kFlood);
}

// Drops the n-th data-bearing segment it sees, once (n counts from 1).
class DropNthDataSegment final : public SimpleMiddlebox {
 public:
  explicit DropNthDataSegment(uint64_t n) : n_(n) {}
  uint64_t dropped() const { return dropped_; }

 protected:
  void process(TcpSegment seg) override {
    if (!seg.payload.empty() && ++seen_ == n_) {
      ++dropped_;
      return;
    }
    emit(std::move(seg));
  }

 private:
  uint64_t n_;
  uint64_t seen_ = 0;
  uint64_t dropped_ = 0;
};

TEST(HttpRobustness, PeerSendingPastTheResponseIsReset) {
  // A peer that asks for 1,000 bytes and then sends 64 MiB cannot keep
  // the server's connection alive: under either transport it is gone
  // within a few round trips. Also when the path loses the segment
  // behind the request: the flood behind it then waits out of order
  // until the retransmission fills the hole and drains in one delivery
  // loop (the subflow's, under MPTCP). The reset comes from inside that
  // loop, which goes on delivering: the reaped connection must get no
  // callback after it (ASan sees one).
  constexpr size_t kWindow = 64 * 1024;
  for (const bool lossy : {false, true}) {
    for (const TransportKind kind :
         {TransportKind::kTcp, TransportKind::kMptcp}) {
      SCOPED_TRACE(kind == TransportKind::kTcp ? "tcp" : "mptcp");
      SCOPED_TRACE(lossy ? "lossy" : "lossless");
      TwoHostRig rig({ethernet_path(1e9)});
      DropNthDataSegment drop(2);
      if (lossy) rig.splice_up(0, drop);
      TransportConfig cfg;
      cfg.kind = kind;
      cfg.with_buffers(kWindow, kWindow);
      SocketFactory cs(rig.client(), cfg), ss(rig.server(), cfg);
      HttpServer server(ss, 80);
      FloodingClient c(rig, cs);
      c.socket().on_connected = [&] {
        c.request();
        c.flood();
      };
      expect_flood_reset(rig, ss, server, c, 100 * kMillisecond, kWindow);
      EXPECT_EQ(drop.dropped(), lossy ? 1u : 0u);
    }
  }
}

TEST(HttpRobustness, PeerSendingPastTheResponseIsResetAcrossSubflows) {
  // MPTCP over a slow path (100 ms RTT) and a fast one. The request and
  // one more segment leave on the slow path, the only subflow yet; the
  // flood leaves 10 ms later on the fast one and waits out of order at
  // the connection level. The segment behind the request resets the
  // connection, and the same delivery goes on to drain the flood queued
  // behind it: the reaped connection must get no callback after the
  // reset (ASan sees one).
  constexpr size_t kWindow = 64 * 1024;
  TwoHostRig rig({ethernet_path(1e9, 100 * kMillisecond), ethernet_path(1e9)});
  TransportConfig cfg;
  cfg.kind = TransportKind::kMptcp;
  cfg.with_buffers(kWindow, kWindow);
  // Opportunistic retransmission would resend the request on the fast
  // path the moment it joins, ahead of the flood.
  cfg.mptcp.opportunistic_retransmit = false;
  SocketFactory cs(rig.client(), cfg), ss(rig.server(), cfg);
  HttpServer server(ss, 80);
  // Out-of-order chunks the server's connection holds when it answers.
  uint64_t ooo_inserts = 0;
  server.on_conn_done = [&](StreamSocket& s) {
    ooo_inserts = ss.as_mptcp(s)->recv_queue_stats().inserts;
  };
  FloodingClient c(rig, cs);
  c.socket().on_connected = [&] {
    c.request();
    const std::vector<uint8_t> more(100, 0xEE);
    ASSERT_EQ(c.socket().write(more), more.size());
    rig.loop().schedule_in(10 * kMillisecond, [&] { c.flood(); });
  };
  expect_flood_reset(rig, ss, server, c, kSecond, kWindow);
  EXPECT_GT(ooo_inserts, 0u);
}

// A server on port 80 that aborts its connection in the first on_readable
// and leaves the socket's callbacks attached. It counts the on_readable
// calls that come after on_closed: a closed connection must deliver
// nothing more, even when the delivery that closed it has more in-order
// data queued behind it.
class AbortOnFirstRead {
 public:
  explicit AbortOnFirstRead(SocketFactory& ss) {
    ss.listen(80, [this, &ss](StreamSocket& s) {
      s.on_readable = [this, &ss, &s] {
        ++reads_;
        if (closed_) ++reads_after_close_;
        if (reads_ > 1) return;
        // What still waits out of order when the first bytes arrive.
        if (TcpConnection* t = ss.as_tcp(s)) {
          queued_ = t->rcv_buf_in_use() - s.readable_bytes();
        } else {
          queued_ = ss.as_mptcp(s)->recv_queue_stats().inserts;
        }
        s.abort();
      };
      s.on_closed = [this] { closed_ = true; };
    });
  }

  uint64_t reads() const { return reads_; }
  uint64_t reads_after_close() const { return reads_after_close_; }
  bool closed() const { return closed_; }
  /// Out-of-order bytes (TCP) or connection-level out-of-order inserts
  /// (MPTCP) held at the first read.
  uint64_t queued_at_first_read() const { return queued_; }

 private:
  uint64_t reads_ = 0;
  uint64_t reads_after_close_ = 0;
  uint64_t queued_ = 0;
  bool closed_ = false;
};

TEST(DeliveryAfterAbort, TcpReassemblyDrainStops) {
  // The first data segment is lost; the ones behind it wait in the
  // server's reassembly queue until the retransmission releases them all
  // in one drain, whose first delivery aborts the connection.
  TwoHostRig rig({ethernet_path(1e9)});
  DropNthDataSegment drop(1);
  rig.splice_up(0, drop);
  TransportConfig cfg;
  cfg.kind = TransportKind::kTcp;
  SocketFactory cs(rig.client(), cfg), ss(rig.server(), cfg);
  AbortOnFirstRead server(ss);
  StreamSocket& c = cs.connect(rig.client_addr(0), {rig.server_addr(), 80});
  const std::vector<uint8_t> data(16 * 1024, 0xEE);
  c.on_connected = [&] { ASSERT_EQ(c.write(data), data.size()); };
  rig.loop().run_until(kSecond);

  EXPECT_EQ(drop.dropped(), 1u);
  EXPECT_TRUE(server.closed());
  EXPECT_GT(server.queued_at_first_read(), 0u);
  EXPECT_GE(server.reads(), 1u);
  EXPECT_EQ(server.reads_after_close(), 0u);
}

TEST(DeliveryAfterAbort, MptcpConnectionLevelDrainStops) {
  // The rig of PeerSendingPastTheResponseIsResetAcrossSubflows: the first
  // 1,000 bytes leave on the slow path, the rest 10 ms later on the fast
  // one, and wait out of order at the connection level. The slow bytes'
  // delivery aborts the connection.
  TwoHostRig rig({ethernet_path(1e9, 100 * kMillisecond), ethernet_path(1e9)});
  TransportConfig cfg;
  cfg.kind = TransportKind::kMptcp;
  cfg.mptcp.opportunistic_retransmit = false;
  SocketFactory cs(rig.client(), cfg), ss(rig.server(), cfg);
  AbortOnFirstRead server(ss);
  StreamSocket& c = cs.connect(rig.client_addr(0), {rig.server_addr(), 80});
  const std::vector<uint8_t> first(1000, 0xEE);
  const std::vector<uint8_t> rest(32 * 1024, 0xEE);
  c.on_connected = [&] {
    ASSERT_EQ(c.write(first), first.size());
    rig.loop().schedule_in(10 * kMillisecond,
                           [&] { ASSERT_EQ(c.write(rest), rest.size()); });
  };
  rig.loop().run_until(kSecond);

  EXPECT_TRUE(server.closed());
  EXPECT_GT(server.queued_at_first_read(), 0u);
  EXPECT_GE(server.reads(), 1u);
  EXPECT_EQ(server.reads_after_close(), 0u);
}

// Drops the first data segment it sees, once, and notes whether the end
// of the stream -- a FIN, or a DATA_FIN on a segment without data --
// passes before any data segment does again.
class DropDataLetFinOvertake final : public SimpleMiddlebox {
 public:
  bool fin_overtook() const { return fin_overtook_; }

 protected:
  void process(TcpSegment seg) override {
    if (!seg.payload.empty()) {
      if (!dropped_) {
        dropped_ = true;
        return;
      }
      data_since_drop_ = true;
    } else if (dropped_ && !data_since_drop_) {
      const auto* dss = find_option<DssOption>(seg.options);
      if (seg.fin || (dss != nullptr && dss->data_fin)) fin_overtook_ = true;
    }
    emit(std::move(seg));
  }

 private:
  bool dropped_ = false;
  bool data_since_drop_ = false;
  bool fin_overtook_ = false;
};

struct AbortBeforeFin {
  bool fin_overtook = false;  ///< the end of the stream beat the data
  uint64_t reads = 0;
  uint64_t reads_after_close = 0;
  bool closed = false;
};

/// A client of `kind` writes 1,000 bytes and closes. The path loses the
/// data segment, so the end of the stream reaches the server first and
/// waits for the retransmission, whose delivery the server aborts in.
AbortBeforeFin abort_with_fin_waiting(TransportKind kind) {
  TwoHostRig rig({ethernet_path(1e9)});
  DropDataLetFinOvertake drop;
  rig.splice_up(0, drop);
  TransportConfig cfg;
  cfg.kind = kind;
  SocketFactory cs(rig.client(), cfg), ss(rig.server(), cfg);
  AbortOnFirstRead server(ss);
  StreamSocket& c = cs.connect(rig.client_addr(0), {rig.server_addr(), 80});
  const std::vector<uint8_t> data(1000, 0xEE);
  c.on_connected = [&] {
    ASSERT_EQ(c.write(data), data.size());
    c.close();
  };
  rig.loop().run_until(5 * kSecond);
  return {drop.fin_overtook(), server.reads(), server.reads_after_close(),
          server.closed()};
}

TEST(DeliveryAfterAbort, TcpFinBehindTheAbortingReadIsNotDelivered) {
  // The FIN is already in when the retransmitted bytes arrive and their
  // delivery aborts the connection: the closed connection must not go on
  // to report the FIN as an EOF read.
  const AbortBeforeFin r = abort_with_fin_waiting(TransportKind::kTcp);
  EXPECT_TRUE(r.fin_overtook);
  EXPECT_TRUE(r.closed);
  EXPECT_EQ(r.reads, 1u);
  EXPECT_EQ(r.reads_after_close, 0u);
}

TEST(DeliveryAfterAbort, MptcpDataFinBehindTheAbortingReadIsNotConsumed) {
  // The same at the connection level: the DATA_FIN, on a segment of its
  // own, is due the moment the aborting read returns. The closed
  // connection must not consume it.
  const AbortBeforeFin r = abort_with_fin_waiting(TransportKind::kMptcp);
  EXPECT_TRUE(r.fin_overtook);
  EXPECT_TRUE(r.closed);
  EXPECT_EQ(r.reads, 1u);
  EXPECT_EQ(r.reads_after_close, 0u);
}

TEST(HttpRobustness, RequestArrivingInPiecesIsAnsweredOnce) {
  // The 16-byte request buffer fills across reads: a request written in
  // four pieces 10 ms apart is answered once and exactly, and nothing is
  // answered before its last byte arrives.
  TwoHostRig rig({ethernet_path(100e6, kMillisecond)});
  TransportConfig cfg;
  SocketFactory cs(rig.client(), cfg), ss(rig.server(), cfg);
  HttpServer server(ss, 80);
  constexpr uint64_t kSize = 300'000;
  const std::vector<uint8_t> req = make_http_request(kSize);
  ASSERT_EQ(req.size(), kHttpRequestSize);
  StreamSocket& s = cs.connect(rig.client_addr(0), {rig.server_addr(), 80});
  uint64_t got = 0;
  bool intact = true;
  const size_t cuts[] = {0, 1, 7, 9, kHttpRequestSize};
  auto send_piece = [&](size_t k) {
    EXPECT_EQ(got, 0u) << "answered before piece " << k;
    const auto piece =
        std::span<const uint8_t>(req).subspan(cuts[k], cuts[k + 1] - cuts[k]);
    EXPECT_EQ(s.write(piece), piece.size());
  };
  s.on_connected = [&] {
    for (size_t k = 0; k + 1 < std::size(cuts); ++k) {
      rig.loop().schedule_in(static_cast<SimTime>(k) * 10 * kMillisecond,
                             [&send_piece, k] { send_piece(k); });
    }
  };
  s.on_readable = [&] {
    uint8_t buf[4096];
    for (size_t n; (n = s.read(buf)) > 0; got += n) {
      for (size_t i = 0; i < n; ++i) intact &= buf[i] == pattern_byte(got + i);
    }
  };
  rig.loop().run_until(3 * kSecond);

  EXPECT_EQ(got, kSize);
  EXPECT_TRUE(intact);
  EXPECT_TRUE(s.at_eof());
  EXPECT_EQ(server.requests_served(), 1u);
  EXPECT_EQ(server.bytes_served(), kSize);
}

TEST(HarnessUtil, PatternBytesAreDeterministicAndOffsetExact) {
  const Payload pa = pattern_payload(1000, 64);
  const Payload pb = pattern_payload(1032, 32);
  const std::span<const uint8_t> a = pa.span();
  const std::span<const uint8_t> b = pb.span();
  ASSERT_EQ(a.size(), 64u);
  for (size_t i = 0; i < 32; ++i) EXPECT_EQ(a[32 + i], b[i]);
  EXPECT_EQ(a[0], pattern_byte(1000));

  // pattern_payload() equals the per-byte definition at every short
  // length, at the MSS and app chunk sizes, and at offsets where the
  // 64-bit products wrap.
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 65; ++n) lengths.push_back(n);
  for (size_t n : {1460, 16384, 65536}) lengths.push_back(n);
  for (uint64_t off : {uint64_t{0}, (uint64_t{1} << 32) - 3,
                       (uint64_t{1} << 56) - 3}) {
    for (size_t n : lengths) {
      const Payload p = pattern_payload(off, n);
      ASSERT_EQ(p.size(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(p[i], pattern_byte(off + i))
            << "offset " << off << " length " << n << " byte " << i;
      }
    }
  }

  // Around the tape's end: a range ending exactly there is a view of the
  // tape; ranges straddling it, beyond it, or wrapping past 2^64 are
  // generated. Both routes give the per-byte definition.
  struct Range {
    uint64_t off;
    bool taped;
  };
  constexpr size_t kLen = 1460;
  const uint64_t end = kPatternTapeBytes;
  for (const Range r : {Range{end - kLen, true}, Range{end - 700, false},
                        Range{end, false}, Range{end + 12345, false},
                        Range{UINT64_MAX - 2, false}}) {
    const Payload p = pattern_payload(r.off, kLen);
    std::vector<uint8_t> filled(kLen);
    fill_pattern(r.off, filled);
    ASSERT_EQ(p.size(), kLen);
    EXPECT_EQ(p.is_frozen(), r.taped) << "offset " << r.off;
    for (size_t i = 0; i < kLen; ++i) {
      ASSERT_EQ(p[i], pattern_byte(r.off + i)) << "offset " << r.off;
      ASSERT_EQ(filled[i], pattern_byte(r.off + i)) << "offset " << r.off;
    }
  }
  // Every in-tape payload is a view of the one tape buffer.
  EXPECT_TRUE(pattern_payload(0, 10).shares_buffer_with(
      pattern_payload(end - 10, 10)));
}

TEST(HarnessUtil, PathFactoriesMatchPaperParameters) {
  const PathSpec wifi = wifi_path();
  EXPECT_DOUBLE_EQ(wifi.up.rate_bps, 8e6);
  EXPECT_EQ(wifi.up.prop_delay + wifi.down.prop_delay,
            20 * kMillisecond);  // 20 ms RTT
  EXPECT_EQ(wifi.up.buffer_bytes, 80000u);  // 80 ms at 8 Mbps

  const PathSpec tg = threeg_path();
  EXPECT_DOUBLE_EQ(tg.up.rate_bps, 2e6);
  EXPECT_EQ(tg.up.prop_delay + tg.down.prop_delay, 150 * kMillisecond);
  EXPECT_EQ(tg.up.buffer_bytes, 500000u);  // 2 s at 2 Mbps
}

TEST(HarnessUtil, RigAssignsDistinctClientAddressesPerPath) {
  TwoHostRig rig({wifi_path(), threeg_path(), ethernet_path(1e9)});
  EXPECT_NE(rig.client_addr(0), rig.client_addr(1));
  EXPECT_NE(rig.client_addr(1), rig.client_addr(2));
  EXPECT_TRUE(rig.client().owns_address(rig.client_addr(2)));
  EXPECT_TRUE(rig.server().owns_address(rig.server_addr()));
}

TEST(SegmentBrief, MentionsKeyFields) {
  TcpSegment seg;
  seg.tuple = {{IpAddr(10, 0, 0, 2), 1111}, {IpAddr(10, 99, 0, 1), 80}};
  seg.syn = true;
  seg.seq = 42;
  seg.options.push_back(MpCapableOption{0, true, 7ULL, std::nullopt});
  const std::string s = seg.brief();
  EXPECT_NE(s.find("SYN"), std::string::npos);
  EXPECT_NE(s.find("MP_CAPABLE"), std::string::npos);
  EXPECT_NE(s.find("10.0.0.2"), std::string::npos);

  TcpSegment data;
  data.tuple = seg.tuple;
  data.ack_flag = true;
  data.options.push_back(
      DssOption{99, DssMapping{1000, 1, 100, std::nullopt}, true, 0});
  const std::string d = data.brief();
  EXPECT_NE(d.find("DSS"), std::string::npos);
  EXPECT_NE(d.find("DFIN"), std::string::npos);
}

}  // namespace
}  // namespace mptcp
