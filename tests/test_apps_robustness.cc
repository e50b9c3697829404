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
