// The layered serving stack: framing codecs, the zero-copy FrameReader,
// ServerApp overload behavior, ConnectionPool failure handling, the
// open-loop workload mode, and the serving determinism digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "app/client_pool.h"
#include "app/digest.h"
#include "app/framing.h"
#include "app/scenario.h"
#include "app/server_app.h"
#include "app/socket_factory.h"
#include "app/workload.h"
#include "net/stats.h"

namespace mptcp {
namespace {

// --- framing codecs ---------------------------------------------------------

TEST(ServingFraming, RequestRoundTrip) {
  ServingRequest req;
  req.req_id = 0x1122334455667788ULL;
  req.response_size = 9'999'999;
  req.chunk_bytes = 4096;
  std::vector<uint8_t> wire = serving_encode_request(req);
  ASSERT_EQ(wire.size(), kServingRequestSize);
  EXPECT_EQ(wire[5], 0);  // the flags byte is sent as 0...
  wire[5] = 0xFF;         // ...and ignored on receipt
  ServingRequest got;
  ASSERT_TRUE(serving_decode_request(wire, got));
  EXPECT_EQ(got.req_id, req.req_id);
  EXPECT_EQ(got.response_size, req.response_size);
  EXPECT_EQ(got.chunk_bytes, req.chunk_bytes);
}

TEST(ServingFraming, RequestRejectsBadMagicAndVersion) {
  std::vector<uint8_t> wire = serving_encode_request(ServingRequest{});
  wire[0] ^= 0xFF;  // magic
  ServingRequest got;
  EXPECT_FALSE(serving_decode_request(wire, got));
  wire[0] ^= 0xFF;
  wire[4] = 99;  // version
  EXPECT_FALSE(serving_decode_request(wire, got));
}

TEST(ServingFraming, FrameHeaderRoundTripAllKinds) {
  for (uint32_t kind : {kFrameData, kFrameFin, kFrameReject}) {
    std::vector<uint8_t> wire(kFrameHeaderSize);
    serving_encode_frame(FrameHeader{kind, 777, 42}, wire);
    FrameHeader got;
    ASSERT_TRUE(serving_decode_frame(wire, got));
    EXPECT_EQ(got.kind, kind);
    EXPECT_EQ(got.payload_len, 777u);
    EXPECT_EQ(got.req_id, 42u);
  }
  std::vector<uint8_t> wire(kFrameHeaderSize);
  serving_encode_frame(FrameHeader{kFrameData, 0, 0}, wire);
  wire[0] = 0;  // unknown kind
  FrameHeader got;
  EXPECT_FALSE(serving_decode_frame(wire, got));
}

TEST(ServingFraming, MpgetCodecStaysWireFrozen) {
  // The legacy request bytes back the pinned digests: magic then the
  // size big-endian in bytes 8..15, nothing else.
  const std::vector<uint8_t> wire = mpget_encode(0x0102030405060708ULL);
  ASSERT_EQ(wire.size(), kMpgetRequestSize);
  const uint8_t magic[8] = {'M', 'P', 'G', 'E', 'T', 0, 0, 0};
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(wire[i], magic[i]) << i;
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(wire[8 + i], i + 1) << i;
  EXPECT_EQ(mpget_decode_size(wire), 0x0102030405060708ULL);
}

// --- fine-grained histogram -------------------------------------------------

TEST(FineHistogramTest, PercentilesWithinRelativeError) {
  FineHistogram h;
  for (uint64_t v = 1; v <= 100'000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 100'000u);
  for (double p : {0.50, 0.90, 0.99, 0.999}) {
    const double exact = p * 100'000;
    const double got = static_cast<double>(h.percentile(p));
    EXPECT_NEAR(got, exact, exact * 0.04) << "p=" << p;
  }
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100'000u);
}

TEST(FineHistogramTest, TailBucketsResolveNearbyValues) {
  // The pow2 Histogram puts 2^19 and 2^19 + 3% in one bucket; the fine
  // histogram must keep them apart -- that is what makes p999 gateable.
  const uint64_t a = 1 << 19;
  const uint64_t b = a + a / 16;  // +6%, two sub-buckets away
  EXPECT_NE(FineHistogram::bucket_index(a), FineHistogram::bucket_index(b));
  for (size_t i = 0; i + 1 < FineHistogram::kBuckets; ++i) {
    ASSERT_LT(FineHistogram::bucket_floor(i), FineHistogram::bucket_floor(i + 1))
        << i;
  }
}

TEST(FineHistogramTest, MergeMatchesCombinedRecording) {
  FineHistogram a, b, all;
  for (uint64_t v = 1; v < 5000; v += 2) { a.record(v); all.record(v); }
  for (uint64_t v = 2; v < 9000; v += 2) { b.record(v); all.record(v); }
  a.merge_from(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_EQ(a.sum(), all.sum());
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
  EXPECT_EQ(a.percentile(0.999), all.percentile(0.999));
}

// --- end-to-end serving over a two-host rig ---------------------------------

struct ServingRig {
  explicit ServingRig(ServingConfig sc = {}, PoolConfig pc = {},
                      size_t snd_buf = 64 * 1024) {
    TransportConfig cfg;
    cfg = cfg.with_buffers(snd_buf, snd_buf);
    cs = std::make_unique<SocketFactory>(rig.client(), cfg);
    ss = std::make_unique<SocketFactory>(rig.server(), cfg);
    server = std::make_unique<ServerApp>(*ss, 80, sc);
    pool = std::make_unique<ConnectionPool>(
        *cs, rig.client_addr(0), Endpoint{rig.server_addr(), 80}, pc);
  }
  TwoHostRig rig{{ethernet_path(100e6, kMillisecond, 4 * kMillisecond)}};
  std::unique_ptr<SocketFactory> cs, ss;
  std::unique_ptr<ServerApp> server;
  std::unique_ptr<ConnectionPool> pool;
};

TEST(ServingEndToEnd, PipelinedRequestsCompleteWithExactSizes) {
  PoolConfig pc;
  pc.connections = 2;
  pc.max_mux = 4;
  ServingRig t({}, pc);
  std::vector<RequestOutcome> outcomes;
  t.pool->on_done = [&](const RequestOutcome& o) { outcomes.push_back(o); };
  t.pool->start();
  t.rig.loop().run_until(50 * kMillisecond);

  // 12 requests over 2x4 mux slots: some pipeline, some queue.
  std::vector<uint64_t> sizes = {1,    100,   4096,  65536, 3,     70000,
                                 1000, 16384, 16385, 12345, 99999, 2};
  for (uint64_t s : sizes) t.pool->submit(s);
  t.rig.loop().run_until(5 * kSecond);

  ASSERT_EQ(outcomes.size(), sizes.size());
  EXPECT_EQ(t.pool->completed(), sizes.size());
  EXPECT_EQ(t.pool->errors(), 0u);
  uint64_t total = 0;
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.ok) << "req " << o.req_id;
    EXPECT_GE(o.done_at, o.issued_at);
    total += o.bytes;
  }
  uint64_t want = 0;
  for (uint64_t s : sizes) want += s;
  EXPECT_EQ(total, want);
  EXPECT_EQ(t.server->requests_served(), sizes.size());
  EXPECT_EQ(t.server->bytes_served(), want);
}

TEST(ServingEndToEnd, ResponsesSurviveOddChunkAlignment) {
  // A 1000-byte frame quantum never aligns with 1460-byte segments, so
  // nearly every 16-byte frame header straddles a RecvQueue chunk
  // boundary -- the FrameReader's peek_copy gather path.
  PoolConfig pc;
  pc.connections = 1;
  pc.max_mux = 8;
  pc.chunk_bytes = 1000;
  ServingRig t({}, pc, /*snd_buf=*/8 * 1024);
  t.pool->start();
  t.rig.loop().run_until(50 * kMillisecond);
  for (int i = 0; i < 20; ++i) t.pool->submit(3'333 + 997 * i);
  t.rig.loop().run_until(10 * kSecond);
  EXPECT_EQ(t.pool->completed(), 20u);
  EXPECT_EQ(t.pool->errors(), 0u);
}

TEST(ServingEndToEnd, ServerCloseMidResponseFailsOverAndPoolRecovers) {
  PoolConfig pc;
  pc.connections = 2;
  pc.max_mux = 2;
  pc.max_retries = 1;
  ServingRig t({}, pc);
  t.pool->start();
  t.rig.loop().run_until(50 * kMillisecond);

  // Big responses, then the server hard-closes every connection while
  // they stream: outstanding requests fail over (one retry each).
  for (int i = 0; i < 4; ++i) t.pool->submit(2'000'000);
  t.rig.loop().schedule_in(100 * kMillisecond, [&] {
    t.server->for_each_conn([](StreamSocket& s) { s.close(); });
  });
  t.rig.loop().run_until(5 * kSecond);

  // Every outcome was delivered exactly once, and the pool re-dialled:
  // new requests after the crash complete cleanly.
  EXPECT_EQ(t.pool->completed() + t.pool->errors() + t.pool->rejected(), 4u);
  EXPECT_GT(t.pool->connected_conns(), 0u);
  const uint64_t before = t.pool->completed();
  for (int i = 0; i < 6; ++i) t.pool->submit(10'000);
  t.rig.loop().run_until(10 * kSecond);
  EXPECT_EQ(t.pool->completed(), before + 6);
  EXPECT_EQ(t.pool->inflight(), 0u);
}

TEST(ServingEndToEnd, OverloadRejectAnswers503InPipelineOrder) {
  ServingConfig sc;
  sc.max_inflight = 1;
  sc.service.kind = ServiceTimeModel::Kind::kExponential;
  sc.service.mean = 200 * kMillisecond;
  PoolConfig pc;
  pc.connections = 1;
  pc.max_mux = 8;
  ServingRig t(sc, pc);
  std::vector<RequestOutcome> outcomes;
  t.pool->on_done = [&](const RequestOutcome& o) { outcomes.push_back(o); };
  t.pool->start();
  t.rig.loop().run_until(50 * kMillisecond);
  for (int i = 0; i < 6; ++i) t.pool->submit(5'000);
  t.rig.loop().run_until(5 * kSecond);

  // One admitted at a time; the burst beyond the admission cap was
  // rejected, and every outcome still arrived in request order.
  ASSERT_EQ(outcomes.size(), 6u);
  EXPECT_GT(t.pool->rejected(), 0u);
  EXPECT_EQ(t.pool->rejected(), t.server->requests_rejected());
  EXPECT_EQ(t.pool->completed(), t.server->requests_served());
  EXPECT_EQ(t.pool->errors(), 0u);
  for (size_t i = 1; i < outcomes.size(); ++i) {
    EXPECT_LT(outcomes[i - 1].req_id, outcomes[i].req_id);
  }
  for (const auto& o : outcomes) {
    if (o.rejected) {
      EXPECT_EQ(o.bytes, 0u);
    }
  }
}

TEST(ServingEndToEnd, AcceptBoundRefusesExtraConnections) {
  ServingConfig sc;
  sc.max_conns = 1;
  PoolConfig pc;
  pc.connections = 3;
  ServingRig t(sc, pc);
  t.pool->start();
  t.rig.loop().run_until(200 * kMillisecond);
  // One connection admitted; the other two are closed on accept and keep
  // getting refused as the pool re-dials them.
  EXPECT_EQ(t.server->conns_accepted(), 1u);
  EXPECT_GE(t.server->conns_refused(), 2u);
  EXPECT_EQ(t.server->open_conns(), 1u);
  EXPECT_EQ(t.pool->connected_conns(), 1u);
  t.pool->stop();
}

// What a raw client saw of one response: the largest data frame, the
// payload bytes and whether the fin frame arrived.
struct RawResponse {
  uint32_t largest_frame = 0;
  uint64_t payload = 0;
  bool fin = false;
};

RawResponse fetch_raw(ServingRig& t, const ServingRequest& req) {
  StreamSocket& s =
      t.cs->connect(t.rig.client_addr(0), {t.rig.server_addr(), 80});
  RawResponse r;
  FrameReader reader;
  reader.on_frame = [&](const FrameHeader& h) {
    if (h.kind == kFrameData) {
      r.largest_frame = std::max(r.largest_frame, h.payload_len);
    }
    r.fin |= h.kind == kFrameFin;
    return true;
  };
  reader.on_payload = [&](const FrameHeader&, std::span<const uint8_t> v) {
    r.payload += v.size();
    return true;
  };
  s.on_connected = [&] { s.write(serving_encode_request(req)); };
  s.on_readable = [&] { reader.pump(s); };
  t.rig.loop().run_until(t.rig.loop().now() + 2 * kSecond);
  s.on_readable = nullptr;  // the socket outlives `reader` and `r`
  return r;
}

TEST(ServingEndToEnd, RequestedChunkAboveServerQuantumIsClamped) {
  // The server stages each data frame in a buffer sized by the frame, so
  // a request naming a 64 MiB quantum must still get frames of at most
  // kServingChunkBytes -- and its exact response.
  ServingRig t;
  constexpr uint64_t kSize = 100'000;
  const RawResponse r = fetch_raw(t, ServingRequest{7, kSize, 64u << 20});
  EXPECT_TRUE(r.fin);
  EXPECT_EQ(r.payload, kSize);
  EXPECT_GT(r.largest_frame, 0u);
  EXPECT_LE(r.largest_frame, kServingChunkBytes);
}

TEST(ServingEndToEnd, RequestNamingNoChunkGetsServerQuantum) {
  // A quantum of 0 leaves the choice to the server: full frames of
  // kServingChunkBytes, and the exact response.
  ServingRig t;
  constexpr uint64_t kSize = 100'000;
  const RawResponse r = fetch_raw(t, ServingRequest{9, kSize, 0});
  EXPECT_TRUE(r.fin);
  EXPECT_EQ(r.payload, kSize);
  EXPECT_EQ(r.largest_frame, kServingChunkBytes);
}

// A raw client that pipelines `count` requests for large responses as
// fast as its send buffer takes them and never reads a byte.
struct NeverReadingPeer {
  NeverReadingPeer(ServingRig& t, uint64_t count)
      : sock(t.cs->connect(t.rig.client_addr(0), {t.rig.server_addr(), 80})) {
    for (uint64_t id = 0; id < count; ++id) {
      const std::vector<uint8_t> req =
          serving_encode_request(ServingRequest{id, 1'000'000});
      requests.insert(requests.end(), req.begin(), req.end());
    }
    sock.on_connected = [this] { push(); };
    sock.on_send_space = [this] { push(); };
  }
  void push() {
    while (written < requests.size()) {
      const size_t n =
          sock.write(std::span<const uint8_t>(requests).subspan(written));
      if (n == 0) return;
      written += n;
    }
  }
  StreamSocket& sock;
  std::vector<uint8_t> requests;
  size_t written = 0;
};

TEST(ServingEndToEnd, PeerThatNeverReadsCannotGrowTheServerQueue) {
  // The peer's first response stalls on its closed window, so its
  // pipeline fills; every later request must stay unread in the
  // transport's bounded receive queue rather than be consumed and queued
  // as a reject behind the stalled response.
  ServingConfig sc;  // max_pipeline 16, no admission cap
  ServingRig t(sc);
  NeverReadingPeer peer(t, 4000);
  t.rig.loop().run_until(3 * kSecond);

  EXPECT_GT(peer.written, sc.max_pipeline * kServingRequestSize);
  EXPECT_EQ(t.server->requests_rejected(), 0u);
  EXPECT_EQ(t.server->inflight(), sc.max_pipeline);
  EXPECT_EQ(t.server->requests_served(), 0u);
}

TEST(ServingEndToEnd, StalledPeerLeavesOtherConnectionsServed) {
  // A full pipeline holds back only its own connection's requests: the
  // pool's connections to the same server are parsed and answered while
  // the stalled peer keeps its max_pipeline requests and no more.
  ServingConfig sc;
  PoolConfig pc;
  pc.connections = 2;
  pc.max_mux = 4;
  ServingRig t(sc, pc);
  NeverReadingPeer peer(t, 1000);
  std::vector<RequestOutcome> outcomes;
  t.pool->on_done = [&](const RequestOutcome& o) { outcomes.push_back(o); };
  t.pool->start();
  t.rig.loop().run_until(200 * kMillisecond);
  ASSERT_EQ(t.server->inflight(), sc.max_pipeline);  // the peer is stalled
  constexpr size_t kRequests = 24;
  for (size_t i = 0; i < kRequests; ++i) t.pool->submit(20'000 + 111 * i);
  t.rig.loop().run_until(5 * kSecond);

  ASSERT_EQ(outcomes.size(), kRequests);
  for (const RequestOutcome& o : outcomes) EXPECT_TRUE(o.ok) << o.req_id;
  EXPECT_EQ(t.server->requests_served(), kRequests);
  EXPECT_EQ(t.server->requests_rejected(), 0u);
  EXPECT_EQ(t.server->inflight(), sc.max_pipeline);
}

// Pipelines deeper than a RingQueue's first allocation (8 slots): the
// server's per-connection pipeline and the pool's pending and retry
// rings grow and shrink while responses stream, so a reference into one
// of them kept across a push or pop fails under the sanitizer build.
constexpr size_t kDeepPipeline = 32;

std::vector<uint64_t> deep_pipeline_sizes(size_t n) {
  std::vector<uint64_t> sizes;
  sizes.push_back(100'000);  // streams while the rest are parsed
  for (size_t i = 1; i < n; ++i) sizes.push_back(1'000 + 37 * i);
  return sizes;
}

// Every outcome arrived once, in request order, and each completed one
// carried exactly the bytes it asked for.
void expect_in_order_and_exact(const std::vector<RequestOutcome>& outcomes,
                               const std::vector<uint64_t>& sizes) {
  ASSERT_EQ(outcomes.size(), sizes.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].req_id, i);
    if (outcomes[i].ok) {
      EXPECT_EQ(outcomes[i].bytes, sizes[i]) << "req " << i;
    }
  }
}

TEST(ServingEndToEnd, DeepPipelineRejectModeAnswersInOrder) {
  ServingConfig sc;
  sc.max_pipeline = kDeepPipeline;
  sc.max_inflight = 8;  // the rest of each burst is rejected in order
  PoolConfig pc;
  pc.connections = 1;
  pc.max_mux = kDeepPipeline;
  pc.chunk_bytes = 4096;
  ServingRig t(sc, pc, /*snd_buf=*/16 * 1024);
  std::vector<RequestOutcome> outcomes;
  t.pool->on_done = [&](const RequestOutcome& o) { outcomes.push_back(o); };
  t.pool->start();
  t.rig.loop().run_until(50 * kMillisecond);
  const std::vector<uint64_t> sizes = deep_pipeline_sizes(48);
  for (uint64_t size : sizes) t.pool->submit(size);
  EXPECT_EQ(t.pool->inflight(), kDeepPipeline);
  EXPECT_EQ(t.pool->queued(), sizes.size() - kDeepPipeline);
  t.rig.loop().run_until(10 * kSecond);

  expect_in_order_and_exact(outcomes, sizes);
  EXPECT_GT(t.pool->rejected(), kDeepPipeline / 2);
  EXPECT_EQ(t.pool->rejected(), t.server->requests_rejected());
  EXPECT_EQ(t.pool->completed(), t.server->requests_served());
  EXPECT_EQ(t.pool->completed() + t.pool->rejected(), sizes.size());
  EXPECT_EQ(t.pool->errors(), 0u);
  EXPECT_EQ(t.server->peak_inflight(), 8u);
}

TEST(ServingEndToEnd, DeepPipelineDeferModeFillsPipelineThenResumes) {
  ServingConfig sc;
  sc.max_pipeline = kDeepPipeline;
  PoolConfig pc;
  pc.connections = 1;
  pc.max_mux = kDeepPipeline + 8;  // past the pipeline bound: deferred
  pc.chunk_bytes = 4096;
  ServingRig t(sc, pc, /*snd_buf=*/16 * 1024);
  std::vector<RequestOutcome> outcomes;
  t.pool->on_done = [&](const RequestOutcome& o) { outcomes.push_back(o); };
  t.pool->start();
  t.rig.loop().run_until(50 * kMillisecond);
  const std::vector<uint64_t> sizes = deep_pipeline_sizes(64);
  for (uint64_t size : sizes) t.pool->submit(size);
  t.rig.loop().run_until(10 * kSecond);

  // Each finished response frees one pipeline slot and the deferred
  // request behind it is parsed from inside the response pump.
  expect_in_order_and_exact(outcomes, sizes);
  EXPECT_EQ(t.pool->completed(), sizes.size());
  EXPECT_EQ(t.pool->rejected(), 0u);
  EXPECT_EQ(t.server->requests_rejected(), 0u);
  EXPECT_EQ(t.server->peak_inflight(), kDeepPipeline);
}

TEST(ServingEndToEnd, DeepPipelineFailoverRetriesInSubmitOrder) {
  ServingConfig sc;
  sc.max_pipeline = kDeepPipeline;
  PoolConfig pc;
  pc.connections = 1;
  pc.max_mux = kDeepPipeline;
  pc.max_retries = 1;
  ServingRig t(sc, pc);
  std::vector<RequestOutcome> outcomes;
  t.pool->on_done = [&](const RequestOutcome& o) { outcomes.push_back(o); };
  t.pool->start();
  t.rig.loop().run_until(50 * kMillisecond);
  const std::vector<uint64_t> sizes(48, 50'000);
  for (uint64_t size : sizes) t.pool->submit(size);
  size_t outstanding_at_crash = 0;
  t.rig.loop().schedule_in(30 * kMillisecond, [&] {
    outstanding_at_crash = t.pool->inflight();
    t.server->for_each_conn([](StreamSocket& s) { s.close(); });
  });
  t.rig.loop().run_until(10 * kSecond);

  // The outstanding requests went back to the front of the pool queue
  // (push_front, last first) ahead of the fresh ones still queued, so on
  // the one re-dialled connection every request completes in submit
  // order.
  EXPECT_GT(outstanding_at_crash, 8u);
  expect_in_order_and_exact(outcomes, sizes);
  EXPECT_EQ(t.pool->completed(), sizes.size());
  EXPECT_EQ(t.pool->errors(), 0u);
  size_t retried = 0;
  for (const RequestOutcome& o : outcomes) retried += o.retries;
  EXPECT_GE(retried, outstanding_at_crash);
}

// --- workload-engine serving modes ------------------------------------------

TEST(ServingWorkload, OpenLoopEngineDrivesPoolsAndExportsTailStats) {
  CapacitySpec top;
  top.clients = 2;
  top.servers = 1;
  top.bottleneck_rate_bps = 100e6;
  CapacityTopology cap = build_capacity_topology(top, /*seed=*/7);

  WorkloadConfig wc;
  wc.clients = cap.clients;
  wc.servers = cap.servers;
  wc.seed = 7;
  FlowClass serving;
  serving.name = "serving";
  serving.app_mode = FlowClass::AppMode::kServing;
  serving.request_rate_hz = 50.0;
  serving.size_dist = FlowClass::SizeDist::kPareto;
  serving.mean_size = 30'000;
  serving.min_size = 500;
  serving.max_size = 500'000;
  serving.transport = serving.transport.with_buffers(64 * 1024, 64 * 1024);
  wc.classes.push_back(serving);

  WorkloadEngine engine(*cap.topo, wc);
  engine.start();
  cap.topo->loop().run_until(2 * kSecond);

  EXPECT_GT(engine.completed(0), 50u);
  EXPECT_EQ(engine.errors(0), 0u);
  const FineHistogram* h = engine.request_fct_us(0);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), engine.completed(0));
  EXPECT_GE(h->percentile(0.999), h->percentile(0.50));
  // Pareto sizes respect the clamp.
  EXPECT_GT(engine.bytes_received(0), engine.completed(0) * 500);
}

TEST(ServingWorkload, RateScaleStepRaisesAndRestoresArrivals) {
  CapacitySpec top;
  top.clients = 2;
  top.servers = 1;
  top.bottleneck_rate_bps = 100e6;
  CapacityTopology cap = build_capacity_topology(top, /*seed=*/3);

  WorkloadConfig wc;
  wc.clients = cap.clients;
  wc.servers = cap.servers;
  wc.seed = 3;
  FlowClass serving;
  serving.name = "serving";
  serving.app_mode = FlowClass::AppMode::kServing;
  serving.request_rate_hz = 40.0;
  serving.size_dist = FlowClass::SizeDist::kFixed;
  serving.mean_size = 2'000;
  wc.classes.push_back(serving);

  WorkloadEngine engine(*cap.topo, wc);
  engine.start();
  EventLoop& loop = cap.topo->loop();
  loop.run_until(kSecond);
  const uint64_t base = engine.started(0);
  engine.set_rate_scale(0, 10.0);
  loop.run_until(2 * kSecond);
  const uint64_t spike = engine.started(0) - base;
  engine.set_rate_scale(0, 1.0);
  loop.run_until(3 * kSecond);
  const uint64_t after = engine.started(0) - base - spike;
  // The x10 window started several times the arrivals of either
  // unit-rate window.
  EXPECT_GT(spike, 4 * base);
  EXPECT_GT(spike, 4 * after);
  EXPECT_GT(after, 0u);
}

// --- determinism ------------------------------------------------------------

TEST(ServingDigest, RunTwiceIsBitIdentical) {
  DigestConfig cfg;
  cfg.scenario = DigestScenario::kServing;
  cfg.duration = 1500 * kMillisecond;
  const DigestResult a = run_digest_scenario(cfg);
  const DigestResult b = run_digest_scenario(cfg);
  EXPECT_EQ(digest_hex(a.digest), digest_hex(b.digest));
  EXPECT_EQ(a.packets_hashed, b.packets_hashed);
  EXPECT_EQ(a.stats_json, b.stats_json);
  EXPECT_GT(a.bytes_delivered, 0u);
}

TEST(ServingDigest, MatchesRecordedBaseline) {
  DigestConfig cfg;  // seed 1, 5 s -- the recorded baseline configuration
  cfg.scenario = DigestScenario::kServing;
  const DigestResult r = run_digest_scenario(cfg);
  EXPECT_EQ(digest_hex(r.digest), "cff9942a0746126b");
  EXPECT_EQ(r.packets_hashed, 31604u);
  EXPECT_EQ(r.bytes_delivered, 26752182u);
}

}  // namespace
}  // namespace mptcp
