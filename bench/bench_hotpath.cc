// Hot-path microbenchmarks: the three code paths every experiment in this
// repo funnels through, measured in host wall-clock terms so the numbers
// track real CI capacity rather than simulated goodput.
//
//   1. EventLoop scheduling  -- self-rescheduling callback chains
//      (steady-state schedule/fire) and Timer re-arm churn
//      (schedule/cancel, the RTO pattern: almost every timer armed by a
//      TCP connection is cancelled before it fires).
//   2. Segment forwarding    -- a ring of links moving full-MSS segments,
//      i.e. the deliver() path between every element of the simulator,
//      plus a TSO-style splitter whose cost is dominated by payload
//      handling.
//   3. RFC 1071 checksumming -- the primitive shared by the TCP wire
//      checksum and the MPTCP DSS checksum (paper section 3.3.6).
//
// Writes machine-readable results (BENCH_hotpath.json by default, or the
// path given as argv[1]) so future changes can be compared against the
// recorded trajectory. Iteration counts are fixed, not time-targeted, so
// two builds of the same source do strictly comparable work.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/meta_recv.h"
#include "core/scheduler.h"
#include "middlebox/segment_splitter.h"
#include "net/checksum.h"
#include "net/payload.h"
#include "sim/event_loop.h"
#include "sim/link.h"
#include "tcp/tcp_buffers.h"

namespace mptcp {
namespace bench {
namespace {

constexpr size_t kMss = 1460;

TcpSegment make_data_segment() {
  TcpSegment seg;
  seg.tuple.src = {IpAddr{0x0a000001}, 40000};
  seg.tuple.dst = {IpAddr{0x0a000002}, 80};
  seg.seq = 1;
  seg.ack = 1;
  seg.ack_flag = true;
  seg.payload.assign(kMss, 0xAB);
  return seg;
}

// --- 1a. steady-state scheduling -----------------------------------------

struct ChainState {
  EventLoop* loop;
  uint64_t fired = 0;
  uint64_t target = 0;
};

void chain_fire(ChainState* c, int lane) {
  if (c->fired >= c->target) return;
  ++c->fired;
  // Mixed horizons so events interleave in the heap instead of degenerating
  // into a FIFO.
  static constexpr SimTime kDts[] = {1 * kMicrosecond, 3 * kMicrosecond,
                                     10 * kMicrosecond};
  const SimTime dt = kDts[(lane + static_cast<int>(c->fired)) % 3];
  c->loop->schedule_in(dt, [c, lane] { chain_fire(c, lane); });
}

double bench_events_per_sec(uint64_t target) {
  EventLoop loop;
  ChainState chain{&loop, 0, target};
  constexpr int kLanes = 256;
  WallTimer w;
  for (int lane = 0; lane < kLanes; ++lane) chain_fire(&chain, lane);
  loop.run();
  return static_cast<double>(chain.fired) / w.seconds();
}

// --- 1b. timer re-arm churn ----------------------------------------------

double bench_timer_churn_per_sec(uint64_t arms) {
  EventLoop loop;
  uint64_t fires = 0;
  Timer rto(loop, [&fires] { ++fires; });
  WallTimer w;
  for (uint64_t i = 0; i < arms; ++i) {
    // Every arm cancels the previous schedule, the pattern of an RTO timer
    // pushed back by each arriving ACK.
    rto.arm_in(kMillisecond + static_cast<SimTime>(i % 16) * kMicrosecond);
  }
  loop.run();
  const double secs = w.seconds();
  if (fires != 1) std::fprintf(stderr, "timer churn: expected 1 fire\n");
  return static_cast<double>(arms) / secs;
}

// --- 2a. link-chain forwarding -------------------------------------------

/// Terminates the ring: counts a completed lap and re-injects the segment
/// until `target_laps` laps have been driven.
class RingPump : public PacketSink {
 public:
  void deliver(TcpSegment seg) override {
    ++laps_;
    if (laps_ < target_laps_) head_->deliver(std::move(seg));
  }
  uint64_t laps_ = 0;
  uint64_t target_laps_ = 0;
  PacketSink* head_ = nullptr;
};

double bench_forward_segments_per_sec(uint64_t target_laps, size_t hops) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate_bps = 10e9;
  cfg.prop_delay = 1 * kMicrosecond;
  cfg.buffer_bytes = 1 << 20;
  std::vector<std::unique_ptr<Link>> links;
  for (size_t i = 0; i < hops; ++i) {
    links.push_back(std::make_unique<Link>(loop, cfg, "hop"));
  }
  RingPump pump;
  pump.target_laps_ = target_laps;
  pump.head_ = links.front().get();
  for (size_t i = 0; i + 1 < hops; ++i) {
    links[i]->set_target(links[i + 1].get());
  }
  links.back()->set_target(&pump);

  constexpr int kWindow = 16;  // segments circulating concurrently
  WallTimer w;
  for (int i = 0; i < kWindow; ++i) pump.head_->deliver(make_data_segment());
  loop.run();
  const double secs = w.seconds();
  uint64_t forwarded = 0;
  for (const auto& l : links) forwarded += l->stats().delivered_pkts;
  return static_cast<double>(forwarded) / secs;
}

class CountingSink : public PacketSink {
 public:
  void deliver(TcpSegment seg) override {
    ++count_;
    bytes_ += seg.payload_size();
  }
  uint64_t count_ = 0;
  uint64_t bytes_ = 0;
};

// --- 2b. burst egress (the cwnd-at-once send path) ------------------------

/// One link fed a cwnd's worth of segments per deliver_burst() call -- the
/// path TcpConnection::try_send takes -- then drained. Tracks the amortized
/// enqueue + serialization cost per segment.
double bench_burst_deliver_per_sec(uint64_t bursts) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate_bps = 10e9;
  cfg.prop_delay = 1 * kMicrosecond;
  cfg.buffer_bytes = 1 << 20;
  Link link(loop, cfg, "burst");
  CountingSink sink;
  link.set_target(&sink);
  constexpr size_t kBurst = 32;
  const TcpSegment proto = make_data_segment();
  std::vector<TcpSegment> batch(kBurst);
  WallTimer w;
  for (uint64_t i = 0; i < bursts; ++i) {
    for (size_t j = 0; j < kBurst; ++j) batch[j] = proto;  // refcounted copy
    link.deliver_burst(batch.data(), kBurst);
    loop.run();
  }
  const double secs = w.seconds();
  if (sink.count_ != bursts * kBurst) {
    std::fprintf(stderr, "burst deliver: segment count mismatch\n");
  }
  return static_cast<double>(sink.count_) / secs;
}

// --- 2c. TSO-style splitting (payload-copy heavy) ------------------------

double bench_split_segments_per_sec(uint64_t inputs) {
  SegmentSplitter splitter(/*mtu_payload=*/512);
  CountingSink sink;
  splitter.set_downstream(&sink);
  const TcpSegment proto = make_data_segment();
  WallTimer w;
  for (uint64_t i = 0; i < inputs; ++i) {
    TcpSegment seg = proto;  // the copy a fan-out/retransmit path would make
    seg.seq = static_cast<uint32_t>(i * kMss);
    splitter.deliver(std::move(seg));
  }
  const double secs = w.seconds();
  if (sink.bytes_ != inputs * kMss) {
    std::fprintf(stderr, "splitter: byte count mismatch\n");
  }
  return static_cast<double>(sink.count_) / secs;
}

// --- 3. checksum kernel ---------------------------------------------------

double bench_checksum_gbps(size_t block, uint64_t iters) {
  std::vector<uint8_t> buf(block);
  for (size_t i = 0; i < block; ++i) buf[i] = static_cast<uint8_t>(i * 31);
  // Fold every round's sum into a running value the optimizer cannot drop,
  // and vary the first byte so no two rounds sum identical data.
  uint32_t guard = 0;
  WallTimer w;
  for (uint64_t i = 0; i < iters; ++i) {
    buf[0] = static_cast<uint8_t>(i);
    guard += ones_complement_sum(buf);
  }
  const double secs = w.seconds();
  if (guard == 0xdeadbeef) std::fprintf(stderr, "(unreachable)\n");
  return static_cast<double>(block) * static_cast<double>(iters) / secs / 1e9;
}

// --- 4. meta out-of-order insert (per algorithm) --------------------------

// The paper's receiver-CPU scenario: several subflows each deliver
// contiguous data-sequence runs, but the runs interleave in DSN space, so
// the connection-level queue stays long-lived. Chunks arrive round-robin
// across subflows (each subflow's next chunk is adjacent to its previous
// one -- the shortcut-friendly pattern), and the queue is only drained once
// it reaches kQueueCap chunks, keeping the scan distance realistic.
double bench_meta_insert_per_sec(RecvAlgo algo, uint64_t target_inserts) {
  constexpr size_t kSubflows = 4;
  constexpr size_t kRun = 16;        // chunks per contiguous per-subflow run
  constexpr size_t kQueueCap = 1024; // drain threshold (chunks)
  MetaReceiveQueue q(algo);
  const Payload proto(kMss, 0xCD);
  uint64_t inserted = 0;
  uint64_t dsn_base = 0;
  uint64_t rcv_nxt = 0;
  WallTimer w;
  while (inserted < target_inserts) {
    for (size_t c = 0; c < kRun; ++c) {
      for (size_t sf = 0; sf < kSubflows; ++sf) {
        const uint64_t dsn = dsn_base + (sf * kRun + c) * kMss;
        q.insert(dsn, proto, sf, rcv_nxt);
        ++inserted;
      }
    }
    dsn_base += kSubflows * kRun * kMss;
    if (q.chunk_count() >= kQueueCap) {
      while (auto chunk = q.pop_ready(rcv_nxt)) {
        rcv_nxt = chunk->dsn + chunk->bytes.size();
      }
    }
  }
  return static_cast<double>(inserted) / w.seconds();
}

// --- 5. end-to-end delivery bandwidth -------------------------------------

// The full receive funnel past reassembly: meta OOO insert, in-order pop,
// app-queue push, and 16 KiB consume steps -- the path every delivered byte
// takes. Reported in GB/s like the checksum kernel.
double bench_deliver_gbps(uint64_t total_bytes) {
  constexpr size_t kBurst = 32;  // chunks landing before each drain
  MetaReceiveQueue q(RecvAlgo::kShortcuts);
  RecvQueue rx;
  const Payload proto(kMss, 0x5A);
  uint64_t rcv_nxt = 0;
  uint64_t delivered = 0;
  WallTimer w;
  while (delivered < total_bytes) {
    // Even chunks of the burst land first, then the odd ones: every other
    // insert fills a gap, exercising placement rather than pure append.
    for (size_t c = 0; c < kBurst; c += 2) {
      q.insert(rcv_nxt + c * kMss, proto, c % 2, rcv_nxt);
    }
    for (size_t c = 1; c < kBurst; c += 2) {
      q.insert(rcv_nxt + c * kMss, proto, c % 2, rcv_nxt);
    }
    while (auto chunk = q.pop_ready(rcv_nxt)) {
      rcv_nxt = chunk->dsn + chunk->bytes.size();
      rx.push(std::move(chunk->bytes));
    }
    while (!rx.empty()) {
      const size_t n = std::min<size_t>(rx.size(), 16 * 1024);
      rx.consume(n);
      delivered += n;
    }
  }
  return static_cast<double>(delivered) / w.seconds() / 1e9;
}

// --- 6. scheduler pick/alloc (the per-chunk send-path decisions) -----------

// Every chunk an MPTCP sender moves goes through Scheduler::pick (choose
// the carrier subflow) and Scheduler::allocate (policy bookkeeping).
// Measured against a live two-subflow connection so pick() scans real
// subflow state (srtt, cwnd space, backup flags), not a synthetic stub.
struct SchedBenchResult {
  double picks_per_sec = 0;
  double allocs_per_sec = 0;
};

SchedBenchResult bench_scheduler(uint64_t picks, uint64_t allocs) {
  SchedBenchResult out;
  TwoHostRig rig({wifi_path(), threeg_path()});
  MptcpConfig cfg;
  MptcpStack cs(rig.client(), cfg), ss(rig.server(), cfg);
  std::unique_ptr<BulkReceiver> rx;
  ss.listen(80, [&](MptcpConnection& c) {
    rx = std::make_unique<BulkReceiver>(c, /*verify=*/false);
  });
  MptcpConnection& conn =
      cs.connect(rig.client_addr(0), Endpoint{rig.server_addr(), 80});
  // A finite transfer that completes within the warm-up: both subflows
  // carry real RTT and congestion-window state into the selection scan,
  // but their windows have drained by measurement time, so pick() takes
  // the successful path (returns the lowest-RTT subflow) rather than
  // scanning to nullptr.
  BulkSender tx(conn, 1'000'000, /*close_when_done=*/false);
  rig.loop().run_until(2 * kSecond);

  SchedulerHost& host = conn.scheduler_host();
  auto lowest = Scheduler::make(SchedulerPolicy::kLowestRtt);
  uint64_t guard = 0;
  WallTimer w;
  for (uint64_t i = 0; i < picks; ++i) {
    guard += lowest->pick(host, 1 + (i & 1)) != nullptr;
  }
  out.picks_per_sec = static_cast<double>(picks) / w.seconds();
  if (guard == 0) std::fprintf(stderr, "sched pick: nothing picked\n");

  // allocate(): the redundant policy's per-subflow cursor update is the
  // most expensive bookkeeping any policy does per chunk.
  auto redundant = Scheduler::make(SchedulerPolicy::kRedundant);
  MptcpSubflow& sf = *conn.subflow(0);
  WallTimer w2;
  for (uint64_t i = 0; i < allocs; ++i) {
    redundant->allocate(i * kMss, kMss, sf);
  }
  out.allocs_per_sec = static_cast<double>(allocs) / w2.seconds();
  if (redundant->allocs() != allocs) {
    std::fprintf(stderr, "sched alloc: count mismatch\n");
  }
  return out;
}

// --- 7. app-queue read vs backlog (O(bytes read) tripwire) ----------------

// Small reads from a deep receive queue. With the chunked queue a 256-byte
// read costs O(256) no matter how much is buffered behind it; the old flat
// buffer's front-erase made it O(backlog). The small/large pair must stay
// within noise of each other -- a gap reintroduces the O(n) front-erase.
double bench_recv_queue_read_per_sec(size_t backlog_bytes, uint64_t reads) {
  RecvQueue q;
  const Payload chunk(kMss, 0x42);
  while (q.size() < backlog_bytes) q.push(chunk);
  uint8_t buf[256];
  uint64_t guard = 0;
  WallTimer w;
  for (uint64_t i = 0; i < reads; ++i) {
    guard += q.read(buf);
    while (q.size() < backlog_bytes) q.push(chunk);
  }
  const double secs = w.seconds();
  if (guard == 0) std::fprintf(stderr, "recv queue read: no bytes\n");
  return static_cast<double>(reads) / secs;
}

}  // namespace
}  // namespace bench
}  // namespace mptcp

int main(int argc, char** argv) {
  using namespace mptcp;
  using namespace mptcp::bench;

  // --smoke divides every iteration count by 10: same code paths, ~10% of
  // the wall time. This is what ctest runs, so single-core CI boxes (and
  // laptops) finish the suite comfortably inside the test timeout; the
  // tracked BENCH_hotpath.json baseline and the perf-gate CI job always
  // use the full counts (the `hotpath_bench` make target).
  bool smoke = false;
  std::string out_path = "BENCH_hotpath.json";
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  const uint64_t d = smoke ? 10 : 1;  // iteration-count divisor

  WallTimer total;
  const double events_per_sec = bench_events_per_sec(2'000'000 / d);
  std::printf("events_per_sec            %14.0f\n", events_per_sec);
  const double timer_churn = bench_timer_churn_per_sec(1'000'000 / d);
  std::printf("timer_rearms_per_sec      %14.0f\n", timer_churn);
  const double fwd = bench_forward_segments_per_sec(100'000 / d, /*hops=*/8);
  std::printf("forward_segments_per_sec  %14.0f\n", fwd);
  const double burst = bench_burst_deliver_per_sec(30'000 / d);
  std::printf("burst_deliver_per_sec     %14.0f\n", burst);
  const double split = bench_split_segments_per_sec(300'000 / d);
  std::printf("split_segments_per_sec    %14.0f\n", split);
  const double gbps64k = bench_checksum_gbps(64 * 1024, 20'000 / d);
  std::printf("checksum_gbps (64KiB)     %14.3f\n", gbps64k);
  const double gbps_mss = bench_checksum_gbps(kMss, 400'000 / d);
  std::printf("checksum_gbps (1460B)     %14.3f\n", gbps_mss);

  const uint64_t kMetaInserts = 200'000 / d;
  const double meta_regular =
      bench_meta_insert_per_sec(RecvAlgo::kRegular, kMetaInserts);
  std::printf("meta_insert_regular       %14.0f\n", meta_regular);
  const double meta_tree =
      bench_meta_insert_per_sec(RecvAlgo::kTree, kMetaInserts);
  std::printf("meta_insert_tree          %14.0f\n", meta_tree);
  const double meta_shortcuts =
      bench_meta_insert_per_sec(RecvAlgo::kShortcuts, kMetaInserts);
  std::printf("meta_insert_shortcuts     %14.0f\n", meta_shortcuts);
  const double meta_allshortcuts =
      bench_meta_insert_per_sec(RecvAlgo::kAllShortcuts, kMetaInserts);
  std::printf("meta_insert_allshortcuts  %14.0f\n", meta_allshortcuts);
  const double deliver = bench_deliver_gbps((uint64_t{2} << 30) / d);
  std::printf("deliver_gbps              %14.3f\n", deliver);
  const SchedBenchResult sched = bench_scheduler(2'000'000 / d, 2'000'000 / d);
  std::printf("sched_pick_per_sec        %14.0f\n", sched.picks_per_sec);
  std::printf("sched_alloc_per_sec       %14.0f\n", sched.allocs_per_sec);
  const double read_small =
      bench_recv_queue_read_per_sec(size_t{1} << 20, 500'000 / d);
  std::printf("read_small_backlog        %14.0f\n", read_small);
  const double read_large =
      bench_recv_queue_read_per_sec(size_t{64} << 20, 500'000 / d);
  std::printf("read_large_backlog        %14.0f\n", read_large);

  const bool ok = write_json(
      out_path, {{"events_per_sec", events_per_sec},
                 {"timer_rearms_per_sec", timer_churn},
                 {"forward_segments_per_sec", fwd},
                 {"burst_deliver_per_sec", burst},
                 {"split_segments_per_sec", split},
                 {"checksum_gbps", gbps64k},
                 {"checksum_mss_gbps", gbps_mss},
                 {"meta_insert_regular_per_sec", meta_regular},
                 {"meta_insert_tree_per_sec", meta_tree},
                 {"meta_insert_shortcuts_per_sec", meta_shortcuts},
                 {"meta_insert_allshortcuts_per_sec", meta_allshortcuts},
                 {"deliver_gbps", deliver},
                 {"sched_pick_per_sec", sched.picks_per_sec},
                 {"sched_alloc_per_sec", sched.allocs_per_sec},
                 {"meta_read_small_backlog_per_sec", read_small},
                 {"meta_read_large_backlog_per_sec", read_large},
                 {"wall_seconds_total", total.seconds()}});
  if (!ok) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
