// Simulator substrate tests: event loop semantics, link timing math,
// drop-tail behaviour, routing/demux, and the CPU model.
#include <gtest/gtest.h>

#include <vector>

#include "sim/event_loop.h"
#include "sim/link.h"
#include "sim/network.h"
#include "sim/trace.h"

namespace mptcp {
namespace {

TcpSegment make_seg(size_t payload = 0) {
  TcpSegment seg;
  seg.tuple = {{IpAddr(10, 0, 0, 1), 1}, {IpAddr(10, 0, 0, 2), 2}};
  seg.payload.assign(payload, 0);
  return seg;
}

// --- EventLoop ---------------------------------------------------------------

TEST(EventLoop, FiresInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(30, [&] { order.push_back(3); });
  loop.schedule_at(10, [&] { order.push_back(1); });
  loop.schedule_at(20, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoop, SameTimeFiresInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  loop.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool fired = false;
  auto id = loop.schedule_at(10, [&] { fired = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(EventLoop, RunUntilAdvancesTimeWithoutOverrunning) {
  EventLoop loop;
  int count = 0;
  loop.schedule_at(10, [&] { ++count; });
  loop.schedule_at(50, [&] { ++count; });
  loop.run_until(20);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(loop.now(), 20);
  loop.run_until(100);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(loop.now(), 100);
}

TEST(EventLoop, EventsScheduledFromEventsRun) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) loop.schedule_in(10, recurse);
  };
  loop.schedule_in(10, recurse);
  loop.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.now(), 50);
}

TEST(EventLoop, PastTimesClampToNow) {
  EventLoop loop;
  loop.run_until(100);
  SimTime fired_at = -1;
  loop.schedule_at(10, [&] { fired_at = loop.now(); });
  loop.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(Timer, RearmReplacesDeadline) {
  EventLoop loop;
  int fired = 0;
  Timer t(loop, [&] { ++fired; });
  t.arm_in(100);
  t.arm_in(200);  // replaces, does not duplicate
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), 200);
}

TEST(Timer, LaterRearmsFireOnceInTheLastRearmsScheduleOrder) {
  // A timer pushed later 1,000 times, while time advances past the
  // deadlines it held before, fires once, at its last deadline. Among
  // events due at that instant it takes the place of its last re-arm:
  // after one scheduled before that re-arm, before one scheduled after.
  EventLoop loop;
  std::vector<int> order;
  Timer t(loop, [&] { order.push_back(1); });
  constexpr int kRearms = 1000;
  auto deadline = [](int i) {
    return kMillisecond + static_cast<SimTime>(i) * 50 * kMicrosecond;
  };
  const SimTime last = deadline(kRearms - 1);
  for (int i = 0; i < kRearms; ++i) {
    loop.run_until(static_cast<SimTime>(i) * 10 * kMicrosecond);
    if (i == kRearms - 1) loop.schedule_at(last, [&] { order.push_back(0); });
    t.arm_at(deadline(i));
  }
  loop.schedule_at(last, [&] { order.push_back(2); });
  EXPECT_TRUE(order.empty());
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(loop.now(), last);
}

TEST(EventLoop, NextEventTimeReportsARearmedTimersLastDeadline) {
  EventLoop loop;
  int fired = 0;
  Timer t(loop, [&] { ++fired; });
  loop.schedule_at(30 * kMillisecond, [] {});
  t.arm_at(kMillisecond);
  t.arm_at(5 * kMillisecond);
  EXPECT_EQ(loop.next_event_time(), 5 * kMillisecond);
  // Time passes the deadline the timer first held.
  loop.run_until(2 * kMillisecond);
  EXPECT_EQ(loop.next_event_time(), 5 * kMillisecond);
  t.arm_at(20 * kMillisecond);
  EXPECT_EQ(loop.next_event_time(), 20 * kMillisecond);
  t.arm_at(50 * kMillisecond);
  EXPECT_EQ(loop.next_event_time(), 30 * kMillisecond);
  loop.run_until(40 * kMillisecond);
  EXPECT_EQ(loop.next_event_time(), 50 * kMillisecond);
  t.arm_at(45 * kMillisecond);  // earlier than the deadline it holds
  EXPECT_EQ(loop.next_event_time(), 45 * kMillisecond);
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), 45 * kMillisecond);
  EXPECT_EQ(loop.next_event_time(), kSimTimeNever);
}

TEST(EventLoop, RepeatedTimerRearmKeepsHeapBounded) {
  // Regression: cancel() used to leave the old entry in the priority
  // queue, so RTO-style timers re-armed on every segment grew the heap
  // without bound. Cancelled entries must now be reclaimed.
  EventLoop loop;
  int fired = 0;
  Timer t(loop, [&] { ++fired; });
  for (int i = 0; i < 100000; ++i) {
    t.arm_in(1000 + i);  // each arm cancels the previous deadline
  }
  EXPECT_EQ(loop.pending_count(), 1u);
  EXPECT_LE(loop.heap_size(), 256u);  // dead entries compacted away
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.pending_count(), 0u);
  EXPECT_FALSE(loop.has_pending());
}

TEST(EventLoop, ScheduleCancelChurnReusesSlots) {
  EventLoop loop;
  bool fired = false;
  for (int i = 0; i < 100000; ++i) {
    auto id = loop.schedule_at(10 + i, [&] { fired = true; });
    loop.cancel(id);
    loop.cancel(id);  // double-cancel is a no-op (generation mismatch)
  }
  EXPECT_EQ(loop.pending_count(), 0u);
  EXPECT_LE(loop.heap_size(), 256u);
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(EventLoop, StaleIdCannotCancelSlotReuser) {
  EventLoop loop;
  bool fired = false;
  auto id = loop.schedule_at(10, [] {});
  loop.cancel(id);
  // The freed slot is reused by the next schedule; the stale id's
  // generation no longer matches, so cancelling it must be a no-op.
  loop.schedule_at(20, [&] { fired = true; });
  loop.cancel(id);
  loop.run();
  EXPECT_TRUE(fired);
}

// --- Link ---------------------------------------------------------------------

struct Collector : PacketSink {
  std::vector<std::pair<SimTime, size_t>> arrivals;
  EventLoop* loop = nullptr;
  void deliver(TcpSegment seg) override {
    arrivals.emplace_back(loop->now(), seg.wire_size());
  }
};

TEST(Link, SerializationPlusPropagationDelay) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;  // 1 byte per microsecond
  cfg.prop_delay = 5 * kMillisecond;
  cfg.buffer_bytes = 100000;
  Link link(loop, cfg);
  Collector sink;
  sink.loop = &loop;
  link.set_target(&sink);

  auto seg = make_seg(960);  // wire size 1000 bytes = 1 ms at 8 Mbps
  ASSERT_EQ(seg.wire_size(), 1000u);
  link.deliver(std::move(seg));
  loop.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].first, 1 * kMillisecond + 5 * kMillisecond);
}

TEST(Link, BackToBackPacketsSpacedBySerialization) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.prop_delay = 0;
  cfg.buffer_bytes = 100000;
  Link link(loop, cfg);
  Collector sink;
  sink.loop = &loop;
  link.set_target(&sink);
  for (int i = 0; i < 3; ++i) link.deliver(make_seg(960));
  loop.run();
  ASSERT_EQ(sink.arrivals.size(), 3u);
  EXPECT_EQ(sink.arrivals[1].first - sink.arrivals[0].first,
            1 * kMillisecond);
  EXPECT_EQ(sink.arrivals[2].first - sink.arrivals[1].first,
            1 * kMillisecond);
}

TEST(Link, DropTailWhenBufferFull) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.prop_delay = 0;
  cfg.buffer_bytes = 2500;  // fits two 1000-byte frames plus change
  Link link(loop, cfg);
  Collector sink;
  sink.loop = &loop;
  link.set_target(&sink);
  for (int i = 0; i < 5; ++i) link.deliver(make_seg(960));
  loop.run();
  EXPECT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(link.stats().dropped_overflow, 3u);
}

TEST(Link, FirstPacketAdmittedEvenIfBufferTiny) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.buffer_bytes = 10;  // smaller than any frame
  Link link(loop, cfg);
  Collector sink;
  sink.loop = &loop;
  link.set_target(&sink);
  link.deliver(make_seg(960));
  loop.run();
  EXPECT_EQ(sink.arrivals.size(), 1u);
}

TEST(Link, LossIsDeterministicPerSeed) {
  auto run_once = [](uint64_t seed) {
    EventLoop loop;
    LinkConfig cfg;
    cfg.loss_prob = 0.3;
    cfg.loss_seed = seed;
    cfg.buffer_bytes = 1 << 20;
    Link link(loop, cfg);
    Collector sink;
    sink.loop = &loop;
    link.set_target(&sink);
    for (int i = 0; i < 200; ++i) link.deliver(make_seg(100));
    loop.run();
    return sink.arrivals.size();
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));  // overwhelmingly likely
}

TEST(Link, DownLinkDropsEverything) {
  EventLoop loop;
  Link link(loop, LinkConfig{});
  Collector sink;
  sink.loop = &loop;
  link.set_target(&sink);
  link.set_up(false);
  link.deliver(make_seg(100));
  loop.run();
  EXPECT_TRUE(sink.arrivals.empty());
  EXPECT_EQ(link.stats().dropped_down, 1u);
}

TEST(Link, BufferForDelayHelper) {
  // 8 Mbps * 80 ms = 80 KB.
  EXPECT_EQ(LinkConfig::buffer_for_delay(8e6, 80 * kMillisecond), 80000u);
}

// Records (arrival time, seq) so tests can tell segments apart.
struct SeqCollector : PacketSink {
  std::vector<std::pair<SimTime, uint32_t>> arrivals;
  EventLoop* loop = nullptr;
  void deliver(TcpSegment seg) override {
    arrivals.emplace_back(loop->now(), seg.seq);
  }
};

TcpSegment make_seq_seg(uint32_t seq, size_t payload = 960) {
  TcpSegment seg = make_seg(payload);
  seg.seq = seq;
  return seg;
}

TEST(Link, LossBehindPropagatingSegmentsKeepsSurvivorTiming) {
  // 1 byte per microsecond, so a 1000-byte frame serializes in 1 ms while
  // every segment propagates for 100 ms: all twenty are in flight at once
  // and each loss happens at a departure behind propagating survivors.
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.prop_delay = 100 * kMillisecond;
  cfg.buffer_bytes = 1 << 20;
  cfg.loss_prob = 0.3;
  cfg.loss_seed = 5;
  Link link(loop, cfg);
  SeqCollector sink;
  sink.loop = &loop;
  link.set_target(&sink);
  constexpr uint32_t kSegs = 20;
  for (uint32_t i = 0; i < kSegs; ++i) link.deliver(make_seq_seg(i));
  loop.run();

  ASSERT_FALSE(sink.arrivals.empty());
  EXPECT_EQ(sink.arrivals.size() + link.stats().dropped_loss, kSegs);
  EXPECT_EQ(link.stats().delivered_pkts, sink.arrivals.size());
  bool lost_between_survivors = false;
  for (size_t k = 0; k < sink.arrivals.size(); ++k) {
    const auto [at, seq] = sink.arrivals[k];
    // Segment `seq` departs after seq+1 serializations, lost or not.
    EXPECT_EQ(at, (seq + 1) * kMillisecond + cfg.prop_delay) << "seq " << seq;
    if (k > 0) {
      EXPECT_GT(seq, sink.arrivals[k - 1].second);
      if (seq > sink.arrivals[k - 1].second + 1) lost_between_survivors = true;
    }
  }
  EXPECT_TRUE(lost_between_survivors) << "seed must lose a segment mid-flight";
}

TEST(Link, DownWhileQueuedDropsAtDepartureUntilBackUp) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.prop_delay = 5 * kMillisecond;
  cfg.buffer_bytes = 100000;
  Link link(loop, cfg);
  SeqCollector sink;
  sink.loop = &loop;
  link.set_target(&sink);
  for (uint32_t i = 0; i < 5; ++i) link.deliver(make_seq_seg(i));
  // Departures are at 1..5 ms: the first three leave while the link is
  // down, the last two after it came back.
  link.set_up(false);
  loop.schedule_at(3500 * kMicrosecond, [&] { link.set_up(true); });
  loop.run_until(3 * kMillisecond + 1);
  EXPECT_EQ(link.stats().dropped_down, 3u);
  EXPECT_EQ(link.queued_bytes(), 2000u);
  loop.run();
  EXPECT_EQ(link.stats().dropped_down, 3u);
  EXPECT_EQ(link.stats().enqueued_pkts, 5u);
  EXPECT_EQ(link.stats().delivered_pkts, 2u);
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_EQ(sink.arrivals[0],
            std::make_pair(9 * kMillisecond, uint32_t{3}));
  EXPECT_EQ(sink.arrivals[1],
            std::make_pair(10 * kMillisecond, uint32_t{4}));
}

TEST(Link, RetargetInFlightKeepsTargetCapturedAtDeparture) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.prop_delay = 10 * kMillisecond;
  cfg.buffer_bytes = 100000;
  Link link(loop, cfg);
  SeqCollector a;
  SeqCollector b;
  a.loop = b.loop = &loop;
  link.set_target(&a);
  link.deliver(make_seq_seg(0));
  link.deliver(make_seq_seg(1));
  // Segment 0 departed at 1 ms and is propagating; segment 1 departs at
  // 2 ms, after the switch.
  loop.schedule_at(1500 * kMicrosecond, [&] { link.set_target(&b); });
  loop.run();
  ASSERT_EQ(a.arrivals.size(), 1u);
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(a.arrivals[0], std::make_pair(11 * kMillisecond, uint32_t{0}));
  EXPECT_EQ(b.arrivals[0], std::make_pair(12 * kMillisecond, uint32_t{1}));
}

TEST(Link, ThousandSegmentsInFlightHoldAtMostTwoEvents) {
  // 1000-byte frames serialize in 1 us and propagate for 10 ms, so all
  // 1,000 segments are in flight at once. The link holds its
  // transmitter's event and the front segment's arrival, not one event
  // per segment, and each segment still arrives at its own instant.
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate_bps = 8e9;
  cfg.prop_delay = 10 * kMillisecond;
  cfg.buffer_bytes = 1 << 21;
  Link link(loop, cfg);
  SeqCollector sink;
  sink.loop = &loop;
  link.set_target(&sink);
  constexpr uint32_t kSegs = 1000;
  for (uint32_t i = 0; i < kSegs; ++i) link.deliver(make_seq_seg(i));
  for (SimTime t = 0; t <= 2 * kMillisecond; t += 100 * kMicrosecond) {
    loop.run_until(t);
    ASSERT_LE(loop.pending_count(), 2u) << "at " << t;
    ASSERT_LE(loop.heap_size(), 2u) << "at " << t;
  }
  EXPECT_EQ(link.stats().delivered_pkts, kSegs);  // all departed
  EXPECT_TRUE(sink.arrivals.empty());
  loop.run_until(cfg.prop_delay + 500 * kMicrosecond);
  EXPECT_EQ(loop.pending_count(), 1u);
  loop.run();
  ASSERT_EQ(sink.arrivals.size(), kSegs);
  for (uint32_t i = 0; i < kSegs; ++i) {
    EXPECT_EQ(sink.arrivals[i],
              std::make_pair((i + 1) * kMicrosecond + cfg.prop_delay, i));
  }
}

TEST(Link, TiedArrivalsOnTwoLinksFireInScheduleOrder) {
  // Links a and b share rate and delay, and deliver into one sink. a's
  // second segment and b's only one depart at 2 ms, so both arrive at
  // 12 ms; a's second is due while its first is still propagating. An
  // event scheduled between the two departures is due at 12 ms too. The
  // three fire in the order they were scheduled: a, the event, b.
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;  // 1 ms per 1000-byte frame
  cfg.prop_delay = 10 * kMillisecond;
  cfg.buffer_bytes = 100000;
  Link a(loop, cfg, "a");
  Link b(loop, cfg, "b");
  SeqCollector sink;
  sink.loop = &loop;
  a.set_target(&sink);
  b.set_target(&sink);
  constexpr uint32_t kEvent = 99;
  a.deliver(make_seq_seg(0));
  a.deliver(make_seq_seg(1));  // departs at 2 ms, after a's first
  loop.schedule_at(kMillisecond, [&] {
    // Due at 2 ms after a's second departure, which was scheduled when
    // a's first departed at this same instant, and before b's, which
    // the deliver below schedules.
    loop.schedule_at(2 * kMillisecond, [&] {
      loop.schedule_at(12 * kMillisecond, [&] {
        sink.arrivals.emplace_back(loop.now(), kEvent);
      });
    });
    b.deliver(make_seq_seg(10));
  });
  loop.run();
  const std::vector<std::pair<SimTime, uint32_t>> expected = {
      {11 * kMillisecond, 0},
      {12 * kMillisecond, 1},
      {12 * kMillisecond, kEvent},
      {12 * kMillisecond, 10}};
  EXPECT_EQ(sink.arrivals, expected);
}

TEST(Link, DeliverBurstMatchesPerSegmentDeliver) {
  struct Outcome {
    std::vector<std::pair<SimTime, uint32_t>> arrivals;
    Link::Stats stats;
    uint64_t occ_count = 0;
    uint64_t occ_sum = 0;
  };
  auto run_once = [](bool burst) {
    EventLoop loop;
    LinkConfig cfg;
    cfg.rate_bps = 8e6;
    cfg.prop_delay = 3 * kMillisecond;
    cfg.buffer_bytes = 3000;  // overflows part of each burst
    Link link(loop, cfg);
    SeqCollector sink;
    sink.loop = &loop;
    link.set_target(&sink);
    auto send_burst = [&](uint32_t first) {
      std::vector<TcpSegment> segs;
      for (uint32_t i = 0; i < 6; ++i) {
        segs.push_back(make_seq_seg(first + i, 200 + 300 * (i % 3)));
      }
      if (burst) {
        link.deliver_burst(segs.data(), segs.size());
      } else {
        for (TcpSegment& s : segs) link.deliver(std::move(s));
      }
    };
    send_burst(0);
    loop.schedule_at(1500 * kMicrosecond, [&] { send_burst(100); });
    loop.run();
    Outcome out;
    out.arrivals = sink.arrivals;
    out.stats = link.stats();
    out.occ_count = link.occupancy().count();
    out.occ_sum = link.occupancy().sum();
    return out;
  };
  const Outcome single = run_once(false);
  const Outcome burst = run_once(true);
  EXPECT_GT(single.stats.dropped_overflow, 0u);
  EXPECT_EQ(single.arrivals, burst.arrivals);
  EXPECT_EQ(single.stats.enqueued_pkts, burst.stats.enqueued_pkts);
  EXPECT_EQ(single.stats.delivered_pkts, burst.stats.delivered_pkts);
  EXPECT_EQ(single.stats.delivered_bytes, burst.stats.delivered_bytes);
  EXPECT_EQ(single.stats.dropped_overflow, burst.stats.dropped_overflow);
  EXPECT_EQ(single.stats.dropped_loss, burst.stats.dropped_loss);
  EXPECT_EQ(single.stats.dropped_down, burst.stats.dropped_down);
  EXPECT_EQ(single.occ_count, burst.occ_count);
  EXPECT_EQ(single.occ_sum, burst.occ_sum);
}

TEST(Link, QueuedBytesCountsOnlyUndepartedSegments) {
  EventLoop loop;
  LinkConfig cfg;
  cfg.rate_bps = 8e6;
  cfg.prop_delay = 10 * kMillisecond;
  cfg.buffer_bytes = 100000;
  Link link(loop, cfg);
  SeqCollector sink;
  sink.loop = &loop;
  link.set_target(&sink);
  for (uint32_t i = 0; i < 3; ++i) link.deliver(make_seq_seg(i));
  EXPECT_EQ(link.queued_bytes(), 3000u);
  loop.run_until(1500 * kMicrosecond);
  EXPECT_EQ(link.queued_bytes(), 2000u);
  loop.run_until(3500 * kMicrosecond);
  // All three are propagating; none is queued any more.
  EXPECT_EQ(link.queued_bytes(), 0u);
  EXPECT_TRUE(sink.arrivals.empty());
  // A new segment queues behind nothing: the transmitter is idle.
  link.deliver(make_seq_seg(3));
  EXPECT_EQ(link.queued_bytes(), 1000u);
  loop.run();
  EXPECT_EQ(link.queued_bytes(), 0u);
  ASSERT_EQ(sink.arrivals.size(), 4u);
  EXPECT_EQ(sink.arrivals[3],
            std::make_pair(4500 * kMicrosecond + 10 * kMillisecond,
                           uint32_t{3}));
}

// --- Host --------------------------------------------------------------------

struct RecordingHandler : SegmentHandler {
  std::vector<TcpSegment> got;
  void on_segment(const TcpSegment& seg) override { got.push_back(seg); }
};

struct RecordingListener : ListenHandler {
  std::vector<TcpSegment> syns;
  void on_syn(const TcpSegment& seg) override { syns.push_back(seg); }
};

TEST(Host, DemuxesByFourTupleThenListener) {
  EventLoop loop;
  Host host(loop, "h");
  RecordingHandler conn;
  RecordingListener listener;
  const Endpoint local{IpAddr(10, 0, 0, 1), 80};
  const Endpoint remote{IpAddr(10, 0, 0, 9), 1234};
  host.bind(local, remote, &conn);
  host.listen(80, &listener);

  TcpSegment for_conn = make_seg(1);
  for_conn.tuple = {remote, local};
  host.deliver(for_conn);

  TcpSegment new_syn = make_seg(0);
  new_syn.syn = true;
  new_syn.tuple = {{IpAddr(10, 0, 0, 7), 555}, local};
  host.deliver(new_syn);

  loop.run();
  EXPECT_EQ(conn.got.size(), 1u);
  EXPECT_EQ(listener.syns.size(), 1u);
}

TEST(Host, SendRoutesBySourceAddressAndHonoursDown) {
  EventLoop loop;
  Host host(loop, "h");
  NullSink a, b;
  host.add_interface(IpAddr(10, 0, 0, 1), &a);
  host.add_interface(IpAddr(10, 0, 1, 1), &b);

  TcpSegment via_b = make_seg(0);
  via_b.tuple.src = {IpAddr(10, 0, 1, 1), 1};
  host.send(via_b);
  EXPECT_EQ(b.dropped(), 1u);
  EXPECT_EQ(a.dropped(), 0u);

  host.set_interface_up(IpAddr(10, 0, 1, 1), false);
  host.send(via_b);
  EXPECT_EQ(b.dropped(), 1u);  // not delivered
  EXPECT_EQ(host.send_drops(), 1u);
}

TEST(Host, CpuModelSerializesProcessing) {
  EventLoop loop;
  Host host(loop, "h");
  Host::CpuConfig cpu;
  cpu.per_segment = 10 * kMicrosecond;
  host.set_cpu(cpu);

  RecordingHandler conn;
  std::vector<SimTime> times;
  struct TimedHandler : SegmentHandler {
    EventLoop* loop;
    std::vector<SimTime>* times;
    void on_segment(const TcpSegment&) override {
      times->push_back(loop->now());
    }
  } timed;
  timed.loop = &loop;
  timed.times = &times;
  const Endpoint local{IpAddr(10, 0, 0, 1), 80};
  const Endpoint remote{IpAddr(10, 0, 0, 9), 1234};
  host.bind(local, remote, &timed);

  for (int i = 0; i < 3; ++i) {
    TcpSegment seg = make_seg(0);
    seg.tuple = {remote, local};
    host.deliver(seg);
  }
  loop.run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], 10 * kMicrosecond);
  EXPECT_EQ(times[1], 20 * kMicrosecond);
  EXPECT_EQ(times[2], 30 * kMicrosecond);
}

// --- Trace utilities -----------------------------------------------------------

TEST(Trace, DistributionStatistics) {
  Distribution d;
  for (int i = 1; i <= 100; ++i) d.add(i);
  EXPECT_DOUBLE_EQ(d.mean(), 50.5);
  EXPECT_EQ(d.min(), 1);
  EXPECT_EQ(d.max(), 100);
  EXPECT_NEAR(d.percentile(0.5), 51, 1);
  const auto h = d.histogram(0, 100, 10);
  double total = 0;
  for (double f : h) total += f;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Trace, TimeSeriesMeanAfterSkipsWarmup) {
  TimeSeries ts;
  ts.record(0, 100);
  ts.record(10, 1);
  ts.record(20, 3);
  EXPECT_DOUBLE_EQ(ts.mean_after(5), 2.0);
}

TEST(Trace, PeriodicSamplerTicksAtPeriod) {
  EventLoop loop;
  std::vector<SimTime> ticks;
  PeriodicSampler sampler(loop, 10, [&](SimTime t) { ticks.push_back(t); });
  loop.run_until(35);
  sampler.stop();
  EXPECT_EQ(ticks, (std::vector<SimTime>{10, 20, 30}));
}

}  // namespace
}  // namespace mptcp
