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
