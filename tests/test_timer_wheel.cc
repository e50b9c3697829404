// Edge cases of the hierarchical timing wheel behind EventLoop: level
// cascades for far-future deadlines, slot reuse across cancel/re-arm
// churn, zero-delay events, a randomized equivalence sweep against a
// sorted reference model, and the epoch-bounded advance the sharded
// engine's cross-shard lookahead relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "net/rng.h"
#include "sim/event_loop.h"

namespace mptcp {
namespace {

// The wheel's geometry (sim/event_loop.h): 1024 ns ticks, 4 levels of 64
// slots, so level boundaries sit at 2^16, 2^22, 2^28 and 2^34 ns and
// anything past ~17.2 s lands in the overflow list. The tests below pick
// deadlines on both sides of each boundary; they only rely on public
// semantics (exact fire times and order), so they stay valid even if the
// geometry changes -- they just stop being boundary cases.
constexpr SimTime kTick = 1024;
constexpr SimTime kLevel1 = kTick * 64;          // past level 0's horizon
constexpr SimTime kLevel2 = kTick * 64 * 64;     // past level 1's
constexpr SimTime kLevel3 = kTick * 64 * 64 * 64;
constexpr SimTime kOverflow = kTick * (1ll << 24);  // past the whole wheel

TEST(TimerLayout, TimerStaysWithin48Bytes) {
  // A two-subflow MPTCP endpoint holds 13 timers (four per TCP subflow,
  // one fallback check per subflow, three in the meta connection), and
  // each stores its callback inline: a callable of at most two pointers
  // and the function pointer that calls it. Measured with GCC 12 on
  // x86-64: 96 B when the callback was a SmallFn, 48 B after.
  EXPECT_LE(sizeof(Timer), 48u);
}

TEST(TimerWheel, FarFutureDeadlinesCascadeAcrossLevels) {
  EventLoop loop;
  std::vector<std::pair<int, SimTime>> fired;
  const SimTime deadlines[] = {
      kTick / 2,          // same-tick (pending list)
      kTick * 3,          // level 0
      kLevel1 + 17,       // level 1, mid-tick offset
      kLevel2 + kTick,    // level 2
      kLevel3 + 5 * kTick,  // level 3
      kOverflow + 123,    // overflow list, re-filed at horizon rollover
      2 * kOverflow + 9,  // survives two overflow migrations
  };
  int idx = 0;
  for (const SimTime t : deadlines) {
    loop.schedule_at(t, [&fired, &loop, idx] {
      fired.emplace_back(idx, loop.now());
    });
    ++idx;
  }
  loop.run();
  ASSERT_EQ(fired.size(), std::size(deadlines));
  for (size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i].first, static_cast<int>(i));
    EXPECT_EQ(fired[i].second, deadlines[i]) << "deadline " << i;
  }
}

TEST(TimerWheel, CascadedEntriesInterleaveWithNearOnes) {
  // An entry parked in a high level must, after cascading down, fire in
  // correct order relative to entries scheduled near its deadline later.
  EventLoop loop;
  std::vector<int> order;
  loop.schedule_at(kLevel2 + 10 * kTick, [&] { order.push_back(2); });
  loop.schedule_at(kTick, [&, t = kLevel2 + 9 * kTick] {
    // Scheduled after the far entry but due just before it.
    loop.schedule_at(t, [&] { order.push_back(1); });
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(TimerWheel, CancelThenRearmReusesSlotWithoutGrowth) {
  EventLoop loop;
  // Churn one timer through later deadlines (written into its slot, the
  // wheel entry left in place) and earlier ones (the entry stranded and
  // a new one filed), in one wheel slot and across distinct slots; the
  // storage must stay bounded and only the final deadline may fire.
  int fires = 0;
  Timer t(loop, [&] { ++fires; });
  for (int i = 0; i < 100'000; ++i) {
    // One destination tick: six later re-arms, then an earlier one
    // whose new entry recycles the stranded tail.
    t.arm_at(kLevel1 + (i % 7));
  }
  for (int i = 0; i < 100'000; ++i) {
    // Rotating destination slots (multiples of kLevel1 land in distinct
    // level-1 slots): later re-arms in place, and every 32nd an earlier
    // one that retires and re-files, with tail recycling on revisit.
    t.arm_at(kLevel1 * (1 + i % 32));
  }
  EXPECT_LT(loop.heap_size(), 4096u) << "dead entries must be recycled";
  loop.run();
  EXPECT_EQ(fires, 1);
}

TEST(TimerWheel, LaterRearmsLeaveOneEntryPerLiveEvent) {
  // A re-arm to a later deadline moves the event's due in its slot and
  // leaves the wheel entry where it is, so nothing is stranded: after
  // every re-arm the wheel holds exactly one entry per live event, across
  // levels and while time passes the deadlines the timers held before.
  EventLoop loop;
  int fires[3] = {};
  Timer a(loop, [&fires] { ++fires[0]; });
  Timer b(loop, [&fires] { ++fires[1]; });
  Timer c(loop, [&fires] { ++fires[2]; });
  int plain = 0;
  loop.schedule_at(kLevel3, [&plain] { ++plain; });
  SimTime deadline = kTick;
  for (int i = 0; i < 300; ++i) {
    deadline += kLevel1 / 3 + static_cast<SimTime>(i % 5) * kTick;
    a.arm_at(deadline);
    b.arm_at(deadline + kLevel2);
    c.arm_at(deadline + kOverflow);
    ASSERT_EQ(loop.pending_count(), 4u);
    ASSERT_EQ(loop.heap_size(), loop.pending_count()) << "re-arm " << i;
    if (i % 10 == 9) loop.run_until(deadline - kLevel1);
  }
  EXPECT_EQ(fires[0] + fires[1] + fires[2], 0);
  loop.run();
  EXPECT_EQ(fires[0], 1);
  EXPECT_EQ(fires[1], 1);
  EXPECT_EQ(fires[2], 1);
  EXPECT_EQ(plain, 1);
  EXPECT_EQ(loop.now(), deadline + kOverflow);
  EXPECT_EQ(loop.heap_size(), 0u);
}

TEST(TimerWheel, StaleIdFromBeforeRearmIsInert) {
  EventLoop loop;
  int a = 0, b = 0;
  const EventLoop::EventId first = loop.schedule_at(kTick, [&] { ++a; });
  // Re-arming may recycle `first`'s slot for the replacement...
  const EventLoop::EventId second = loop.reschedule_at(first, kLevel1);
  ASSERT_NE(second, 0u);
  loop.schedule_at(2 * kLevel1, [&] { ++b; });
  // ...so the superseded id must neither cancel the replacement nor the
  // unrelated event that may now occupy the slot.
  if (second != first) loop.cancel(first);
  loop.run();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

TEST(TimerWheel, ZeroDelayTimers) {
  EventLoop loop;
  std::vector<int> order;
  // Zero-delay from outside run(): fires at t=0 in schedule order.
  loop.schedule_in(0, [&] { order.push_back(0); });
  loop.schedule_in(0, [&] {
    order.push_back(1);
    // Zero-delay from inside a callback: due this very tick, must fire
    // after the already-staged same-time events, without time moving.
    loop.schedule_in(0, [&] {
      order.push_back(3);
      EXPECT_EQ(loop.now(), 0);
    });
  });
  loop.schedule_in(0, [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));

  // A zero-delay chain makes progress (no livelock) at nonzero now too.
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 100) loop.schedule_in(0, hop);
  };
  loop.schedule_at(kLevel2 + 1, hop);
  loop.run();
  EXPECT_EQ(hops, 100);
  EXPECT_EQ(loop.now(), kLevel2 + 1);
}

// Randomized equivalence: the wheel must fire exactly what a sorted
// reference model fires, in (time, schedule-order) sequence, under a mix
// of arm / cancel / re-arm operations spread across every wheel level and
// interleaved with partial runs.
TEST(TimerWheel, RandomizedSweepMatchesReferenceModel) {
  struct RefEntry {
    SimTime t;
    uint64_t order;     // global schedule order (ties fire in this order)
    int handle;         // test-side identity
    EventLoop::EventId id;
  };
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    EventLoop loop;
    Rng rng(seed);
    std::vector<RefEntry> live;
    std::vector<int> fired_actual;
    std::vector<int> fired_expected;
    uint64_t order_counter = 0;
    int next_handle = 0;
    SimTime now = 0;

    // Horizons chosen to hit pending inserts, all four levels and the
    // overflow list with roughly equal probability.
    const SimTime spans[] = {kTick,   kLevel1,  kLevel2,
                             kLevel3, kOverflow, 3 * kOverflow};

    for (int round = 0; round < 8; ++round) {
      for (int op = 0; op < 400; ++op) {
        const uint32_t what = rng.next_u32() % 10;
        if (what < 6 || live.empty()) {  // schedule
          const SimTime span = spans[rng.next_u32() % std::size(spans)];
          const SimTime t = now + static_cast<SimTime>(
                                      rng.next_below(
                                          static_cast<uint64_t>(span)));
          const int handle = next_handle++;
          const EventLoop::EventId id = loop.schedule_at(
              t, [&fired_actual, handle] { fired_actual.push_back(handle); });
          ASSERT_NE(id, 0u);
          live.push_back(RefEntry{std::max(t, now), order_counter++, handle, id});
        } else if (what < 8) {  // cancel a live entry
          const size_t victim = rng.next_u32() % live.size();
          loop.cancel(live[victim].id);
          live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
        } else {  // re-arm a live entry (cancel+schedule semantics)
          const size_t victim = rng.next_u32() % live.size();
          const SimTime span = spans[rng.next_u32() % std::size(spans)];
          const SimTime t = now + static_cast<SimTime>(
                                      rng.next_below(
                                          static_cast<uint64_t>(span)));
          const EventLoop::EventId nid =
              loop.reschedule_at(live[victim].id, t);
          ASSERT_NE(nid, 0u);
          live[victim].id = nid;
          live[victim].t = std::max(t, now);
          live[victim].order = order_counter++;
        }
      }

      // Advance one uneven stride; the model fires everything due by then
      // in (t, order) sequence.
      now += kLevel2 / 3 + static_cast<SimTime>(round) * kLevel1 +
             static_cast<SimTime>(rng.next_u32() % kTick);
      loop.run_until(now);
      std::vector<RefEntry> due;
      for (const RefEntry& e : live) {
        if (e.t <= now) due.push_back(e);
      }
      std::erase_if(live, [now](const RefEntry& e) { return e.t <= now; });
      std::sort(due.begin(), due.end(), [](const RefEntry& a,
                                           const RefEntry& b) {
        return a.t != b.t ? a.t < b.t : a.order < b.order;
      });
      for (const RefEntry& e : due) fired_expected.push_back(e.handle);
      ASSERT_EQ(fired_actual, fired_expected) << "seed " << seed
                                              << " round " << round;
    }

    // Drain the rest; the tail must match too.
    loop.run();
    std::sort(live.begin(), live.end(), [](const RefEntry& a,
                                           const RefEntry& b) {
      return a.t != b.t ? a.t < b.t : a.order < b.order;
    });
    for (const RefEntry& e : live) fired_expected.push_back(e.handle);
    EXPECT_EQ(fired_actual, fired_expected) << "seed " << seed << " drain";
  }
}

TEST(TimerWheel, CascadesAmidCancellationsKeepTimeSeqOrder) {
  // Entries filed at levels 1-3 cascade down while entries around them
  // are cancelled, up front and from callbacks that run between
  // cascades; those callbacks also file new entries into the slots just
  // cascaded out of. Survivors fire in (t, seq) order.
  EventLoop loop;
  struct Ev {
    SimTime t;
    uint64_t seq;
    EventLoop::EventId id = 0;
    bool cancelled = false;
  };
  std::vector<Ev> evs;
  evs.reserve(4096);
  std::vector<size_t> fired;
  uint64_t seq = 0;
  auto add = [&](SimTime t) {
    const size_t h = evs.size();
    evs.push_back(Ev{std::max(t, loop.now()), seq++});
    evs.back().id = loop.schedule_at(t, [&fired, h] { fired.push_back(h); });
  };
  // Clusters of equal deadlines (seq breaks the ties) over a few ticks
  // and a few parent slots of each level.
  auto add_cluster = [&](SimTime base, SimTime level) {
    for (int i = 0; i < 60; ++i) {
      add(base + level * (1 + i % 3) + (i % 5) * kTick + (i % 2) * 300);
    }
  };
  const SimTime levels[] = {kLevel1, kLevel2, kLevel3};
  for (const SimTime level : levels) add_cluster(0, level);
  for (size_t i = 0; i < evs.size(); i += 3) {
    loop.cancel(evs[i].id);
    evs[i].cancelled = true;
  }
  for (int round = 0; round < 4; ++round) {
    for (const SimTime level : levels) {
      const SimTime at = round * 4 * kLevel3 + level - 5 * kTick;
      loop.schedule_at(at, [&, level] {
        const SimTime now = loop.now();
        for (size_t i = 1; i < evs.size(); i += 3) {
          if (!evs[i].cancelled && evs[i].t > now + kTick) {
            loop.cancel(evs[i].id);
            evs[i].cancelled = true;
          }
        }
        add_cluster(now, level);
      });
    }
  }
  loop.run();
  std::vector<size_t> expected;
  for (size_t i = 0; i < evs.size(); ++i) {
    if (!evs[i].cancelled) expected.push_back(i);
  }
  std::sort(expected.begin(), expected.end(), [&](size_t a, size_t b) {
    return evs[a].t != evs[b].t ? evs[a].t < evs[b].t
                                : evs[a].seq < evs[b].seq;
  });
  EXPECT_GT(expected.size(), 300u);
  EXPECT_EQ(fired, expected);
}

// The sharded engine's conservative lockstep runs each shard's loop only
// to the epoch boundary (the cross-shard lookahead) and injects remote
// arrivals afterwards. That is sound only if run_until(t) never advances
// the wheel past t: an arrival scheduled after the call, due before any
// pre-existing local event, must still fire -- even when the wheel had
// already staged or skipped ahead within its current rotation.
TEST(TimerWheel, EpochBoundedAdvanceAcceptsLaterInjection) {
  EventLoop loop;
  std::vector<std::pair<int, SimTime>> fired;
  // A far local event several levels up: gives advance_to() every reason
  // to race ahead if it ignored the limit.
  loop.schedule_at(kLevel3 + 3 * kTick, [&] {
    fired.emplace_back(99, loop.now());
  });

  // Epoch 1: run to a boundary mid-way through level 2 territory.
  const SimTime epoch1 = kLevel2 + kLevel1;
  loop.run_until(epoch1);
  EXPECT_EQ(loop.now(), epoch1);
  EXPECT_TRUE(fired.empty());

  // Barrier: a "remote" segment arrives, due within the next epoch and
  // long before the local far event (this is exactly what
  // ShardChannel::drain does).
  const SimTime arrival = epoch1 + kLevel1 + 7;
  loop.schedule_at(arrival, [&] { fired.emplace_back(1, loop.now()); });

  // Epoch 2 covers the arrival but not the far event.
  const SimTime epoch2 = epoch1 + kLevel2;
  loop.run_until(epoch2);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].first, 1);
  EXPECT_EQ(fired[0].second, arrival);

  loop.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[1].first, 99);
  EXPECT_EQ(fired[1].second, kLevel3 + 3 * kTick);
}

}  // namespace
}  // namespace mptcp
