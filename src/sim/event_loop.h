// Discrete-event simulation core.
//
// Single-threaded, deterministic: events at equal times fire in schedule
// order. Time is a 64-bit count of nanoseconds, which gives ~292 years of
// range -- enough for any experiment while keeping arithmetic exact.
//
// The scheduler is built for the hot path. A slot table holds callbacks
// and is recycled through a free list (steady-state scheduling allocates
// nothing once the high-water mark is reached), and deadlines live in a
// hierarchical timing wheel: 4 levels of 64 slots over a 1024 ns tick,
// covering ~17 s of lookahead with an overflow list beyond that. Arming,
// re-arming and cancelling are all O(1) -- an entry is dropped into the
// slot indexed by the most-significant differing base-64 digit of its
// deadline tick, and cancellation lazily bumps the slot's generation
// counter so the stale entry is discarded when its slot drains. Advancing
// time scans per-level occupancy bitmaps and cascades a parent slot into
// its children only when the corresponding digit rolls over, so empty
// stretches of virtual time cost one bit-scan per 64 ticks. A cascade
// empties its slot's vector; a bounded few of those are kept for slots
// that need storage again, so refiling does not reallocate from nothing
// (see DESIGN.md, "Allocation budget", for why the bound is small).
//
// Every event's slot records its due (time, schedule-seq); the wheel
// holds one entry per live event. Re-arming to a later deadline (an RTO
// pushed back by each ACK) only writes the new due and a fresh seq into
// the slot: the entry stays where it is, and when it comes up to fire,
// run_one()/run_until() see that its seq is not the slot's and re-file it
// at the due instead (a cascade re-files it at the due too). Re-arming to
// an earlier deadline strands the entry (generation bump) and files a new
// one, since the old one would be found too late.
//
// reserve_seq() hands out a schedule-seq now for an event filed later by
// schedule_at_seq(): a link keeps only its first arrival pending, and a
// segment that departs behind it reserves a seq, so that its arrival is
// filed when the one ahead arrives, at the (time, seq) a per-segment
// event scheduled at departure would have had. So events_live counts
// live work (one arrival per link with segments in flight), and
// events_scheduled counts events filed, not seqs reserved; a re-arm
// counts as one cancel plus one schedule.
//
// Sub-tick ordering: all entries that share the current tick are staged
// into a pending vector and sorted by (time, schedule-seq), which makes
// the fire order bit-identical to a comparison-based priority queue --
// the determinism digests do not distinguish the two implementations.
// Cancels and earlier re-arms leave stale entries behind; when they
// dominate the wheel, an occupancy-guided sweep drops them so memory
// stays proportional to the number of *live* events.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <new>
#include <type_traits>
#include <vector>

#include "net/stats.h"
#include "sim/small_fn.h"

namespace mptcp {

using SimTime = int64_t;  // nanoseconds

/// Sentinel deadline meaning "no event pending" (next_event_time()).
inline constexpr SimTime kSimTimeNever = std::numeric_limits<SimTime>::max();

inline constexpr SimTime kNanosecond = 1;
inline constexpr SimTime kMicrosecond = 1'000;
inline constexpr SimTime kMillisecond = 1'000'000;
inline constexpr SimTime kSecond = 1'000'000'000;

/// Converts a SimTime duration to floating-point seconds.
inline double to_seconds(SimTime t) {
  return static_cast<double>(t) / kSecond;
}

class EventLoop {
 public:
  EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  using Callback = SmallFn;
  /// Packed handle: high 32 bits are the slot's generation at schedule
  /// time, low 32 bits the slot index. Generation 0 never occurs, so a
  /// default-constructed id (0) is always invalid.
  using EventId = uint64_t;

  SimTime now() const { return now_; }

  /// Schedules a callback at absolute time `t` (clamped to now()).
  /// Templated on the callable so a lambda is constructed directly into
  /// the slot table -- no intermediate Callback object, no buffer move.
  template <typename F>
  EventId schedule_at(SimTime t, F&& cb) {
    return schedule_at_seq(t, next_seq_++, std::forward<F>(cb));
  }

  /// Schedules a callback `dt` from now.
  template <typename F>
  EventId schedule_in(SimTime dt, F&& cb) {
    return schedule_at(now_ + dt, std::forward<F>(cb));
  }

  /// Takes the next schedule-seq without filing an event: an event filed
  /// later with schedule_at_seq() and this seq fires exactly where one
  /// scheduled now would have.
  uint64_t reserve_seq() { return next_seq_++; }

  /// Schedules at `t` (clamped to now()) with a seq from reserve_seq().
  /// (t, seq) must sort after the event now firing, as it does when `t`
  /// is a deadline that was at least now() when the seq was reserved.
  template <typename F>
  EventId schedule_at_seq(SimTime t, uint64_t seq, F&& cb) {
    if (t < now_) t = now_;
    const uint32_t s = alloc_slot();
    Slot& sl = slots_[s];
    sl.cb = std::forward<F>(cb);
    sl.due_t = t;
    sl.due_seq = seq;
    place(WheelEntry{t, seq, s, sl.gen});
    ++live_;
    ++ev_scheduled_;
    return (static_cast<EventId>(sl.gen) << 32) | s;
  }

  /// Moves a pending event to a new deadline (clamped to now()) without
  /// touching its callback: the O(1) re-arm path for RTO-style timers.
  /// Counts as one cancellation plus one (re)schedule, and fires where a
  /// fresh schedule at `t` would. A deadline at or after the current one
  /// is written into the event's slot and keeps the id; an earlier one
  /// invalidates `id` and returns the new id. Returns 0 if `id` is stale
  /// or already fired, in which case the caller must schedule afresh.
  EventId reschedule_at(EventId id, SimTime t) {
    const uint32_t s = static_cast<uint32_t>(id);
    const uint32_t gen = static_cast<uint32_t>(id >> 32);
    if (gen == 0 || s >= slots_.size() || slots_[s].gen != gen) return 0;
    if (t < now_) t = now_;
    ++ev_cancelled_;
    ++ev_scheduled_;
    Slot& sl = slots_[s];
    const bool later = t >= sl.due_t;
    sl.due_t = t;
    sl.due_seq = next_seq_++;
    if (later) return id;  // the entry is re-filed when it comes due
    if (++sl.gen == 0) sl.gen = 1;  // strands the old entry, O(1)
    place(WheelEntry{t, sl.due_seq, s, sl.gen});
    maybe_gc();
    return (static_cast<EventId>(sl.gen) << 32) | s;
  }

  /// Cancels a pending event in O(1). Cancelling an already-fired or
  /// unknown id is a harmless no-op. The callback (and anything it
  /// captured) is destroyed immediately; only the 24-byte wheel entry
  /// lingers until its slot drains or a sweep drops it.
  void cancel(EventId id) {
    const uint32_t s = static_cast<uint32_t>(id);
    const uint32_t gen = static_cast<uint32_t>(id >> 32);
    if (gen == 0 || s >= slots_.size() || slots_[s].gen != gen) return;
    free_slot(s);
    --live_;
    ++ev_cancelled_;
    maybe_gc();
  }

  bool has_pending() const { return live_ != 0; }
  /// Deadline of the earliest live event, or kSimTimeNever when none are
  /// pending. O(stored entries) -- a walk over the wheel, not a pop --
  /// intended for between-epoch introspection (the sharded engine's
  /// lookahead fast-forward), not per-event hot paths.
  SimTime next_event_time() const;
  /// Number of live (scheduled, not cancelled, not fired) events.
  size_t pending_count() const { return live_; }
  /// Wheel entries currently held, including lazily-cancelled ones: one
  /// per live event plus what cancels and earlier re-arms stranded, kept
  /// within a constant factor of pending_count() by the GC sweep. Exposed
  /// for tests and diagnostics. (The name predates the timing wheel.)
  size_t heap_size() const { return entries_; }

  /// Runs the earliest pending event; returns false if none remain.
  bool run_one();

  /// Runs events until simulated time `t`; leaves now() == t.
  void run_until(SimTime t);

  /// Runs until no events remain.
  void run();

  /// The simulation-wide observability registry. Every component with a
  /// reference to the loop publishes its counters here; hot paths only
  /// bump plain integers, and the registry walks them at export time.
  StatsRegistry& stats() { return stats_; }
  const StatsRegistry& stats() const { return stats_; }
  /// The loop's own counters, under the shared scope "sim" (merged exports
  /// sum them over shards).
  void publish_stats(StatsOut& out) const;

  uint64_t events_scheduled() const { return ev_scheduled_; }
  uint64_t events_cancelled() const { return ev_cancelled_; }
  uint64_t events_fired() const { return ev_fired_; }
  /// Stale-entry GC sweeps run so far. (The name predates the wheel: the
  /// binary-heap ancestor called this compaction.)
  uint64_t heap_compactions() const { return gc_sweeps_; }

 private:
  static constexpr uint32_t kNilSlot = 0xffffffffu;

  // Wheel geometry: 1024 ns ticks, 4 levels x 64 slots. Level L slot
  // widths are 64^L ticks, so the wheel spans 64^4 ticks (~17.2 s) before
  // entries spill to the overflow list.
  static constexpr int kTickShift = 10;
  static constexpr int kLevelBits = 6;
  static constexpr int kLevels = 4;
  static constexpr uint64_t kSlotsPerLevel = 1ull << kLevelBits;
  static constexpr uint64_t kSlotMask = kSlotsPerLevel - 1;
  static constexpr uint64_t kHorizonTicks = 1ull << (kLevels * kLevelBits);

  struct Slot {
    Callback cb;
    SimTime due_t = 0;     ///< when the event fires
    uint64_t due_seq = 0;  ///< its seq; an entry with another is re-filed
    uint32_t gen = 1;             ///< bumped on fire/cancel; 0 is invalid
    uint32_t next_free = kNilSlot;
  };

  struct WheelEntry {
    SimTime t;
    uint64_t seq;  ///< global schedule order; FIFO among equal times
    uint32_t slot;
    uint32_t gen;
  };

  static bool earlier(const WheelEntry& a, const WheelEntry& b) {
    return a.t < b.t || (a.t == b.t && a.seq < b.seq);
  }
  bool entry_live(const WheelEntry& e) const {
    return slots_[e.slot].gen == e.gen;
  }
  /// A live entry moved to its slot's due (a later re-arm left it behind).
  WheelEntry at_due(const WheelEntry& e) const {
    const Slot& sl = slots_[e.slot];
    return WheelEntry{sl.due_t, sl.due_seq, e.slot, e.gen};
  }
  static uint64_t tick_of(SimTime t) {
    return t <= 0 ? 0 : static_cast<uint64_t>(t) >> kTickShift;
  }

  uint32_t alloc_slot() {
    if (free_head_ != kNilSlot) {
      const uint32_t s = free_head_;
      free_head_ = slots_[s].next_free;
      slots_[s].next_free = kNilSlot;
      return s;
    }
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
  }
  void free_slot(uint32_t s) {
    Slot& sl = slots_[s];
    sl.cb = nullptr;  // release captured state now, not at sweep time
    retire_slot(sl, s);
  }
  /// free_slot for a slot whose callback was already moved out.
  void retire_slot(Slot& sl, uint32_t s) {
    if (++sl.gen == 0) sl.gen = 1;  // generation 0 stays invalid forever
    sl.next_free = free_head_;
    free_head_ = s;
  }
  /// Level of the most-significant base-64 digit set in `diff`, which
  /// must be in [1, kHorizonTicks). A compare ladder rather than
  /// bit_width: the branches predict (timers re-arm at like horizons)
  /// and speculation hides them, where lzcnt would sit on the data
  /// dependency chain leading to the slot address.
  static int level_for(uint64_t diff) {
    if (diff < (1ull << kLevelBits)) return 0;
    if (diff < (1ull << (2 * kLevelBits))) return 1;
    if (diff < (1ull << (3 * kLevelBits))) return 2;
    return 3;
  }
  /// Files an entry by the most-significant base-64 digit in which its
  /// deadline tick differs from cur_tick_; entries due this very tick go
  /// straight to pending_.
  void place(const WheelEntry& e) {
    // cur_tick_ tracks tick_of(now_) whenever user code runs, and
    // deadlines are clamped to now(), so diff == 0 is "due this tick".
    const uint64_t et = tick_of(e.t);
    const uint64_t diff = et ^ cur_tick_;
    if (diff == 0) {
      pending_insert(e);
      return;
    }
    if (diff >= kHorizonTicks) {
      overflow_.push_back(e);
      ++entries_;
      return;
    }
    const int level = level_for(diff);
    const uint64_t idx = (et >> (level * kLevelBits)) & kSlotMask;
    std::vector<WheelEntry>& slot = wheel_[level][idx];
    // An earlier re-arm often lands in the slot its stranded predecessor
    // occupies, and cancel-then-schedule churn leaves dead tails too;
    // recycling a dead tail entry in place keeps the slot from growing
    // under such churn (and makes the GC sweep a non-event).
    if (!slot.empty() &&
        (slot.back().slot == e.slot || !entry_live(slot.back()))) {
      // Same slot index means our own just-stranded predecessor: dead by
      // construction, no generation load needed.
      slot.back() = e;
    } else {
      if (slot.capacity() == 0) adopt_spare(slot);
      slot.push_back(e);
      ++entries_;
    }
    occupancy_[level] |= 1ull << idx;
  }
  /// Inserts into the sorted unfired region of pending_.
  void pending_insert(const WheelEntry& e);
  /// Moves the level-0 slot at `idx` into pending_, dropping dead entries
  /// and sorting the survivors by (t, seq).
  void drain_slot(uint64_t idx);
  /// Re-files every entry of a parent slot whose digit just rolled over.
  void cascade();
  /// Gives a slot without storage a vector that a cascade emptied, if one
  /// is spare, so filing into it does not regrow one from nothing.
  void adopt_spare(std::vector<WheelEntry>& slot) {
    if (spare_slots_.empty()) return;
    slot.swap(spare_slots_.back());
    spare_slots_.pop_back();
  }
  /// Re-files overflow entries after crossing a 64^4-tick boundary.
  void migrate_overflow();
  /// Advances cur_tick_ until pending_ holds the next entries to fire or
  /// cur_tick_ reaches limit_tick. Never moves cur_tick_ backwards.
  void advance_to(uint64_t limit_tick);
  /// Clears every (necessarily dead) stored entry when live_ == 0.
  void drop_all_dead();
  /// Settles an entry just taken off pending_: true if it fires now,
  /// false if it was dead or a later re-arm moved its event, in which
  /// case it has been re-filed at its slot's due.
  bool claim(const WheelEntry& e);
  /// Runs a claimed entry's callback at its time.
  void fire(const WheelEntry& e);
  /// Sweeps cancelled entries out of the wheel when they dominate 3:1.
  /// The threshold of 64 avoids churn on tiny loads; the 4x factor
  /// amortizes the occupancy-guided sweep over at least ~n/2
  /// cancellations, keeping re-arm O(1) amortized and memory O(live).
  void maybe_gc() {
    if (entries_ >= 64 && entries_ >= 4 * live_) gc_sweep();
  }
  void gc_sweep();

  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNilSlot;
  size_t live_ = 0;

  // The wheel. occupancy_ bit i mirrors "wheel_[level][i] is non-empty".
  uint64_t cur_tick_ = 0;
  std::vector<WheelEntry> wheel_[kLevels][kSlotsPerLevel];
  uint64_t occupancy_[kLevels] = {};
  std::vector<WheelEntry> overflow_;
  /// Entries due at cur_tick_, sorted by (t, seq); pending_idx_ is the
  /// count of already-fired entries at the front.
  std::vector<WheelEntry> pending_;
  size_t pending_idx_ = 0;
  struct SortKey {
    uint64_t key;  ///< (sub-tick offset << (64 - kTickShift)) | seq
    uint32_t pos;
  };
  std::vector<SortKey> sort_scratch_;  ///< drain_slot working set
  /// Emptied vectors of cascaded slots, for adopt_spare(). Bounded in
  /// count and in the capacity kept: recycling every vector, or keeping
  /// each slot's own, leaves every slot holding the largest buffer it
  /// ever needed.
  static constexpr size_t kMaxSpareSlots = 32;
  static constexpr size_t kMaxSpareCapacity = 128;
  std::vector<std::vector<WheelEntry>> spare_slots_;
  size_t entries_ = 0;  ///< entries stored anywhere, dead ones included

  // Scheduling counters: plain increments on the hot path, exported
  // through stats_hook_.
  uint64_t ev_scheduled_ = 0;
  uint64_t ev_cancelled_ = 0;
  uint64_t ev_fired_ = 0;
  uint64_t gc_sweeps_ = 0;
  StatsRegistry stats_;
  StatsHook stats_hook_{stats_, *this};  ///< after stats_: dies first
};

/// A re-armable one-shot timer bound to an EventLoop.
///
/// The callback is held inline: a trivially copyable callable of at most
/// two pointers (every timer in the simulator captures `this`, or `this`
/// and one pointer), plus the function pointer that calls it. A larger
/// callable does not compile. That makes a Timer 48 bytes, where holding
/// a SmallFn made it 96, and a two-subflow MPTCP endpoint holds 13.
class Timer {
 public:
  template <typename F>
  Timer(EventLoop& loop, F cb)
      : loop_(loop),
        invoke_([](void* f) { (*std::launder(static_cast<F*>(f)))(); }) {
    static_assert(std::is_trivially_copyable_v<F> &&
                      sizeof(F) <= sizeof(fn_) && alignof(F) <= alignof(void*),
                  "a Timer callback is a trivially copyable callable of at "
                  "most two pointers");
    ::new (static_cast<void*>(fn_)) F(cb);
  }
  ~Timer() { cancel(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re-)arms the timer to fire `dt` from now.
  void arm_in(SimTime dt) { arm_at(loop_.now() + dt); }

  void arm_at(SimTime t) {
    if (armed_) {
      // Re-arm keeps the scheduled callback and just moves the deadline;
      // same observable behavior as cancel + schedule, none of the cost.
      const EventLoop::EventId moved = loop_.reschedule_at(id_, t);
      if (moved != 0) {
        id_ = moved;
        return;
      }
      armed_ = false;  // the event raced to fire; fall through and re-arm
    }
    id_ = loop_.schedule_at(t, [this] {
      armed_ = false;
      invoke_(fn_);
    });
    armed_ = true;
  }

  void cancel() {
    if (armed_) {
      loop_.cancel(id_);
      armed_ = false;
    }
  }

  bool armed() const { return armed_; }

 private:
  EventLoop& loop_;
  alignas(void*) unsigned char fn_[2 * sizeof(void*)];
  void (*invoke_)(void*);
  EventLoop::EventId id_ = 0;
  bool armed_ = false;
};

}  // namespace mptcp
