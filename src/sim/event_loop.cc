#include "sim/event_loop.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "net/payload.h"

namespace mptcp {

EventLoop::EventLoop() {
  // Each simulation starts with a cold payload pool and fresh pool stats,
  // so identical runs in one process export identical stats (determinism
  // tests compare stats JSON across in-process runs).
  Payload::pool_reset();
}

void EventLoop::publish_stats(StatsOut& out) const {
  if (!out.open_shared("sim")) return;
  out.emit("events_scheduled", static_cast<double>(ev_scheduled_));
  out.emit("events_cancelled", static_cast<double>(ev_cancelled_));
  out.emit("events_fired", static_cast<double>(ev_fired_));
  out.emit("timer_gc_sweeps", static_cast<double>(gc_sweeps_));
  out.emit("events_live", static_cast<double>(live_));
  out.emit("now_ns", static_cast<double>(now_));
}

void EventLoop::pending_insert(const WheelEntry& e) {
  // An entry filed here may carry a seq older than staged ones (a
  // reserved seq, or a re-armed event re-filed at its due), so the search
  // compares (t, seq) in full. It always sorts after the entry now
  // firing, so the fired prefix is never disturbed.
  auto it = std::upper_bound(
      pending_.begin() + static_cast<ptrdiff_t>(pending_idx_), pending_.end(),
      e, earlier);
  pending_.insert(it, e);
  ++entries_;
}

void EventLoop::drain_slot(uint64_t idx) {
  std::vector<WheelEntry>& slot = wheel_[0][idx];
  occupancy_[0] &= ~(1ull << idx);
  // Order the tick's entries via 16-byte (key, position) pairs instead of
  // sorting the 24-byte entries with a two-field comparator: every entry
  // here shares the deadline's high bits (same tick), so the sub-tick
  // offset concatenated with the schedule seq is a complete (t, seq) key
  // in one u64. seq would need ~2^54 schedules to overflow its field.
  sort_scratch_.clear();
  size_t kept = 0;
  for (const WheelEntry& e : slot) {
    if (entry_live(e)) {
      const uint64_t off = static_cast<uint64_t>(e.t) & ((1u << kTickShift) - 1);
      sort_scratch_.push_back(
          SortKey{off << (64 - kTickShift) | e.seq, static_cast<uint32_t>(kept)});
      slot[kept++] = e;
    }
  }
  entries_ -= slot.size() - kept;  // dead entries evaporate here
  slot.resize(kept);
  std::sort(sort_scratch_.begin(), sort_scratch_.end(),
            [](const SortKey& a, const SortKey& b) { return a.key < b.key; });
  pending_.resize(kept);
  for (size_t i = 0; i < kept; ++i) pending_[i] = slot[sort_scratch_[i].pos];
  slot.clear();
}

void EventLoop::cascade() {
  // cur_tick_ just rolled into a fresh level-0 rotation. Re-file the
  // parent slot of every level whose digit changed, highest level first,
  // so a level-3 entry can land in the level-2 slot drained right after
  // it, and so on down to level 0 (or pending_, if due this very tick).
  if ((cur_tick_ & (kHorizonTicks - 1)) == 0) migrate_overflow();
  for (int level = kLevels - 1; level >= 1; --level) {
    // The digit at `level` changed iff every digit below it wrapped to 0.
    if ((cur_tick_ & ((1ull << (level * kLevelBits)) - 1)) != 0) continue;
    const uint64_t idx = (cur_tick_ >> (level * kLevelBits)) & kSlotMask;
    std::vector<WheelEntry>& slot = wheel_[level][idx];
    if (slot.empty()) continue;
    occupancy_[level] &= ~(1ull << idx);
    // Swap out so place() can push into sibling slots without aliasing.
    std::vector<WheelEntry> moved;
    moved.swap(slot);
    for (const WheelEntry& e : moved) {
      --entries_;
      if (entry_live(e)) place(at_due(e));
    }
    if (moved.capacity() <= kMaxSpareCapacity &&
        spare_slots_.size() < kMaxSpareSlots) {
      moved.clear();
      spare_slots_.push_back(std::move(moved));
    }
  }
}

void EventLoop::migrate_overflow() {
  if (overflow_.empty()) return;
  std::vector<WheelEntry> moved;
  moved.swap(overflow_);
  for (const WheelEntry& e : moved) {
    --entries_;
    // Re-spills if still beyond the horizon.
    if (entry_live(e)) place(at_due(e));
  }
}

void EventLoop::advance_to(const uint64_t limit_tick) {
  while (pending_idx_ >= pending_.size()) {
    pending_.clear();
    pending_idx_ = 0;
    if (cur_tick_ >= limit_tick) return;
    if (live_ == 0) {
      // Nothing will ever fire; drop stale storage and jump to the limit.
      if (entries_ != 0) drop_all_dead();
      cur_tick_ = limit_tick;
      return;
    }
    const uint64_t idx0 = cur_tick_ & kSlotMask;
    const uint64_t ahead =
        idx0 == kSlotMask ? 0 : occupancy_[0] & (~0ull << (idx0 + 1));
    if (ahead != 0) {
      const auto nidx = static_cast<uint64_t>(std::countr_zero(ahead));
      const uint64_t ntick = (cur_tick_ & ~kSlotMask) | nidx;
      if (ntick > limit_tick) {
        cur_tick_ = limit_tick;
        return;
      }
      cur_tick_ = ntick;
      drain_slot(nidx);  // may drain only dead entries; loop again
      continue;
    }
    // Level 0 is exhausted for this rotation: roll into the next one and
    // cascade whichever parent digits changed.
    const uint64_t rot_end = cur_tick_ | kSlotMask;
    if (rot_end >= limit_tick) {
      cur_tick_ = limit_tick;
      return;
    }
    cur_tick_ = rot_end + 1;
    cascade();
  }
}

void EventLoop::drop_all_dead() {
  for (auto& level : wheel_) {
    for (std::vector<WheelEntry>& slot : level) slot.clear();
  }
  for (uint64_t& occ : occupancy_) occ = 0;
  overflow_.clear();
  pending_.clear();
  pending_idx_ = 0;
  entries_ = 0;
}

void EventLoop::gc_sweep() {
  ++gc_sweeps_;
  for (int level = 0; level < kLevels; ++level) {
    uint64_t occ = occupancy_[level];
    while (occ != 0) {
      const int idx = std::countr_zero(occ);
      occ &= occ - 1;
      std::vector<WheelEntry>& slot = wheel_[level][idx];
      size_t kept = 0;
      for (const WheelEntry& e : slot) {
        if (entry_live(e)) slot[kept++] = e;
      }
      entries_ -= slot.size() - kept;
      slot.resize(kept);
      if (kept == 0) occupancy_[level] &= ~(1ull << idx);
    }
  }
  size_t kept = 0;
  for (const WheelEntry& e : overflow_) {
    if (entry_live(e)) overflow_[kept++] = e;
  }
  entries_ -= overflow_.size() - kept;
  overflow_.resize(kept);
  size_t w = pending_idx_;
  for (size_t r = pending_idx_; r < pending_.size(); ++r) {
    if (entry_live(pending_[r])) pending_[w++] = pending_[r];
  }
  entries_ -= pending_.size() - w;
  pending_.resize(w);
}

SimTime EventLoop::next_event_time() const {
  if (live_ == 0) return kSimTimeNever;
  SimTime best = kSimTimeNever;
  // A live entry's time is at most its event's due (a later re-arm leaves
  // the entry where it was), so an entry at or after `best` cannot lower
  // it. Slots are unsorted internally, so every entry of an occupied slot
  // is looked at.
  auto consider = [&](const WheelEntry& e) {
    if (e.t < best && entry_live(e)) {
      best = std::min(best, slots_[e.slot].due_t);
    }
  };
  // The unfired region of pending_ is sorted by (t, seq).
  for (size_t i = pending_idx_; i < pending_.size() && pending_[i].t < best;
       ++i) {
    consider(pending_[i]);
  }
  for (int level = 0; level < kLevels; ++level) {
    uint64_t occ = occupancy_[level];
    while (occ != 0) {
      const auto idx = static_cast<uint64_t>(std::countr_zero(occ));
      occ &= occ - 1;
      for (const WheelEntry& e : wheel_[level][idx]) consider(e);
    }
  }
  for (const WheelEntry& e : overflow_) consider(e);
  return best;
}

inline bool EventLoop::claim(const WheelEntry& e) {
  --entries_;
  if (!entry_live(e)) return false;  // cancelled after staging
  if (slots_[e.slot].due_seq != e.seq) {
    place(at_due(e));  // re-armed later since it was filed
    return false;
  }
  return true;
}

inline void EventLoop::fire(const WheelEntry& e) {
  Slot& sl = slots_[e.slot];
  Callback cb = std::move(sl.cb);
  retire_slot(sl, e.slot);
  --live_;
  ++ev_fired_;
  now_ = e.t;
  cb();
}

bool EventLoop::run_one() {
  for (;;) {
    if (pending_idx_ >= pending_.size()) {
      if (live_ == 0) return false;
      advance_to(~0ull);  // guaranteed to stage something: live_ > 0
    }
    const WheelEntry e = pending_[pending_idx_++];
    if (!claim(e)) continue;
    fire(e);
    return true;
  }
}

void EventLoop::run_until(SimTime t) {
  const uint64_t limit_tick = tick_of(t);
  for (;;) {
    if (pending_idx_ >= pending_.size()) {
      advance_to(limit_tick);
      if (pending_idx_ >= pending_.size()) break;  // nothing left <= t
    }
    const WheelEntry e = pending_[pending_idx_];
    if (e.t > t) break;  // due this tick but after the limit instant
    ++pending_idx_;
    if (claim(e)) fire(e);
  }
  if (now_ < t) now_ = t;
}

void EventLoop::run() {
  while (run_one()) {
  }
}

}  // namespace mptcp
