#include "core/dss.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <iterator>

namespace mptcp {

uint16_t dss_checksum_from_partial(uint64_t dsn, uint32_t ssn_rel,
                                   uint16_t length, uint16_t payload_sum) {
  ChecksumAccumulator acc;
  acc.add_u64(dsn);
  acc.add_u32(ssn_rel);
  acc.add_word(length);
  acc.add_partial(payload_sum);
  return acc.finish();
}

uint16_t dss_checksum(uint64_t dsn, uint32_t ssn_rel, uint16_t length,
                      std::span<const uint8_t> payload) {
  return dss_checksum_from_partial(dsn, ssn_rel, length,
                                   ones_complement_sum(payload));
}

// ---------------------------------------------------------------------------
// SenderMappings
// ---------------------------------------------------------------------------

namespace {

const MappingRecord& record(const MappingRecord& r) { return r; }
template <typename T>
const MappingRecord& record(const T& t) {
  return t.rec;
}

/// Orders mappings, or what holds them, against a sequence number by
/// ssn_begin, either way round: for lower_bound and upper_bound.
struct BySsnBegin {
  template <typename T>
  bool operator()(const T& m, uint64_t ssn) const {
    return record(m).ssn_begin < ssn;
  }
  template <typename T>
  bool operator()(uint64_t ssn, const T& m) const {
    return ssn < record(m).ssn_begin;
  }
};

}  // namespace

void SenderMappings::add(const MappingRecord& rec) {
  assert((ring_.empty() || ring_.back().ssn_end() <= rec.ssn_begin) &&
         "mappings are made in ssn order, at the end of the send buffer");
  ring_.push_back(rec);
}

const MappingRecord* SenderMappings::find(uint64_t ssn) const {
  auto it = std::upper_bound(ring_.begin(), ring_.end(), ssn, BySsnBegin{});
  if (it == ring_.begin()) return nullptr;
  const MappingRecord& rec = *std::prev(it);
  return ssn < rec.ssn_end() ? &rec : nullptr;
}

void SenderMappings::release_below(uint64_t ssn) {
  // Sorted by ssn_begin, and later mappings end later.
  while (!ring_.empty() && ring_.front().ssn_end() <= ssn) ring_.pop_front();
  if (ring_.empty()) ring_.clear();
}

// ---------------------------------------------------------------------------
// ReceiverMappings
// ---------------------------------------------------------------------------

bool ReceiverMappings::add(MappingRecord rec) {
  // TSO-split and retransmitted segments legitimately repeat a mapping.
  auto same = [&rec](const Tracked& have) {
    return have.rec.dsn == rec.dsn && have.rec.length == rec.length;
  };
  if (!front_) {
    front_.emplace().rec = rec;
    return true;
  }
  if (rec.ssn_begin == front_->rec.ssn_begin) return same(*front_);
  if (rec.ssn_begin < front_->rec.ssn_begin) {
    // Arrived below the lowest held mapping: it takes the front.
    rest_.push_front(std::move(*front_));
    front_.emplace().rec = rec;
    return true;
  }
  auto it =
      std::lower_bound(rest_.begin(), rest_.end(), rec.ssn_begin, BySsnBegin{});
  if (it != rest_.end() && it->rec.ssn_begin == rec.ssn_begin) {
    return same(*it);
  }
  Tracked t;
  t.rec = rec;
  rest_.insert(it, std::move(t));
  return true;
}

void ReceiverMappings::feed(uint64_t ssn, const Payload& bytes,
                            bool verify_checksums, Output& out) {
  out.deliver.clear();
  out.checksum_failures.clear();
  size_t offset = 0;
  while (offset < bytes.size()) {
    const uint64_t cur = ssn + offset;
    // The held mapping starting last at or below `cur`, and where the
    // next one starts.
    Tracked* pred = nullptr;
    uint64_t next_start = ssn + bytes.size();
    if (front_ && front_->rec.ssn_begin <= cur) {
      auto it = std::upper_bound(rest_.begin(), rest_.end(), cur, BySsnBegin{});
      pred = it == rest_.begin() ? &*front_ : &*std::prev(it);
      if (it != rest_.end()) next_start = it->rec.ssn_begin;
    } else if (front_) {
      next_start = front_->rec.ssn_begin;
    }
    Tracked* tracked =
        pred != nullptr && cur < pred->rec.ssn_end() ? pred : nullptr;
    if (tracked == nullptr) {
      // No mapping for these bytes (e.g. a coalescing middlebox kept only
      // one of two DSS options, section 3.3.5). They are dropped at the
      // data level up to the next known mapping; the sender's
      // connection-level retransmission recovers the hole.
      const size_t len = static_cast<size_t>(
          std::min<uint64_t>(next_start, ssn + bytes.size()) - cur);
      unmapped_bytes_ += len;
      offset += len;
      continue;
    }
    const MappingRecord& rec = tracked->rec;
    const size_t len = static_cast<size_t>(
        std::min<uint64_t>(rec.ssn_end(), ssn + bytes.size()) - cur);
    Payload fragment = bytes.subview(offset, len);

    if (verify_checksums && rec.checksum) {
      // Bytes arrive in subflow order, so coverage within a mapping is
      // strictly sequential; hold everything until the mapping completes
      // and its checksum verifies. Fragments that are consecutive views of
      // one buffer (segments carved from one sender chunk) join into one
      // shared view; at the first that does not, the mapping is gathered
      // into a buffer of its own, once. The sum is accumulated per
      // fragment (add_bytes, not the cached
      // folded_sum: a fragment at an odd offset within the mapping needs
      // its bytes summed with the opposite parity).
      const size_t at = static_cast<size_t>(tracked->covered);
      if (cur == rec.ssn_begin + at) {
        tracked->acc.add_bytes(fragment.span());
        held_bytes_ += len;
        Payload& held = tracked->held;
        if (at == 0) {
          held = std::move(fragment);
        } else if (held.size() == at && held.adjoins(fragment)) {
          held.append(fragment);  // grows the shared view
        } else {
          if (held.size() == at) {
            Payload own = Payload::uninitialized(rec.length);
            std::memcpy(own.mutable_data(), held.data(), at);
            held = std::move(own);
          }
          std::memcpy(held.mutable_data() + at, fragment.data(), len);
        }
        tracked->covered += len;
        if (tracked->covered == rec.length) {
          const uint16_t computed = dss_checksum_from_partial(
              rec.dsn, rec.ssn_rel, static_cast<uint16_t>(rec.length),
              tracked->acc.fold());
          held_bytes_ -= rec.length;
          Payload assembled = std::move(held);
          if (computed == *rec.checksum) {
            out.deliver.emplace_back(rec.dsn, std::move(assembled));
          } else {
            out.checksum_failures.emplace_back(rec, std::move(assembled));
          }
        }
      }
      // Out-of-sequence re-feeds (retransmitted subflow data) were already
      // counted; ignore.
    } else {
      // No checksum in use: deliver the shared view immediately.
      out.deliver.emplace_back(rec.dsn_for(cur), std::move(fragment));
    }
    offset += len;
  }
}

void ReceiverMappings::release_below(uint64_t ssn) {
  while (front_ && front_->rec.ssn_end() <= ssn) {
    held_bytes_ -= front_->held_size();
    if (rest_.empty()) {
      front_.reset();
      return;
    }
    *front_ = std::move(rest_.front());
    rest_.pop_front();
    if (rest_.empty()) rest_.clear();
  }
}

}  // namespace mptcp
