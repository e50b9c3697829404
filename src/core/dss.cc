#include "core/dss.h"

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

const MappingRecord* SenderMappings::find(uint64_t ssn) const {
  auto it = map_.upper_bound(ssn);
  if (it == map_.begin()) return nullptr;
  --it;
  const MappingRecord& rec = it->second;
  return ssn < rec.ssn_end() ? &rec : nullptr;
}

void SenderMappings::release_below(uint64_t ssn) {
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->second.ssn_end() <= ssn) {
      it = map_.erase(it);
    } else {
      break;  // keyed in ssn order; later mappings end later
    }
  }
}

// ---------------------------------------------------------------------------
// ReceiverMappings
// ---------------------------------------------------------------------------

bool ReceiverMappings::add(MappingRecord rec) {
  auto it = map_.find(rec.ssn_begin);
  if (it != map_.end()) {
    const MappingRecord& have = it->second.rec;
    // TSO-split and retransmitted segments legitimately repeat a mapping.
    return have.dsn == rec.dsn && have.length == rec.length;
  }
  Tracked t;
  t.rec = rec;
  map_.emplace(rec.ssn_begin, std::move(t));
  return true;
}

ReceiverMappings::Output ReceiverMappings::feed(uint64_t ssn,
                                                const Payload& bytes,
                                                bool verify_checksums) {
  Output out;
  size_t offset = 0;
  while (offset < bytes.size()) {
    const uint64_t cur = ssn + offset;
    // Find the mapping containing `cur`.
    auto it = map_.upper_bound(cur);
    Tracked* tracked = nullptr;
    if (it != map_.begin()) {
      auto prev = std::prev(it);
      if (cur < prev->second.rec.ssn_end()) tracked = &prev->second;
    }
    if (tracked == nullptr) {
      // No mapping for these bytes (e.g. a coalescing middlebox kept only
      // one of two DSS options, section 3.3.5). They are dropped at the
      // data level up to the next known mapping; the sender's
      // connection-level retransmission recovers the hole.
      uint64_t next_start = it == map_.end() ? ssn + bytes.size()
                                             : it->second.rec.ssn_begin;
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
      // and its checksum verifies. Fragments are held as shared views;
      // the sum is accumulated per fragment (add_bytes, not the cached
      // folded_sum: a fragment at an odd offset within the mapping needs
      // its bytes summed with the opposite parity).
      if (cur == rec.ssn_begin + tracked->covered) {
        tracked->acc.add_bytes(fragment.span());
        held_bytes_ += fragment.size();
        tracked->held_size += fragment.size();
        tracked->held.push_back(std::move(fragment));
        tracked->covered += len;
        if (tracked->covered == rec.length) {
          const uint16_t computed = dss_checksum_from_partial(
              rec.dsn, rec.ssn_rel, static_cast<uint16_t>(rec.length),
              tracked->acc.fold());
          held_bytes_ -= tracked->held_size;
          // Fragments that are consecutive views of one buffer (one
          // fragment, or segments carved from one sender chunk) join into
          // one shared view; others are gathered once, here.
          Payload assembled = Payload::concat(tracked->held);
          if (computed == *rec.checksum) {
            out.deliver.emplace_back(rec.dsn, std::move(assembled));
          } else {
            out.checksum_failures.emplace_back(rec, std::move(assembled));
          }
          tracked->held.clear();
          tracked->held_size = 0;
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
  return out;
}

void ReceiverMappings::release_below(uint64_t ssn) {
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->second.rec.ssn_end() <= ssn) {
      held_bytes_ -= it->second.held_size;
      it = map_.erase(it);
    } else {
      break;
    }
  }
}

}  // namespace mptcp
