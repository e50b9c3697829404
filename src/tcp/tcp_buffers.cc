#include "tcp/tcp_buffers.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace mptcp {

// ---------------------------------------------------------------------------
// RecvQueue
// ---------------------------------------------------------------------------

size_t RecvQueue::read(std::span<uint8_t> out) {
  size_t copied = 0;
  while (copied < out.size() && !chunks_.empty()) {
    Payload& front = chunks_.front();
    const size_t n = std::min(out.size() - copied, front.size());
    std::memcpy(out.data() + copied, front.data(), n);
    copied += n;
    if (n == front.size()) {
      chunks_.pop_front();
    } else {
      front.remove_prefix(n);
    }
  }
  bytes_ -= copied;
  return copied;
}

size_t RecvQueue::peek_views(std::span<std::span<const uint8_t>> out) const {
  size_t n = 0;
  for (const Payload& c : chunks_) {
    if (n == out.size()) break;
    out[n++] = c.span();
  }
  return n;
}

size_t RecvQueue::copy_out(size_t offset, std::span<uint8_t> out) const {
  size_t copied = 0;
  for (const Payload& c : chunks_) {
    if (copied == out.size()) break;
    if (offset >= c.size()) {
      offset -= c.size();
      continue;
    }
    const size_t n = std::min(out.size() - copied, c.size() - offset);
    std::memcpy(out.data() + copied, c.data() + offset, n);
    copied += n;
    offset = 0;
  }
  return copied;
}

void RecvQueue::consume(size_t n) {
  assert(n <= bytes_ && "consume past the buffered bytes");
  bytes_ -= n;
  while (n > 0) {
    Payload& front = chunks_.front();
    if (front.size() <= n) {
      n -= front.size();
      chunks_.pop_front();
    } else {
      front.remove_prefix(n);
      n = 0;
    }
  }
}

// ---------------------------------------------------------------------------
// SendBuffer
// ---------------------------------------------------------------------------

SendBuffer::ChunkIter SendBuffer::find_chunk(uint64_t seq) const {
  // Chunks are contiguous and sorted; binary search for the last chunk
  // with start <= seq.
  auto it = std::upper_bound(
      chunks_.begin(), chunks_.end(), seq,
      [](uint64_t s, const Chunk& c) { return s < c.start; });
  assert(it != chunks_.begin() && "sequence below the buffered range");
  return std::prev(it);
}

Payload SendBuffer::slice_out(uint64_t seq, size_t len) const {
  assert(seq >= base_seq_ && seq + len <= end_seq() &&
         "slice_out outside buffered range");
  if (len == 0) return Payload();
  ChunkIter it = find_chunk(seq);
  const size_t off = static_cast<size_t>(seq - it->start);
  if (off + len <= it->bytes.size()) {
    // Common case: the segment lies inside one application write / one
    // mapped chunk. Share the bytes.
    return it->bytes.subview(off, len);
  }
  // Straddles chunk boundaries: gather the covered part of each chunk,
  // with Payload::concat's result but no list of parts. Consecutive
  // writes of one buffer (pattern-tape writes, mapped slices of one meta
  // chunk) join into one shared view; chunks from different buffers are
  // still copied once.
  const uint64_t end = seq + len;
  bool adjacent = true;
  for (ChunkIter c = it, next = std::next(it);
       next != chunks_.end() && next->start < end; c = next++) {
    adjacent = adjacent && c->bytes.adjoins(next->bytes);
  }
  if (adjacent) {
    Payload out = it->bytes.subview(off, it->bytes.size() - off);
    while (out.size() < len) {
      ++it;  // grows the view in place
      out.append(it->bytes.subview(0, std::min(len - out.size(),
                                               it->bytes.size())));
    }
    return out;
  }
  Payload out = Payload::uninitialized(len);
  uint8_t* to = out.mutable_data();
  for (uint64_t at = seq; at < end; ++it) {
    // Contiguous: each next chunk starts exactly at `at`.
    const size_t coff = static_cast<size_t>(at - it->start);
    const size_t n =
        std::min(static_cast<size_t>(end - at), it->bytes.size() - coff);
    std::memcpy(to, it->bytes.data() + coff, n);
    to += n;
    at += n;
  }
  return out;
}

void SendBuffer::free_through(uint64_t seq) {
  if (seq <= base_seq_) return;
  size_t n = std::min(static_cast<size_t>(seq - base_seq_), size_);
  base_seq_ += n;
  size_ -= n;
  while (n > 0 && !chunks_.empty()) {
    Chunk& front = chunks_.front();
    if (front.bytes.size() <= n) {
      n -= front.bytes.size();
      chunks_.pop_front();
    } else {
      front.bytes.remove_prefix(n);
      front.start += n;
      n = 0;
    }
  }
}

// ---------------------------------------------------------------------------
// ReassemblyQueue
// ---------------------------------------------------------------------------

void ReassemblyQueue::insert(uint64_t seq, Payload bytes) {
  if (bytes.empty()) return;
  last_insert_seq_ = seq;
  const uint64_t end = seq + bytes.size();

  // Trim against the predecessor (chunk starting at or before seq).
  auto it = chunks_.upper_bound(seq);
  if (it != chunks_.begin()) {
    auto prev = std::prev(it);
    const uint64_t prev_end = prev->first + prev->second.size();
    if (prev_end >= end) return;  // fully covered
    if (prev_end > seq) {
      bytes.remove_prefix(static_cast<size_t>(prev_end - seq));
      seq = prev_end;
    }
  }

  // Trim against successors.
  while (it != chunks_.end() && it->first < end) {
    const uint64_t next_start = it->first;
    const uint64_t next_end = next_start + it->second.size();
    if (next_start <= seq) {
      // Successor covers our head.
      if (next_end >= end) return;
      bytes.remove_prefix(static_cast<size_t>(next_end - seq));
      seq = next_end;
      it = chunks_.upper_bound(seq);
      continue;
    }
    // Successor starts inside our range: keep only our head up to it,
    // insert, and continue with the tail beyond the successor.
    const size_t head_len = static_cast<size_t>(next_start - seq);
    Payload head = bytes.subview(0, head_len);
    ooo_bytes_ += head.size();
    chunks_.emplace(seq, std::move(head));
    bytes.remove_prefix(static_cast<size_t>(std::min(next_end, end) - seq));
    seq = next_end;
    if (seq >= end) return;
    it = chunks_.upper_bound(seq);
  }

  if (!bytes.empty() && seq < end) {
    ooo_bytes_ += bytes.size();
    chunks_.emplace(seq, std::move(bytes));
  }
}

ReassemblyQueue::SackRanges ReassemblyQueue::sack_ranges(
    size_t max_n) const {
  SackRanges out;
  // The range containing the most recent arrival goes first so the sender
  // learns fresh information even if earlier ACKs were lost.
  for_each_range([&](uint64_t b, uint64_t e) {
    if (last_insert_seq_ >= b && last_insert_seq_ < e) {
      out.push_back({b, e});
      return false;
    }
    return true;
  });
  for_each_range([&](uint64_t b, uint64_t e) {
    if (out.size() >= max_n) return false;
    if (out.empty() || out.front() != SackRanges::Range{b, e}) {
      out.push_back({b, e});
    }
    return true;
  });
  return out;
}

std::optional<std::pair<uint64_t, Payload>> ReassemblyQueue::pop_ready(
    uint64_t rcv_nxt) {
  while (!chunks_.empty()) {
    auto it = chunks_.begin();
    const uint64_t seq = it->first;
    const uint64_t end = seq + it->second.size();
    if (seq > rcv_nxt) return std::nullopt;
    Payload bytes = std::move(it->second);
    ooo_bytes_ -= bytes.size();
    chunks_.erase(it);
    if (end <= rcv_nxt) continue;  // stale chunk, already delivered
    if (seq < rcv_nxt) {
      bytes.remove_prefix(static_cast<size_t>(rcv_nxt - seq));
      return std::make_pair(rcv_nxt, std::move(bytes));
    }
    return std::make_pair(seq, std::move(bytes));
  }
  return std::nullopt;
}

}  // namespace mptcp
