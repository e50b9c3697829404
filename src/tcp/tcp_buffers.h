// Send-side and receive-side data structures, 64-bit sequence based.
//
// Both sides store refcounted Payload chunks rather than flat byte
// arrays: the send buffer keeps each application write (or each mapped
// chunk pushed down by the MPTCP meta level) as one shared chunk, so
// carving an MSS-sized segment -- including every retransmission of it --
// is a zero-copy subview; the reassembly queue likewise holds the
// segment payloads it was handed without duplicating them.
//
// SendBuffer and RecvQueue keep their chunks in a RingQueue
// (net/ring_queue.h), which allocates nothing until the first chunk
// arrives: an idle connection's (and each idle subflow's) buffers cost
// only their own few words. A chunk reference does not survive a push
// or pop on the same buffer.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "net/payload.h"
#include "net/ring_queue.h"

namespace mptcp {

/// Byte buffer anchored at an (unwrapped) sequence number. Holds
/// [base_seq, end_seq): data written by the application but not yet
/// cumulatively acknowledged. Freed from the front as ACKs advance.
class SendBuffer {
 public:
  explicit SendBuffer(uint64_t base_seq = 0) : base_seq_(base_seq) {}

  void reset(uint64_t base_seq) {
    base_seq_ = base_seq;
    chunks_.clear();
    size_ = 0;
  }

  /// Bytes append_shared() would accept under `capacity`.
  size_t space(size_t capacity) const {
    return capacity > size_ ? capacity - size_ : 0;
  }

  /// Appends an already-refcounted chunk without copying (truncated to
  /// space(capacity)); returns bytes accepted. Application writes and
  /// mapped data pushed down from the MPTCP meta level both arrive this
  /// way, so one buffer is shared all the way to the wire.
  size_t append_shared(Payload bytes, size_t capacity) {
    const size_t n = std::min(space(capacity), bytes.size());
    if (n == 0) return 0;
    bytes.truncate(n);
    push_chunk(std::move(bytes));
    return n;
  }

  /// Returns `len` bytes starting at sequence `seq` as a shared view.
  /// Zero-copy when the range lies within one stored chunk (the common
  /// case: segments never straddle an application write or an MPTCP
  /// mapping), and when the chunks it straddles are consecutive views of
  /// one buffer (Payload::concat); copied into a fresh buffer only when
  /// they are not. The range must be within [base_seq, end_seq).
  Payload slice_out(uint64_t seq, size_t len) const;

  /// Releases all bytes below `seq` (cumulative ACK).
  void free_through(uint64_t seq);

  uint64_t base_seq() const { return base_seq_; }
  uint64_t end_seq() const { return base_seq_ + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Number of stored chunks (diagnostics).
  size_t chunk_count() const { return chunks_.size(); }

 private:
  struct Chunk {
    uint64_t start;  ///< unwrapped sequence of bytes[0]
    Payload bytes;
  };

  void push_chunk(Payload bytes) {
    const uint64_t start = end_seq();
    size_ += bytes.size();
    chunks_.push_back(Chunk{start, std::move(bytes)});
  }

  using ChunkIter = RingQueue<Chunk>::const_iterator;

  /// The chunk containing `seq` (binary search; chunks are sorted and
  /// contiguous).
  ChunkIter find_chunk(uint64_t seq) const;

  uint64_t base_seq_;
  size_t size_ = 0;
  RingQueue<Chunk> chunks_;  ///< contiguous, sorted by start
};

/// In-order receive queue between reassembly and the application: a ring
/// of delivered Payload views. read() copies into the caller's span and
/// advances by trimming view prefixes -- O(bytes read), never a memmove of
/// what stays buffered. peek_views()/consume() expose the same bytes as a
/// scatter list so zero-copy consumers (bulk/http sinks, the workload
/// engine) can count or parse without any copy at all.
class RecvQueue {
 public:
  void push(Payload bytes) {
    if (bytes.empty()) return;
    bytes_ += bytes.size();
    chunks_.push_back(std::move(bytes));
  }

  /// Copies up to `out.size()` bytes into `out`; returns bytes copied.
  size_t read(std::span<uint8_t> out);

  /// Fills `out` with views of the queued chunks, front first; returns
  /// how many views were written. The views stay valid until the next
  /// consume()/read().
  size_t peek_views(std::span<std::span<const uint8_t>> out) const;

  /// Copies up to `out.size()` bytes starting `offset` bytes into the
  /// queue, WITHOUT consuming anything; returns bytes copied. This is the
  /// header-peek primitive for framed protocols: a fixed-size header that
  /// straddles chunk boundaries is gathered into the caller's buffer
  /// while the payload behind it stays zero-copy (peek_views/consume).
  size_t copy_out(size_t offset, std::span<uint8_t> out) const;

  /// Drops the first `n` queued bytes (n <= size()).
  void consume(size_t n);

  size_t size() const { return bytes_; }
  bool empty() const { return bytes_ == 0; }
  size_t chunk_count() const { return chunks_.size(); }

  void clear() {
    chunks_.clear();
    bytes_ = 0;
  }

 private:
  RingQueue<Payload> chunks_;
  size_t bytes_ = 0;
};

/// Out-of-order reassembly queue keyed by unwrapped sequence number.
/// Overlapping inserts are trimmed so stored chunks are disjoint; trims
/// are zero-copy subviews of the arriving payload.
class ReassemblyQueue {
 public:
  /// Inserts a chunk; overlaps with existing chunks are discarded from the
  /// new chunk (first-arrival wins, like most stacks).
  void insert(uint64_t seq, Payload bytes);

  /// If the chunk at the head starts at or below `rcv_nxt`, pops it
  /// (trimmed to start exactly at rcv_nxt). Returns nullopt otherwise.
  std::optional<std::pair<uint64_t, Payload>> pop_ready(uint64_t rcv_nxt);

  size_t ooo_bytes() const { return ooo_bytes_; }
  size_t chunk_count() const { return chunks_.size(); }
  bool empty() const { return chunks_.empty(); }

  /// Received ranges for SACK generation, held inline: at most four fit
  /// in a segment's option space (RFC 2018).
  class SackRanges {
   public:
    using Range = std::pair<uint64_t, uint64_t>;  ///< [begin, end)
    static constexpr size_t kMax = 4;
    void push_back(const Range& r) {
      if (n_ < kMax) r_[n_++] = r;
    }
    size_t size() const { return n_; }
    bool empty() const { return n_ == 0; }
    const Range& operator[](size_t i) const { return r_[i]; }
    const Range& front() const { return r_[0]; }
    const Range* begin() const { return r_.data(); }
    const Range* end() const { return r_.data() + n_; }

   private:
    std::array<Range, kMax> r_{};
    size_t n_ = 0;
  };

  /// Up to `max_n` (at most SackRanges::kMax) disjoint received ranges
  /// for SACK generation, with the range containing the most recent
  /// arrival first (RFC 2018 ordering), then the remaining ranges in
  /// ascending order.
  SackRanges sack_ranges(size_t max_n) const;

  /// Drops everything (connection reset).
  void clear() {
    chunks_.clear();
    ooo_bytes_ = 0;
  }

 private:
  /// Calls `f(begin, end)` for each maximal run of adjacent chunks, in
  /// ascending order, until `f` returns false.
  template <typename F>
  void for_each_range(F&& f) const {
    uint64_t begin = 0;
    uint64_t end = 0;
    bool open = false;
    for (const auto& [seq, bytes] : chunks_) {
      if (open && end == seq) {
        end = seq + bytes.size();
        continue;
      }
      if (open && !f(begin, end)) return;
      begin = seq;
      end = seq + bytes.size();
      open = true;
    }
    if (open) f(begin, end);
  }

  std::map<uint64_t, Payload> chunks_;
  size_t ooo_bytes_ = 0;
  uint64_t last_insert_seq_ = 0;
};

}  // namespace mptcp
