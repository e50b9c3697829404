// Shared immutable segment payloads.
//
// A Payload is a refcounted view (offset + length) into an immutable byte
// buffer. Copying a Payload bumps a refcount; subview() carves a slice
// without touching the bytes, and concat() joins slices that sit back to
// back in one buffer into one view again. This is what lets the simulator
// forward, queue, retransmit, TSO-split and reassemble segments without
// copying payload bytes: the sender's buffer chunk, every in-flight copy
// of the segment, the receiver's reassembly queue and the mapping it
// delivers all reference the same allocation.
//
// Sharing rules:
//   - The underlying buffer is immutable. Anything that wants to *modify*
//     payload bytes (a payload-rewriting middlebox, say) must go through
//     mutable_data(), which unshares the view (copy-on-write) before
//     returning a writable pointer.
//   - The refcount is NOT atomic: each simulation shard is single-threaded
//     by design and payloads must not cross threads. A segment handed to
//     another shard is detached first -- ShardChannel::send (sim/shard.h)
//     deep-copies the view into a fresh buffer owned by nobody else.
//     The one exception is a frozen buffer (freeze()): it lives for the
//     whole process and its refcount is never touched again, so its views
//     may be made and dropped on any thread and cross shards as they are.
//
// Each view caches the folded RFC 1071 ones-complement sum of its bytes.
// That makes the paper's shared-checksum trick (section 3.3.6) structural:
// the TCP wire checksum and the DSS checksum both fold the same cached
// payload sum into their pseudo-headers instead of re-reading the bytes.
// mutable_data() invalidates the cache.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

namespace mptcp {

class Payload {
 public:
  Payload() = default;

  /// Copies `bytes` into a fresh buffer (creation-time copy; all further
  /// sharing is free).
  explicit Payload(std::span<const uint8_t> bytes) { assign(bytes); }
  /// `n` copies of `value` (benchmark/test convenience).
  Payload(size_t n, uint8_t value) { assign(n, value); }
  explicit Payload(const std::vector<uint8_t>& bytes) {
    assign(std::span<const uint8_t>(bytes));
  }
  Payload(std::initializer_list<uint8_t> bytes) {
    assign(std::span<const uint8_t>(bytes.begin(), bytes.size()));
  }
  /// A fresh, unshared `n`-byte buffer whose contents the caller writes
  /// through mutable_data() (which then neither copies nor clears): lets a
  /// generator build bytes directly in the block the transport keeps.
  static Payload uninitialized(size_t n);

  Payload(const Payload& o)
      : buf_(o.buf_), off_(o.off_), len_(o.len_), sum_(o.sum_),
        sum_valid_(o.sum_valid_) {
    retain(buf_);
  }
  Payload(Payload&& o) noexcept
      : buf_(o.buf_), off_(o.off_), len_(o.len_), sum_(o.sum_),
        sum_valid_(o.sum_valid_) {
    o.buf_ = nullptr;
    o.off_ = o.len_ = 0;
    o.sum_valid_ = false;
  }
  Payload& operator=(const Payload& o) {
    if (this != &o) {
      retain(o.buf_);
      release();
      buf_ = o.buf_;
      off_ = o.off_;
      len_ = o.len_;
      sum_ = o.sum_;
      sum_valid_ = o.sum_valid_;
    }
    return *this;
  }
  Payload& operator=(Payload&& o) noexcept {
    if (this != &o) {
      release();
      buf_ = o.buf_;
      off_ = o.off_;
      len_ = o.len_;
      sum_ = o.sum_;
      sum_valid_ = o.sum_valid_;
      o.buf_ = nullptr;
      o.off_ = o.len_ = 0;
      o.sum_valid_ = false;
    }
    return *this;
  }
  Payload& operator=(std::initializer_list<uint8_t> bytes) {
    assign(std::span<const uint8_t>(bytes.begin(), bytes.size()));
    return *this;
  }
  ~Payload() { release(); }

  size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  const uint8_t* data() const {
    return buf_ != nullptr ? buf_->bytes() + off_ : nullptr;
  }
  std::span<const uint8_t> span() const { return {data(), len_}; }
  uint8_t operator[](size_t i) const { return data()[i]; }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + len_; }

  /// Replaces the contents with `n` copies of `value`.
  void assign(size_t n, uint8_t value);
  /// Replaces the contents with a copy of `bytes`.
  void assign(std::span<const uint8_t> bytes);
  void clear() {
    release();
    buf_ = nullptr;
    off_ = len_ = 0;
    sum_valid_ = false;
  }

  /// Zero-copy slice [off, off+n) sharing this view's buffer.
  Payload subview(size_t off, size_t n) const;
  /// Drops the first `n` bytes of the view (zero-copy).
  void remove_prefix(size_t n);
  /// Keeps only the first `n` bytes of the view (zero-copy).
  void truncate(size_t n);

  /// Appends `more` (the segment coalescer's merge). Zero-copy when `more`
  /// starts where this view ends in the same buffer, as consecutive carves
  /// of one write or of the pattern tape do: the view just grows. Any
  /// other `more` still copies both views into a fresh buffer.
  void append(const Payload& more);

  /// Concatenates `parts` into one view. Zero-copy when the non-empty
  /// parts are consecutive views of one buffer, each starting where the
  /// previous one ends (a single part always is): the result is one view
  /// spanning them, shared with that buffer and frozen if it is. Parts
  /// that are not -- from different buffers, with a gap, out of order, or
  /// unshared by mutable_data() (an ALG's rewrite) -- are still gathered
  /// into a fresh buffer, one allocation and one copy per byte.
  static Payload concat(std::span<const Payload> parts);

  /// Copy-on-write: returns a writable pointer to this view's bytes,
  /// copying them into a private buffer first if the buffer is shared or
  /// frozen.
  /// Invalidates the cached checksum.
  uint8_t* mutable_data();

  /// Makes this view's buffer immutable for the life of the process. The
  /// buffer must be unshared (buffer_refs() == 1). From then on copies,
  /// subviews and releases never touch its refcount, so its views may be
  /// made and dropped on any thread, and the buffer is never freed.
  /// mutable_data() on a view of it still copies on write.
  void freeze();
  bool is_frozen() const {
    return buf_ != nullptr && buf_->refs == kFrozenRefs;
  }

  /// Folded (non-inverted) RFC 1071 ones-complement sum of the view's
  /// bytes, computed on first use and cached. Shared between the TCP wire
  /// checksum and the DSS checksum via ChecksumAccumulator::add_partial().
  uint16_t folded_sum() const;

  /// True when `next` views this view's buffer starting exactly where
  /// this view ends, so the two join into one view without a copy. The one
  /// adjacency test behind concat(), append() and SendBuffer::slice_out().
  bool adjoins(const Payload& next) const {
    return buf_ != nullptr && buf_ == next.buf_ && off_ + len_ == next.off_;
  }

  // --- introspection (tests, memory accounting) ---------------------------
  bool sum_cached() const { return sum_valid_; }
  bool shares_buffer_with(const Payload& o) const {
    return buf_ != nullptr && buf_ == o.buf_;
  }
  uint32_t buffer_refs() const { return buf_ != nullptr ? buf_->refs : 0; }
  /// Usable capacity of the backing allocation (>= size() + offset; pooled
  /// blocks round up to their size class).
  size_t buffer_capacity() const { return buf_ != nullptr ? buf_->cap : 0; }

  // --- block pool ----------------------------------------------------------
  // alloc_buf() recycles freed blocks of the two hot allocation sizes
  // (MSS-sized carves and app-write/16 KiB chunks) through thread-local
  // free lists, so capacity-scale workloads stop hammering the allocator
  // and shard worker threads never contend. Disabled under
  // AddressSanitizer so lifetime bugs stay visible.
  struct PoolStats {
    uint64_t hits = 0;    ///< allocations served from a free list
    uint64_t misses = 0;  ///< poolable sizes that went to the heap
  };
  static const PoolStats& pool_stats();
  /// Frees the calling thread's pooled blocks and zeroes its stats.
  /// Called by EventLoop construction so each simulation starts from a
  /// cold allocator and exports per-run pool stats deterministically.
  static void pool_reset();

  bool operator==(const Payload& o) const;
  bool operator!=(const Payload& o) const { return !(*this == o); }

 private:
  /// The refcount of a frozen buffer: never incremented, decremented or
  /// freed.
  static constexpr uint32_t kFrozenRefs = UINT32_MAX;

  /// Refcounted header immediately followed by the bytes themselves
  /// (single allocation). Non-atomic: single-threaded simulator.
  struct Buf {
    uint32_t refs;
    uint32_t cap;  ///< usable byte capacity (pool size class or exact size)
    uint8_t* bytes() { return reinterpret_cast<uint8_t*>(this + 1); }
    const uint8_t* bytes() const {
      return reinterpret_cast<const uint8_t*>(this + 1);
    }
  };

  static Buf* alloc_buf(size_t n);
  static void free_buf(Buf* b);
  static void retain(Buf* b) {
    if (b != nullptr && b->refs != kFrozenRefs) ++b->refs;
  }
  void release() {
    if (buf_ != nullptr && buf_->refs != kFrozenRefs && --buf_->refs == 0) {
      free_buf(buf_);
    }
  }

  Buf* buf_ = nullptr;
  size_t off_ = 0;
  size_t len_ = 0;
  mutable uint16_t sum_ = 0;
  mutable bool sum_valid_ = false;
};

}  // namespace mptcp
