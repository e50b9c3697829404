#include "net/payload.h"

#include <cassert>
#include <cstring>
#include <new>
#include <vector>

#include "net/block_pool.h"
#include "net/checksum.h"

namespace mptcp {

namespace {

// The two allocation sizes that dominate capacity-scale runs: MSS-sized
// carves off the send buffer (1460 and change) and the 16 KiB chunks apps
// write. Everything else goes straight to the heap.
constexpr size_t kSmallCap = 2048;
constexpr size_t kLargeCap = 16384;
// Free-list depth limits: enough to absorb steady-state churn without
// letting a transient burst pin memory forever.
constexpr size_t kSmallMax = 8192;
constexpr size_t kLargeMax = 2048;

// One pool per thread (net/block_pool.h): payload refcounts are non-atomic
// and a buffer must never be shared across threads (the sharded engine
// deep-copies payloads at shard boundaries, see sim/shard.h; frozen
// buffers, which are never freed, cross as they are), so each shard worker
// recycles blocks through its own free lists with no synchronization.
struct Pool {
  FreeBlocks free_small{kSmallMax};
  FreeBlocks free_large{kLargeMax};
  Payload::PoolStats stats;
};

thread_local Pool g_pool;

}  // namespace

Payload::Buf* Payload::alloc_buf(size_t n) {
  size_t cap = n;
#if MPTCP_BLOCK_POOL
  FreeBlocks* list = nullptr;
  if (n <= kSmallCap) {
    cap = kSmallCap;
    list = &g_pool.free_small;
  } else if (n <= kLargeCap) {
    cap = kLargeCap;
    list = &g_pool.free_large;
  }
  if (list != nullptr) {
    if (void* p = list->pop()) {
      ++g_pool.stats.hits;
      Buf* b = static_cast<Buf*>(p);
      b->refs = 1;
      b->cap = static_cast<uint32_t>(cap);
      return b;
    }
    ++g_pool.stats.misses;
  }
#endif
  Buf* b = static_cast<Buf*>(::operator new(sizeof(Buf) + cap));
  b->refs = 1;
  b->cap = static_cast<uint32_t>(cap);
  return b;
}

void Payload::free_buf(Buf* b) {
#if MPTCP_BLOCK_POOL
  if (b->cap == kSmallCap && g_pool.free_small.push(b)) return;
  if (b->cap == kLargeCap && g_pool.free_large.push(b)) return;
#endif
  ::operator delete(static_cast<void*>(b));
}

const Payload::PoolStats& Payload::pool_stats() { return g_pool.stats; }

void Payload::pool_reset() {
  g_pool.free_small.clear();
  g_pool.free_large.clear();
  g_pool.stats = PoolStats{};
}

Payload Payload::uninitialized(size_t n) {
  Payload out;
  if (n == 0) return out;
  out.buf_ = alloc_buf(n);
  out.len_ = n;
  return out;
}

void Payload::assign(size_t n, uint8_t value) {
  release();
  sum_valid_ = false;
  off_ = 0;
  len_ = n;
  if (n == 0) {
    buf_ = nullptr;
    return;
  }
  buf_ = alloc_buf(n);
  std::memset(buf_->bytes(), value, n);
}

void Payload::assign(std::span<const uint8_t> bytes) {
  // The source may alias our own buffer (e.g. assign from a subspan of
  // span()); build the new buffer before releasing the old one.
  Buf* fresh = nullptr;
  if (!bytes.empty()) {
    fresh = alloc_buf(bytes.size());
    std::memcpy(fresh->bytes(), bytes.data(), bytes.size());
  }
  release();
  buf_ = fresh;
  off_ = 0;
  len_ = bytes.size();
  sum_valid_ = false;
}

Payload Payload::subview(size_t off, size_t n) const {
  assert(off <= len_ && n <= len_ - off && "subview out of range");
  Payload out;
  if (n == 0 || buf_ == nullptr) return out;
  out.buf_ = buf_;
  retain(buf_);
  out.off_ = off_ + off;
  out.len_ = n;
  if (off == 0 && n == len_) {
    out.sum_ = sum_;
    out.sum_valid_ = sum_valid_;
  }
  return out;
}

void Payload::remove_prefix(size_t n) {
  assert(n <= len_ && "remove_prefix out of range");
  off_ += n;
  len_ -= n;
  sum_valid_ = false;
  if (len_ == 0) clear();
}

void Payload::truncate(size_t n) {
  if (n >= len_) return;
  len_ = n;
  sum_valid_ = false;
  if (len_ == 0) clear();
}

void Payload::append(const Payload& more) {
  const size_t n = more.len_;
  if (n == 0) return;
  if (!adjoins(more)) {
    Buf* merged = alloc_buf(len_ + n);
    if (len_ != 0) std::memcpy(merged->bytes(), data(), len_);
    std::memcpy(merged->bytes() + len_, more.data(), n);
    release();
    buf_ = merged;
    off_ = 0;
  }
  len_ += n;
  sum_valid_ = false;
}

Payload Payload::concat(std::span<const Payload> parts) {
  const Payload* first = nullptr;
  const Payload* last = nullptr;
  size_t total = 0;
  bool adjacent = true;
  for (const Payload& p : parts) {
    if (p.empty()) continue;
    if (last == nullptr) {
      first = &p;
    } else if (!last->adjoins(p)) {
      adjacent = false;
    }
    last = &p;
    total += p.size();
  }
  if (first == nullptr) return {};
  if (first == last) return *first;
  if (adjacent) {
    Payload out = *first;
    out.len_ = total;
    out.sum_valid_ = false;
    return out;
  }
  Payload out = uninitialized(total);
  uint8_t* at = out.buf_->bytes();
  for (const Payload& p : parts) {
    if (p.empty()) continue;
    std::memcpy(at, p.data(), p.size());
    at += p.size();
  }
  return out;
}

uint8_t* Payload::mutable_data() {
  if (buf_ == nullptr) return nullptr;
  if (buf_->refs != 1) {
    Buf* own = alloc_buf(len_);
    std::memcpy(own->bytes(), data(), len_);
    release();
    buf_ = own;
    off_ = 0;
  }
  sum_valid_ = false;
  return buf_->bytes() + off_;
}

void Payload::freeze() {
  assert((buf_ == nullptr || buf_->refs == 1) && "freeze() of a shared buffer");
  if (buf_ != nullptr) buf_->refs = kFrozenRefs;
}

uint16_t Payload::folded_sum() const {
  if (!sum_valid_) {
    sum_ = ones_complement_sum(span());
    sum_valid_ = true;
  }
  return sum_;
}

bool Payload::operator==(const Payload& o) const {
  if (len_ != o.len_) return false;
  if (buf_ == o.buf_ && off_ == o.off_) return true;
  return len_ == 0 || std::memcmp(data(), o.data(), len_) == 0;
}

}  // namespace mptcp
