// Per-thread recycling of fixed-size heap blocks: the idiom behind the
// payload buffer pool (net/payload.cc) and the segment option blocks
// (net/options.cc).
//
// Each thread keeps its own free lists, so recycling needs no
// synchronization. A block freed on another thread than the one that
// allocated it (a segment handed across shards) simply joins the freeing
// thread's list. Every list is bounded, so a transient burst cannot pin
// memory forever, and drains back to the heap when its thread exits.
//
// A recycled block is live memory as far as AddressSanitizer can tell,
// which would hide use-after-free, so the pools are compiled out under
// ASan and every block comes from the instrumented heap.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define MPTCP_BLOCK_POOL 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MPTCP_BLOCK_POOL 0
#endif
#endif
#ifndef MPTCP_BLOCK_POOL
#define MPTCP_BLOCK_POOL 1
#endif

namespace mptcp {

/// A bounded stack of freed blocks of one size class, owned by one thread.
class FreeBlocks {
 public:
  explicit FreeBlocks(size_t max) : max_(max) {}
  ~FreeBlocks() { clear(); }
  FreeBlocks(const FreeBlocks&) = delete;
  FreeBlocks& operator=(const FreeBlocks&) = delete;

  /// A recycled block, or nullptr when the list is empty.
  void* pop() {
    if (blocks_.empty()) return nullptr;
    void* p = blocks_.back();
    blocks_.pop_back();
    return p;
  }
  /// Keeps `p` for reuse; false (and `p` untouched) when the list is full.
  bool push(void* p) {
    if (blocks_.size() >= max_) return false;
    blocks_.push_back(p);
    return true;
  }
  /// Gives every kept block back to the heap.
  void clear() {
    for (void* p : blocks_) ::operator delete(p);
    blocks_.clear();
  }

 private:
  std::vector<void*> blocks_;
  size_t max_;
};

}  // namespace mptcp
