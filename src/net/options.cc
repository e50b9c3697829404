#include "net/options.h"

#include <bit>

#include "net/block_pool.h"

namespace mptcp {

namespace {

// Size classes, in options: data segments and ACKs carry a timestamp and
// a DSS; SYNs carry up to five (MSS, window scale, SACK-permitted,
// timestamp, MP_CAPABLE or MP_JOIN), as do ACKs that add SACK blocks or
// queued MPTCP signals. Larger lists (parsed noise, tests) come from the
// heap unpooled.
constexpr size_t kSmallSlots = 2;
constexpr size_t kLargeSlots = 8;
// Free-list depth limits, in blocks. A block is held by a live segment:
// these bound what a burst of freed segments can pin per thread.
constexpr size_t kSmallMax = 4096;
constexpr size_t kLargeMax = 256;

struct Pool {
  FreeBlocks small{kSmallMax};
  FreeBlocks large{kLargeMax};
};

thread_local Pool g_pool;

}  // namespace

OptionList::Block* OptionList::alloc_block(size_t n) {
  const size_t cap = n <= kSmallSlots   ? kSmallSlots
                     : n <= kLargeSlots ? kLargeSlots
                                        : std::bit_ceil(n);
  void* p = nullptr;
#if MPTCP_BLOCK_POOL
  if (cap == kSmallSlots) {
    p = g_pool.small.pop();
  } else if (cap == kLargeSlots) {
    p = g_pool.large.pop();
  }
#endif
  if (p == nullptr) p = ::operator new(sizeof(Block) + cap * sizeof(TcpOption));
  Block* b = static_cast<Block*>(p);
  b->size = 0;
  b->cap = static_cast<uint32_t>(cap);
  return b;
}

void OptionList::free_block(Block* b) {
#if MPTCP_BLOCK_POOL
  if (b->cap == kSmallSlots && g_pool.small.push(b)) return;
  if (b->cap == kLargeSlots && g_pool.large.push(b)) return;
#endif
  ::operator delete(static_cast<void*>(b));
}

void OptionList::assign(std::span<const TcpOption> opts) {
  clear();
  if (opts.empty()) return;
  if (capacity() < opts.size()) {
    release();
    b_ = alloc_block(opts.size());
  }
  std::uninitialized_copy(opts.begin(), opts.end(), b_->items());
  b_->size = static_cast<uint32_t>(opts.size());
}

}  // namespace mptcp
