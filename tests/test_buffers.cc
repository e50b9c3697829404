// SendBuffer and ReassemblyQueue tests, including randomized
// property-style checks of reassembly under arbitrary arrival orders.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/rng.h"
#include "tcp/tcp_buffers.h"

namespace mptcp {
namespace {

// --- SendBuffer ----------------------------------------------------------------

TEST(SendBuffer, AppendRespectsCapacity) {
  SendBuffer buf(1000);
  const Payload data(100, 7);
  EXPECT_EQ(buf.append_shared(data, 150), 100u);
  EXPECT_EQ(buf.append_shared(data, 150), 50u);
  EXPECT_EQ(buf.append_shared(data, 150), 0u);
  EXPECT_EQ(buf.size(), 150u);
  EXPECT_EQ(buf.end_seq(), 1150u);
}

TEST(SendBuffer, SliceOutReturnsCorrectRange) {
  SendBuffer buf(500);
  std::vector<uint8_t> data(26);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>('a' + i);
  }
  buf.append_shared(Payload(data), 100);
  EXPECT_EQ(buf.slice_out(505, 3), (Payload{'f', 'g', 'h'}));
}

TEST(SendBuffer, SliceOutWithinOneChunkSharesTheBuffer) {
  SendBuffer buf(0);
  buf.append_shared(Payload(100, 9), 100);
  const Payload a = buf.slice_out(10, 20);
  const Payload b = buf.slice_out(30, 20);
  EXPECT_TRUE(a.shares_buffer_with(b));  // both views of the one chunk
}

TEST(SendBuffer, SliceOutAcrossChunksAssembles) {
  SendBuffer buf(0);
  std::vector<uint8_t> data(50);
  for (size_t i = 0; i < 50; ++i) data[i] = static_cast<uint8_t>(i);
  buf.append_shared(Payload(std::span(data).first(20)), 100);    // [0,20)
  buf.append_shared(Payload(std::span(data).subspan(20)), 100);  // [20,50)
  const Payload out = buf.slice_out(15, 10);
  ASSERT_EQ(out.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i], static_cast<uint8_t>(15 + i));
  }
}

TEST(SendBuffer, SliceOutAcrossAdjacentChunksSharesTheBuffer) {
  // Writes that are consecutive views of one buffer (pattern-tape writes)
  // slice out as one view of it, even across chunk boundaries.
  std::vector<uint8_t> data(100);
  for (size_t i = 0; i < 100; ++i) data[i] = static_cast<uint8_t>(i);
  const Payload backing(data);
  SendBuffer buf(0);
  buf.append_shared(backing.subview(0, 20), 100);   // [0,20)
  buf.append_shared(backing.subview(20, 30), 100);  // [20,50)
  buf.append_shared(backing.subview(50, 50), 100);  // [50,100)
  const Payload out = buf.slice_out(15, 60);
  EXPECT_TRUE(out.shares_buffer_with(backing));
  EXPECT_EQ(out, backing.subview(15, 60));
}

TEST(SendBuffer, FreeThroughAdvancesBase) {
  SendBuffer buf(0);
  std::vector<uint8_t> data(100);
  for (size_t i = 0; i < 100; ++i) data[i] = static_cast<uint8_t>(i);
  buf.append_shared(Payload(data), 100);
  buf.free_through(40);
  EXPECT_EQ(buf.base_seq(), 40u);
  EXPECT_EQ(buf.size(), 60u);
  EXPECT_EQ(buf.slice_out(40, 2), (Payload{40, 41}));
  // Freeing below base is a no-op.
  buf.free_through(10);
  EXPECT_EQ(buf.base_seq(), 40u);
}

// --- ReassemblyQueue -------------------------------------------------------------

Payload fill(uint64_t seq, size_t n) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(seq + i);
  return Payload(out);
}

/// Pops everything that is ready and checks content correctness.
uint64_t drain_and_verify(ReassemblyQueue& q, uint64_t rcv_nxt) {
  while (auto ready = q.pop_ready(rcv_nxt)) {
    EXPECT_EQ(ready->first, rcv_nxt);
    for (size_t i = 0; i < ready->second.size(); ++i) {
      EXPECT_EQ(ready->second[i], static_cast<uint8_t>(rcv_nxt + i));
    }
    rcv_nxt += ready->second.size();
  }
  return rcv_nxt;
}

TEST(ReassemblyQueue, InOrderChunksPopImmediately) {
  ReassemblyQueue q;
  q.insert(0, fill(0, 10));
  EXPECT_EQ(drain_and_verify(q, 0), 10u);
  EXPECT_TRUE(q.empty());
}

TEST(ReassemblyQueue, GapHoldsDataUntilFilled) {
  ReassemblyQueue q;
  q.insert(10, fill(10, 10));
  EXPECT_FALSE(q.pop_ready(0).has_value());
  q.insert(0, fill(0, 10));
  EXPECT_EQ(drain_and_verify(q, 0), 20u);
}

TEST(ReassemblyQueue, OverlapsAreTrimmedFirstArrivalWins) {
  ReassemblyQueue q;
  q.insert(5, fill(5, 10));   // [5,15)
  q.insert(0, fill(0, 10));   // [0,10) -> tail overlaps, trimmed to [0,5)
  q.insert(12, fill(12, 10)); // [12,22) -> head trimmed to [15,22)
  EXPECT_EQ(drain_and_verify(q, 0), 22u);
  EXPECT_EQ(q.ooo_bytes(), 0u);
}

TEST(ReassemblyQueue, ChunkSpanningExistingChunkIsSplit) {
  ReassemblyQueue q;
  q.insert(10, fill(10, 5));  // [10,15)
  q.insert(0, fill(0, 30));   // spans it: [0,10) + [15,30)
  EXPECT_EQ(drain_and_verify(q, 0), 30u);
}

TEST(ReassemblyQueue, ExactDuplicateIsDropped) {
  ReassemblyQueue q;
  q.insert(10, fill(10, 10));
  const size_t before = q.ooo_bytes();
  q.insert(10, fill(10, 10));
  EXPECT_EQ(q.ooo_bytes(), before);
}

TEST(ReassemblyQueue, SackRangesMergeContiguousChunks) {
  ReassemblyQueue q;
  q.insert(10, fill(10, 5));
  q.insert(15, fill(15, 5));  // contiguous with previous
  q.insert(30, fill(30, 5));
  const auto ranges = q.sack_ranges(3);
  ASSERT_EQ(ranges.size(), 2u);
  // Most recent arrival ([30,35)) first, per RFC 2018.
  EXPECT_EQ(ranges[0], (std::pair<uint64_t, uint64_t>{30, 35}));
  EXPECT_EQ(ranges[1], (std::pair<uint64_t, uint64_t>{10, 20}));
}

TEST(ReassemblyQueue, SackRangesRespectLimit) {
  ReassemblyQueue q;
  for (uint64_t i = 0; i < 10; ++i) q.insert(i * 100, fill(i * 100, 10));
  EXPECT_EQ(q.sack_ranges(3).size(), 3u);
}

/// Property: any permutation of segments reassembles to the exact stream.
class ReassemblyShuffle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReassemblyShuffle, RandomArrivalOrderReassemblesExactly) {
  Rng rng(GetParam());
  constexpr size_t kSegments = 200;
  constexpr size_t kSegLen = 17;  // deliberately odd
  std::vector<uint64_t> seqs;
  for (size_t i = 0; i < kSegments; ++i) seqs.push_back(i * kSegLen);
  // Fisher-Yates with our deterministic RNG.
  for (size_t i = seqs.size() - 1; i > 0; --i) {
    std::swap(seqs[i], seqs[rng.next_below(i + 1)]);
  }
  ReassemblyQueue q;
  uint64_t rcv_nxt = 0;
  for (uint64_t seq : seqs) {
    // Occasionally deliver duplicates and overlapping extents.
    q.insert(seq, fill(seq, kSegLen));
    if (rng.chance(0.3)) q.insert(seq, fill(seq, kSegLen));
    if (rng.chance(0.2) && seq >= kSegLen) {
      q.insert(seq - 5, fill(seq - 5, 10));
    }
    rcv_nxt = drain_and_verify(q, rcv_nxt);
  }
  EXPECT_EQ(rcv_nxt, kSegments * kSegLen);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.ooo_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReassemblyShuffle,
                         ::testing::Range<uint64_t>(1, 21));

// --- RecvQueue -----------------------------------------------------------------

std::vector<uint8_t> seq_bytes(size_t start, size_t n) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(start + i);
  return out;
}

TEST(RecvQueue, ReadCrossesChunkBoundaries) {
  RecvQueue q;
  q.push(Payload(seq_bytes(0, 10)));
  q.push(Payload(seq_bytes(10, 10)));
  q.push(Payload(seq_bytes(20, 10)));
  EXPECT_EQ(q.size(), 30u);
  uint8_t buf[17];
  ASSERT_EQ(q.read(buf), 17u);
  for (size_t i = 0; i < 17; ++i) EXPECT_EQ(buf[i], i);
  EXPECT_EQ(q.size(), 13u);
  ASSERT_EQ(q.read(buf), 13u);  // short read drains the rest
  for (size_t i = 0; i < 13; ++i) EXPECT_EQ(buf[i], 17 + i);
  EXPECT_TRUE(q.empty());
}

TEST(RecvQueue, PeekViewsExposeStoredBytesWithoutCopy) {
  RecvQueue q;
  Payload a(seq_bytes(0, 8));
  Payload b(seq_bytes(8, 8));
  q.push(a);
  q.push(b);
  std::span<const uint8_t> views[4];
  ASSERT_EQ(q.peek_views(views), 2u);
  EXPECT_EQ(views[0].data(), a.data());  // the queue's chunk IS the payload
  EXPECT_EQ(views[1].data(), b.data());
  EXPECT_EQ(views[0].size() + views[1].size(), q.size());
  // A smaller destination gets the front views only.
  std::span<const uint8_t> one[1];
  ASSERT_EQ(q.peek_views(one), 1u);
  EXPECT_EQ(one[0].data(), a.data());
}

TEST(RecvQueue, ConsumeDropsPartialChunksAndKeepsOrder) {
  RecvQueue q;
  q.push(Payload(seq_bytes(0, 10)));
  q.push(Payload(seq_bytes(10, 10)));
  q.consume(4);  // into the first chunk
  EXPECT_EQ(q.size(), 16u);
  uint8_t buf[16];
  ASSERT_EQ(q.read(buf), 16u);
  for (size_t i = 0; i < 16; ++i) EXPECT_EQ(buf[i], 4 + i);
  q.consume(0);  // no-op on empty
  EXPECT_TRUE(q.empty());
}

TEST(RecvQueue, EmptyPushIsIgnoredAndClearResets) {
  RecvQueue q;
  q.push(Payload());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.chunk_count(), 0u);
  q.push(Payload(seq_bytes(0, 5)));
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

}  // namespace
}  // namespace mptcp
