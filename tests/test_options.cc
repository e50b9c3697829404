// Segment option storage: the pooled OptionList, inline SACK blocks, the
// segment layout they keep small, and option blocks recycled across
// shard threads.
#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "net/block_pool.h"
#include "net/options.h"
#include "net/segment.h"
#include "net/wire.h"
#include "sim/event_loop.h"
#include "sim/node.h"
#include "sim/shard.h"

namespace mptcp {
namespace {

TEST(SegmentLayout, TcpSegmentStaysWithin96Bytes) {
  // Every hop moves a segment into a link's slot (the segment plus 16 B)
  // and out again, so its size is paid per hop. On perfbench cross_shard,
  // three typed options held inline (a segment of about 300 B) cost 20 %
  // more peak RSS (26.9 -> 32.4 MB) and 7-10 % more CPU than options held
  // out of line; encoded option bytes inline (a 136 B segment) saved no
  // CPU and made the segment's move constructor twice as hot.
  EXPECT_LE(sizeof(TcpSegment), 96u);
  EXPECT_EQ(sizeof(OptionList), sizeof(void*));
}

TEST(OptionList, GrowsThroughSizeClassesKeepingOrder) {
  OptionList l;
  EXPECT_EQ(l.capacity(), 0u);
  EXPECT_TRUE(l.empty());
  l.push_back(TimestampOption{1, 2});
  EXPECT_EQ(l.capacity(), 2u);
  l.push_back(DssOption{7, std::nullopt, false, 0});
  EXPECT_EQ(l.capacity(), 2u);  // a data segment's pair fits the first class
  l.push_back(MssOption{1460});
  EXPECT_EQ(l.capacity(), 8u);
  for (uint16_t i = 0; i < 6; ++i) l.push_back(MssOption{i});
  EXPECT_EQ(l.size(), 9u);
  EXPECT_EQ(l.capacity(), 16u);
  EXPECT_EQ(l[0], (TcpOption{TimestampOption{1, 2}}));
  EXPECT_EQ(l[2], TcpOption{MssOption{1460}});
  EXPECT_EQ(l[8], TcpOption{MssOption{5}});
}

TEST(OptionList, PushBackOfItsOwnElementWhileGrowing) {
  OptionList l = {TimestampOption{3, 4}, MssOption{536}};
  ASSERT_EQ(l.size(), l.capacity());
  l.push_back(l[0]);  // grows: the argument lives in the old block
  ASSERT_EQ(l.size(), 3u);
  EXPECT_EQ(l[2], (TcpOption{TimestampOption{3, 4}}));
}

TEST(OptionList, CopiesOwnTheirBlockAndMovesHandItOver) {
  OptionList a = {TimestampOption{5, 6}, SackOption{{{10, 20}, {30, 40}}}};
  OptionList b = a;
  EXPECT_EQ(a, b);
  EXPECT_NE(a.data(), b.data());
  const TcpOption* block = a.data();
  OptionList c = std::move(a);
  EXPECT_EQ(c.data(), block);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  b = c;
  EXPECT_EQ(b, c);
  b = {MssOption{1}};
  EXPECT_EQ(b.size(), 1u);
  EXPECT_NE(b, c);
}

TEST(OptionList, EraseIfKeepsTheRestInOrder) {
  OptionList l = {MssOption{1}, TimestampOption{2, 3}, MssOption{4},
                  DssOption{5, std::nullopt, false, 0}, MssOption{6}};
  EXPECT_EQ(remove_options<MssOption>(l), 3u);
  ASSERT_EQ(l.size(), 2u);
  EXPECT_NE(find_option<TimestampOption>(l), nullptr);
  EXPECT_EQ(std::get<DssOption>(l[1]).data_ack, 5u);
  EXPECT_EQ(find_option<MssOption>(l), nullptr);
  EXPECT_EQ(l.erase_if([](const TcpOption&) { return true; }), 2u);
  EXPECT_TRUE(l.empty());
}

TEST(SackOption, HoldsAtMostFourBlocksInline) {
  // A SACK option whose length claims five blocks: only four fit in the
  // option space, the rest of what it claims is skipped.
  std::vector<uint8_t> bytes = {5, 42};
  for (uint32_t i = 0; i < 5; ++i) {
    for (const uint32_t v : {100 * i, 100 * i + 50}) {
      bytes.push_back(static_cast<uint8_t>(v >> 24));
      bytes.push_back(static_cast<uint8_t>(v >> 16));
      bytes.push_back(static_cast<uint8_t>(v >> 8));
      bytes.push_back(static_cast<uint8_t>(v));
    }
  }
  bytes.insert(bytes.end(), {2, 4, 0x05, 0xb4});  // MSS after it
  const OptionList opts = parse_options(bytes);
  ASSERT_EQ(opts.size(), 2u);
  const auto* sack = find_option<SackOption>(opts);
  ASSERT_NE(sack, nullptr);
  ASSERT_EQ(sack->blocks.size(), SackOption::Blocks::kMax);
  EXPECT_EQ(sack->blocks[3], (SackOption::Block{300, 350}));
  EXPECT_EQ(opts[1], TcpOption{MssOption{1460}});
}

/// Keeps every delivered segment.
class KeepingSink : public PacketSink {
 public:
  std::vector<TcpSegment> segs;
  void deliver(TcpSegment seg) override { segs.push_back(std::move(seg)); }
};

TcpSegment data_segment(uint32_t i) {
  TcpSegment seg;
  seg.seq = i;
  seg.options.push_back(TimestampOption{i, ~i});
  seg.options.push_back(DssOption{uint64_t{i} << 20, std::nullopt, false, 0});
  return seg;
}

TEST(OptionPool, CrossShardSegmentsRecycleTheirBlocks) {
  // Segments built on one shard's thread cross a channel to another
  // shard, which reads their options and drops them: their blocks join
  // the receiving thread's pool and carry its next segments, whose
  // options must read back intact. Then the same in the other direction.
  constexpr uint32_t kSegs = 200;
  EventLoop loop_a;
  EventLoop loop_b;
  ShardChannel a_to_b(0, 1, loop_b);
  ShardChannel b_to_a(1, 0, loop_a);
  KeepingSink sink_a;
  KeepingSink sink_b;
  a_to_b.set_target(&sink_b);
  b_to_a.set_target(&sink_a);

  // Each shard's thread: take what arrived, check and drop it, then send
  // a fresh batch built from the recycled blocks.
  auto shard_step = [&](EventLoop& loop, ShardChannel& in, KeepingSink& sink,
                        ShardChannel& out, SimTime now, uint32_t base,
                        std::set<const void*>& reused) {
    in.drain();
    loop.run_until(now);
    std::set<const void*> freed;
    for (uint32_t i = 0; i < sink.segs.size(); ++i) {
      const TcpSegment& seg = sink.segs[i];
      const auto* ts = find_option<TimestampOption>(seg.options);
      ASSERT_NE(ts, nullptr);
      EXPECT_EQ(ts->tsecr, ~ts->tsval);
      const auto* dss = find_option<DssOption>(seg.options);
      ASSERT_NE(dss, nullptr);
      EXPECT_EQ(*dss->data_ack, uint64_t{ts->tsval} << 20);
      freed.insert(seg.options.data());
    }
    sink.segs.clear();
    for (uint32_t i = 0; i < kSegs; ++i) {
      TcpSegment seg = data_segment(base + i);
      if (freed.count(seg.options.data()) != 0) {
        reused.insert(seg.options.data());
      }
      out.send(now + kMillisecond, std::move(seg));
    }
  };

  std::set<const void*> reused_a;
  std::set<const void*> reused_b;
  for (int round = 0; round < 4; ++round) {
    const SimTime now = (round + 1) * 10 * kMillisecond;
    std::thread a([&] {
      shard_step(loop_a, b_to_a, sink_a, a_to_b, now, 1000 * round,
                 reused_a);
    });
    a.join();
    std::thread b([&] {
      shard_step(loop_b, a_to_b, sink_b, b_to_a, now, 1000 * round + 500,
                 reused_b);
    });
    b.join();
  }
  if (MPTCP_BLOCK_POOL) {
    EXPECT_GT(reused_a.size(), kSegs / 2);
    EXPECT_GT(reused_b.size(), kSegs / 2);
  }
}

}  // namespace
}  // namespace mptcp
