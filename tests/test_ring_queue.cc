// RingQueue: FIFO order across wraparound and resizes, the capacity
// policy (lazy first allocation, doubling, halving to a floor, clear()
// releasing storage), push_front, random-access iteration, prompt
// destruction on pop_front, and move semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "net/payload.h"
#include "net/ring_queue.h"

namespace mptcp {
namespace {

constexpr size_t kFloor = RingQueue<int>::kMinCapacity;

std::vector<int> drain(RingQueue<int>& q) {
  std::vector<int> out;
  while (!q.empty()) {
    out.push_back(q.front());
    q.pop_front();
  }
  return out;
}

TEST(RingQueue, FifoOrderAcrossWraparound) {
  RingQueue<int> q;
  int next_in = 0;
  int next_out = 0;
  // Keep 5 elements live while the head walks around the 8 slots many
  // times: every push past the end lands at the front of the array.
  for (; next_in < 5; ++next_in) q.push_back(next_in);
  for (int round = 0; round < 50; ++round) {
    EXPECT_EQ(q.front(), next_out);
    q.pop_front();
    ++next_out;
    q.push_back(next_in++);
    EXPECT_EQ(q.capacity(), kFloor);
    EXPECT_EQ(q.back(), next_in - 1);
  }
  for (int v : drain(q)) EXPECT_EQ(v, next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(RingQueue, GrowsWhileHeadIsWrapped) {
  RingQueue<int> q;
  for (int i = 0; i < 6; ++i) q.push_back(i);
  for (int i = 0; i < 5; ++i) q.pop_front();
  // Head is at slot 5; these wrap past the end of the 8-slot array and
  // the ninth live element forces a doubling with the head wrapped.
  for (int i = 6; i < 14; ++i) q.push_back(i);
  EXPECT_EQ(q.size(), 9u);
  EXPECT_EQ(q.capacity(), 2 * kFloor);
  for (size_t i = 0; i < q.size(); ++i) {
    EXPECT_EQ(q[i], static_cast<int>(i + 5));
  }
  std::vector<int> want;
  for (int i = 5; i < 14; ++i) want.push_back(i);
  EXPECT_EQ(drain(q), want);
}

TEST(RingQueue, HalvesUnderAQuarterFullButNotBelowFloor) {
  RingQueue<int> q;
  for (int i = 0; i < 64; ++i) q.push_back(i);
  EXPECT_EQ(q.capacity(), 64u);
  // 64 slots: stays until fewer than 16 remain.
  while (q.size() > 16) q.pop_front();
  EXPECT_EQ(q.capacity(), 64u);
  q.pop_front();  // 15 < 64/4
  EXPECT_EQ(q.capacity(), 32u);
  while (q.size() > 8) q.pop_front();
  EXPECT_EQ(q.capacity(), 32u);
  q.pop_front();  // 7 < 32/4
  EXPECT_EQ(q.capacity(), 16u);
  q.pop_front();
  q.pop_front();
  q.pop_front();  // 4 is not under 16/4
  EXPECT_EQ(q.capacity(), 16u);
  q.pop_front();  // 3 < 16/4
  EXPECT_EQ(q.capacity(), kFloor);
  EXPECT_EQ(q.front(), 61);
  while (!q.empty()) q.pop_front();
  EXPECT_EQ(q.capacity(), kFloor);  // the floor survives emptying
}

TEST(RingQueue, NoStorageBeforeFirstPushAndAfterClear) {
  RingQueue<std::string> q;
  EXPECT_EQ(q.capacity(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.begin(), q.end());
  q.push_back("a");
  EXPECT_EQ(q.capacity(), kFloor);
  for (int i = 0; i < 20; ++i) q.push_back(std::to_string(i));
  q.clear();
  EXPECT_EQ(q.capacity(), 0u);
  EXPECT_EQ(q.size(), 0u);
  q.push_back("b");  // usable again after clear()
  EXPECT_EQ(q.front(), "b");
  EXPECT_EQ(q.capacity(), kFloor);
}

TEST(RingQueue, PushFront) {
  RingQueue<int> q;
  q.push_front(1);  // into an unallocated ring
  q.push_back(2);
  q.push_front(0);  // wraps the head to the last slot
  EXPECT_EQ(q.front(), 0);
  EXPECT_EQ(q.back(), 2);
  for (int i = 1; i <= 10; ++i) q.push_front(-i);  // grows from the front
  EXPECT_EQ(q.size(), 13u);
  std::vector<int> want;
  for (int i = -10; i <= 2; ++i) want.push_back(i);
  EXPECT_EQ(drain(q), want);
}

TEST(RingQueue, PushOfOwnElementSurvivesGrowth) {
  RingQueue<std::string> q;
  for (size_t i = 0; i < kFloor; ++i) {
    q.push_back(std::string(32, static_cast<char>('a' + i)));
  }
  q.push_back(q.front());  // full: the argument lives in the old array
  q.push_front(q.back());
  EXPECT_EQ(q.size(), kFloor + 2);
  EXPECT_EQ(q.front(), std::string(32, 'a'));
  EXPECT_EQ(q.back(), std::string(32, 'a'));
}

TEST(RingQueue, RandomAccessIteratorsWorkWithAlgorithmsAndRangeFor) {
  RingQueue<int> q;
  // Wrap the head so the sorted run straddles the end of the array.
  for (int i = 0; i < 6; ++i) q.push_back(-1);
  for (int i = 0; i < 6; ++i) q.pop_front();
  for (int i = 0; i < 7; ++i) q.push_back(i * 10);  // 0, 10, ..., 60
  const RingQueue<int>& cq = q;
  // Same search SendBuffer::find_chunk does: last element <= key.
  auto it = std::upper_bound(cq.begin(), cq.end(), 35);
  ASSERT_NE(it, cq.begin());
  EXPECT_EQ(*std::prev(it), 30);
  EXPECT_EQ(it - cq.begin(), 4);
  EXPECT_EQ(std::upper_bound(cq.begin(), cq.end(), 60), cq.end());
  EXPECT_EQ(cq.end() - cq.begin(), 7);
  EXPECT_EQ(cq.begin()[6], 60);
  EXPECT_TRUE(cq.begin() < cq.end());

  int sum = 0;
  for (int v : cq) sum += v;
  EXPECT_EQ(sum, 210);
  for (int& v : q) v += 1;  // mutable iteration
  EXPECT_EQ(q.front(), 1);
  EXPECT_EQ(q.back(), 61);
  RingQueue<int>::const_iterator converted = q.begin();
  EXPECT_EQ(*converted, 1);
}

struct Counted {
  static int live;
  int v = 0;
  explicit Counted(int x) : v(x) { ++live; }
  Counted(Counted&& o) noexcept : v(o.v) { ++live; }
  Counted(const Counted& o) : v(o.v) { ++live; }
  ~Counted() { --live; }
};
int Counted::live = 0;

TEST(RingQueue, PopFrontDestroysTheElementAtOnce) {
  Counted::live = 0;
  {
    RingQueue<Counted> q;
    for (int i = 0; i < 20; ++i) q.emplace_back(i);  // through two growths
    EXPECT_EQ(Counted::live, 20);
    q.pop_front();
    EXPECT_EQ(Counted::live, 19);
    while (q.size() > 2) q.pop_front();  // through the shrinks
    EXPECT_EQ(Counted::live, 2);
    EXPECT_EQ(q.front().v, 18);
  }
  EXPECT_EQ(Counted::live, 0);  // the destructor frees the rest

  const std::vector<uint8_t> bytes(100, 7);
  Payload p(bytes);
  RingQueue<Payload> pq;
  pq.push_back(p);
  pq.push_back(p.subview(10, 10));
  EXPECT_EQ(p.buffer_refs(), 3u);
  pq.pop_front();
  EXPECT_EQ(p.buffer_refs(), 2u);
  pq.pop_front();
  EXPECT_EQ(p.buffer_refs(), 1u);  // no longer shared
}

TEST(RingQueue, MovedFromRingIsEmptyAndReusable) {
  RingQueue<std::string> a;
  for (int i = 0; i < 10; ++i) a.push_back(std::to_string(i));
  RingQueue<std::string> b = std::move(a);
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(b.front(), "0");
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.capacity(), 0u);
  a.push_back("again");
  EXPECT_EQ(a.front(), "again");

  RingQueue<std::string> c;
  c.push_back("old");
  c = std::move(b);
  EXPECT_EQ(c.size(), 10u);
  EXPECT_EQ(c.back(), "9");
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.capacity(), 0u);
  b.push_front("x");
  EXPECT_EQ(b.front(), "x");
}

}  // namespace
}  // namespace mptcp
