// Shared-payload semantics: refcounted views, zero-copy slicing and
// gathers, copy-on-write, and the cached folded checksum -- including the
// end-to-end property that a payload-rewriting middlebox cannot corrupt
// the sender's retransmit buffer through the shared bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "app/bulk_app.h"
#include "app/harness.h"
#include "app/scenario.h"
#include "core/meta_recv.h"
#include "core/mptcp_stack.h"
#include "middlebox/payload_modifier.h"
#include "net/checksum.h"
#include "net/payload.h"
#include "net/segment.h"
#include "sim/event_loop.h"
#include "sim/shard.h"
#include "tcp/tcp_buffers.h"

namespace mptcp {
namespace {

std::vector<uint8_t> pattern(size_t n) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(i * 7 + 3);
  return out;
}

TEST(Payload, CopySharesTheBuffer) {
  Payload a(pattern(100));
  Payload b = a;
  EXPECT_TRUE(a.shares_buffer_with(b));
  EXPECT_EQ(a.buffer_refs(), 2u);
  EXPECT_EQ(a, b);
}

TEST(Payload, SubviewSharesAndSeesTheRightBytes) {
  Payload a(pattern(100));
  Payload s = a.subview(10, 20);
  EXPECT_TRUE(s.shares_buffer_with(a));
  ASSERT_EQ(s.size(), 20u);
  for (size_t i = 0; i < 20; ++i) EXPECT_EQ(s[i], a[10 + i]);
}

TEST(Payload, RemovePrefixAndTruncateAreZeroCopy) {
  Payload a(pattern(50));
  Payload v = a;
  v.remove_prefix(10);
  v.truncate(20);
  EXPECT_TRUE(v.shares_buffer_with(a));
  ASSERT_EQ(v.size(), 20u);
  for (size_t i = 0; i < 20; ++i) EXPECT_EQ(v[i], a[10 + i]);
}

TEST(Payload, MutableDataOnUnsharedBufferDoesNotCopy) {
  Payload a(pattern(10));
  const uint8_t* before = a.data();
  EXPECT_EQ(a.buffer_refs(), 1u);
  uint8_t* w = a.mutable_data();
  EXPECT_EQ(w, before);  // sole owner: written in place
}

TEST(Payload, MutableDataOnSharedBufferCopiesOnWrite) {
  Payload a(pattern(64));
  Payload b = a;
  b.mutable_data()[0] = 0xEE;
  EXPECT_FALSE(a.shares_buffer_with(b));  // b unshared itself
  EXPECT_EQ(a[0], pattern(64)[0]);        // a untouched
  EXPECT_EQ(b[0], 0xEE);
}

TEST(Payload, FoldedSumIsCachedAndMatchesDirectComputation) {
  Payload a(pattern(1460));
  EXPECT_FALSE(a.sum_cached());
  const uint16_t s = a.folded_sum();
  EXPECT_TRUE(a.sum_cached());
  EXPECT_EQ(s, ones_complement_sum(a.span()));
  // Copies inherit the cache; subviews of a partial range do not.
  Payload b = a;
  EXPECT_TRUE(b.sum_cached());
  Payload v = a.subview(1, 10);
  EXPECT_FALSE(v.sum_cached());
  EXPECT_EQ(v.folded_sum(), ones_complement_sum(v.span()));
}

TEST(Payload, MutableDataInvalidatesCachedSum) {
  Payload a(pattern(100));
  const uint16_t before = a.folded_sum();
  ASSERT_TRUE(a.sum_cached());
  a.mutable_data()[50] ^= 0xA5;
  EXPECT_FALSE(a.sum_cached());
  const uint16_t after = a.folded_sum();
  EXPECT_NE(before, after);
  EXPECT_EQ(after, ones_complement_sum(a.span()));
}

TEST(Payload, ConcatSharesSinglePartAndAssemblesMany) {
  const std::vector<uint8_t> bytes = pattern(300);
  Payload whole(bytes);
  const Payload one_part[] = {whole};
  Payload one = Payload::concat(one_part);
  EXPECT_TRUE(one.shares_buffer_with(whole));  // no copy for one fragment

  // Adjacent subviews of one buffer, with empty parts around and between
  // them: one view of that buffer.
  const Payload parts[] = {Payload(), whole.subview(10, 90), Payload(),
                           whole.subview(100, 200), Payload()};
  Payload joined = Payload::concat(parts);
  EXPECT_TRUE(joined.shares_buffer_with(whole));
  EXPECT_EQ(joined.data(), whole.data() + 10);
  EXPECT_EQ(joined, whole.subview(10, 290));
  EXPECT_EQ(joined.folded_sum(), ones_complement_sum(joined.span()));

  // The same bytes from two buffers: assembled fresh.
  const Payload tail(std::span<const uint8_t>(bytes).subspan(100));
  const Payload split[] = {whole.subview(0, 100), Payload(), tail};
  Payload fresh = Payload::concat(split);
  EXPECT_EQ(fresh, whole);
  EXPECT_FALSE(fresh.shares_buffer_with(whole));
  EXPECT_FALSE(fresh.shares_buffer_with(tail));

  EXPECT_TRUE(Payload::concat(std::span<const Payload>{}).empty());
  const Payload only_empty[] = {Payload(), Payload()};
  EXPECT_TRUE(Payload::concat(only_empty).empty());
}

TEST(Payload, ConcatOfNonAdjacentPartsCopiesOnce) {
  const std::vector<uint8_t> bytes = pattern(300);
  const Payload whole(bytes);
  const Payload twin(bytes);  // same bytes, separate buffer
  const auto expect_one_fresh_copy = [&](std::span<const Payload> parts) {
    std::vector<uint8_t> want;
    for (const Payload& p : parts) want.insert(want.end(), p.begin(), p.end());
    const Payload got = Payload::concat(parts);
    EXPECT_EQ(got, Payload(want));
    EXPECT_FALSE(got.shares_buffer_with(whole));
    EXPECT_FALSE(got.shares_buffer_with(twin));
    EXPECT_EQ(got.buffer_refs(), 1u);
  };
  const Payload gap[] = {whole.subview(0, 100), whole.subview(101, 50)};
  expect_one_fresh_copy(gap);
  const Payload reversed[] = {whole.subview(100, 50), whole.subview(0, 100)};
  expect_one_fresh_copy(reversed);
  // Offsets line up, buffers do not.
  const Payload two_buffers[] = {whole.subview(0, 100),
                                 twin.subview(100, 100)};
  expect_one_fresh_copy(two_buffers);
}

TEST(Payload, AppendOfAdjacentViewExtendsInPlace) {
  const Payload whole(pattern(300));
  Payload v = whole.subview(0, 100);
  v.folded_sum();
  v.append(whole.subview(100, 60));
  EXPECT_TRUE(v.shares_buffer_with(whole));
  EXPECT_EQ(v.data(), whole.data());
  EXPECT_EQ(v, whole.subview(0, 160));
  EXPECT_FALSE(v.sum_cached());  // the old sum covered 100 bytes
  EXPECT_EQ(v.folded_sum(), ones_complement_sum(v.span()));

  // A view that does not continue it is copied.
  v.append(whole.subview(200, 10));
  EXPECT_FALSE(v.shares_buffer_with(whole));
  ASSERT_EQ(v.size(), 170u);
  EXPECT_EQ(v.subview(0, 160), whole.subview(0, 160));
  EXPECT_EQ(v.subview(160, 10), whole.subview(200, 10));
}

TEST(PayloadPool, ResetZeroesStatsAndRecyclesHotSizes) {
  Payload::pool_reset();
  EXPECT_EQ(Payload::pool_stats().hits, 0u);
  EXPECT_EQ(Payload::pool_stats().misses, 0u);
  { Payload a(1460, 0x11); }  // small class block, freed to the pool
  Payload b(2048, 0x22);      // same class: recycled when the pool is on
  const Payload::PoolStats& s = Payload::pool_stats();
  // Under sanitizers the pool is compiled out and both counters stay 0;
  // otherwise the first allocation misses and the second reuses its block.
  if (s.misses != 0) {
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_GE(b.buffer_capacity(), 2048u);  // rounded up to the size class
  }
  Payload::pool_reset();
  EXPECT_EQ(Payload::pool_stats().hits, 0u);
  EXPECT_EQ(Payload::pool_stats().misses, 0u);
}

// --- Frozen buffers: the process-wide pattern tape --------------------------

TEST(PayloadFrozen, CopiesSubviewsAndDestructionLeaveTheRefcountAlone) {
  const Payload tape = pattern_payload(0, kPatternTapeBytes);
  ASSERT_TRUE(tape.is_frozen());
  const uint32_t refs = tape.buffer_refs();
  {
    const Payload copy = tape;
    const Payload sub = tape.subview(100, 200);
    Payload assigned;
    assigned = sub;
    const Payload moved = std::move(assigned);
    EXPECT_TRUE(copy.is_frozen());
    EXPECT_TRUE(sub.is_frozen());
    EXPECT_TRUE(moved.shares_buffer_with(tape));
    EXPECT_EQ(tape.buffer_refs(), refs);
  }
  EXPECT_EQ(tape.buffer_refs(), refs);
  EXPECT_TRUE(tape.is_frozen());
}

TEST(PayloadFrozen, MutableDataCopiesAndLeavesTheTapeIntact) {
  Payload v = pattern_payload(1000, 100);
  ASSERT_TRUE(v.is_frozen());
  const uint8_t* tape_bytes = v.data();
  uint8_t* w = v.mutable_data();
  EXPECT_NE(w, tape_bytes);  // copied on write
  w[0] = static_cast<uint8_t>(~pattern_byte(1000));
  EXPECT_FALSE(v.is_frozen());
  EXPECT_EQ(v.buffer_refs(), 1u);
  for (size_t i = 1; i < v.size(); ++i) EXPECT_EQ(v[i], pattern_byte(1000 + i));
  EXPECT_EQ(tape_bytes[0], pattern_byte(1000));
  EXPECT_EQ(pattern_payload(1000, 1)[0], pattern_byte(1000));
}

TEST(PayloadFrozen, FoldedSumStaysPerView) {
  const Payload a = pattern_payload(0, 1460);
  const Payload b = pattern_payload(1460, 1460);
  ASSERT_TRUE(a.shares_buffer_with(b));
  EXPECT_EQ(a.folded_sum(), ones_complement_sum(a.span()));
  EXPECT_FALSE(b.sum_cached());  // a's sum is not the shared buffer's
  EXPECT_EQ(b.folded_sum(), ones_complement_sum(b.span()));
  EXPECT_FALSE(pattern_payload(0, 1460).sum_cached());
}

/// Keeps every delivered segment.
class CapturingSink : public PacketSink {
 public:
  std::vector<TcpSegment> segs;
  void deliver(TcpSegment seg) override { segs.push_back(std::move(seg)); }
};

TEST(PayloadFrozen, MergedTapeViewStaysFrozenAndCrossesShardsUncopied) {
  EventLoop loop;
  ShardChannel ch(0, 1, loop);
  CapturingSink sink;
  ch.set_target(&sink);

  // The producer shard joins two adjacent tape views (a send-buffer slice
  // straddling two writes) and hands the segment across.
  bool merged_frozen = false;
  std::thread producer([&] {
    const Payload parts[] = {pattern_payload(1000, 1460),
                             pattern_payload(2460, 1460)};
    TcpSegment seg;
    seg.payload = Payload::concat(parts);
    merged_frozen = seg.payload.is_frozen();
    ch.send(kMillisecond, std::move(seg));
  });
  producer.join();
  EXPECT_TRUE(merged_frozen);

  ASSERT_EQ(ch.drain(), 1u);
  loop.run_until(2 * kMillisecond);
  ASSERT_EQ(sink.segs.size(), 1u);
  const Payload& got = sink.segs[0].payload;
  EXPECT_TRUE(got.is_frozen());
  EXPECT_EQ(got.data(), pattern_payload(1000, 1).data());  // not detached
  ASSERT_EQ(got.size(), 2920u);
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], pattern_byte(1000 + i));
  }
}

TEST(PayloadFrozen, TwoThreadsCopyAndDropViewsAtOnce) {
  // Both threads may build the tape (first use) and then make and drop
  // views of it concurrently: its refcount is never written.
  const auto churn = [] {
    uint64_t sum = 0;
    for (size_t i = 0; i < 20000; ++i) {
      const Payload view = pattern_payload(i % 4096, 1460);
      const Payload copy = view.subview(10, 100);
      sum += copy[0];
    }
    return sum;
  };
  uint64_t other = 0;
  std::thread peer([&] { other = churn(); });
  const uint64_t mine = churn();
  peer.join();
  EXPECT_EQ(mine, other);
  // Any write to the sentinel refcount would have unfrozen the buffer.
  EXPECT_TRUE(pattern_payload(0, 1).is_frozen());
}

// --- The COW property the retransmit path depends on ------------------------

TEST(PayloadCow, ModifierRewriteLeavesSendBufferIntact) {
  // A segment carved from the send buffer shares its bytes; a
  // payload-rewriting middlebox (ALG) must trigger copy-on-write rather
  // than corrupt the copy the sender would retransmit from.
  SendBuffer snd(0);
  const std::vector<uint8_t> original = pattern(1000);
  snd.append_shared(Payload(original), original.size());

  TcpSegment seg;
  seg.tuple = {{IpAddr(10, 0, 0, 1), 1}, {IpAddr(10, 0, 0, 2), 2}};
  seg.payload = snd.slice_out(0, 500);
  const uint16_t clean_sum = seg.payload.folded_sum();
  ASSERT_TRUE(seg.payload.shares_buffer_with(snd.slice_out(0, 500)));

  PayloadModifier alg;
  CapturingSink sink;
  alg.set_downstream(&sink);
  alg.deliver(std::move(seg));
  ASSERT_EQ(alg.segments_modified(), 1u);
  ASSERT_EQ(sink.segs.size(), 1u);

  const Payload& mangled = sink.segs[0].payload;
  EXPECT_EQ(mangled[250], static_cast<uint8_t>(original[250] ^ 0xA5));
  EXPECT_NE(mangled.folded_sum(), clean_sum);  // recomputed post-rewrite

  // The retransmission reads the same range again: bytes and cached sum
  // are those of the original data, not the middlebox's rewrite.
  const Payload rtx = snd.slice_out(0, 500);
  EXPECT_FALSE(rtx.shares_buffer_with(mangled));
  EXPECT_EQ(rtx.folded_sum(), clean_sum);
  for (size_t i = 0; i < 500; ++i) {
    ASSERT_EQ(rtx[i], original[i]) << "retransmit buffer corrupted at " << i;
  }
}

TEST(PayloadCow, MiddleboxRewriteCannotReachAnyQueueSharingTheBytes) {
  // One wire payload fans out into every structure that can hold it at
  // once on the zero-copy receive path: the sender's retransmit buffer,
  // a subflow reassembly queue, the connection-level out-of-order queue,
  // and the in-order app queue. A middlebox rewriting the in-flight copy
  // must not be visible through any of them.
  const std::vector<uint8_t> original = pattern(1460);
  Payload wire{std::span<const uint8_t>(original)};

  SendBuffer snd(1000);
  ASSERT_EQ(snd.append_shared(wire, size_t{1} << 20), wire.size());
  ReassemblyQueue reasm;
  reasm.insert(5000, wire);
  MetaReceiveQueue meta(RecvAlgo::kShortcuts);
  meta.insert(9000, wire, /*subflow_id=*/0, /*floor=*/0);
  RecvQueue app;
  app.push(wire);

  TcpSegment seg;
  seg.tuple = {{IpAddr(10, 0, 0, 1), 1}, {IpAddr(10, 0, 0, 2), 2}};
  seg.payload = wire;
  PayloadModifier alg;
  CapturingSink sink;
  alg.set_downstream(&sink);
  alg.deliver(std::move(seg));
  ASSERT_EQ(alg.segments_modified(), 1u);
  const Payload& mangled = sink.segs[0].payload;
  EXPECT_NE(mangled[730], original[730]);

  const Payload want{std::span<const uint8_t>(original)};
  EXPECT_EQ(snd.slice_out(1000, 1460), want);
  auto popped = reasm.pop_ready(5000);
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->second, want);
  auto chunk = meta.pop_ready(9000);
  ASSERT_TRUE(chunk.has_value());
  EXPECT_EQ(chunk->bytes, want);
  std::vector<uint8_t> out(original.size());
  ASSERT_EQ(app.read(out), original.size());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), original.begin()));
  EXPECT_EQ(wire, want);  // the shared view itself is untouched
}

// --- End to end: gathers of adjacent views stay views ----------------------

TEST(PayloadPool, ChecksummedTwoPathTransferGathersWithoutCopies) {
  // A 2 MB transfer over WiFi + 3G with DSS checksums on (the default).
  // The receiver holds each multi-segment mapping as fragments and joins
  // them on completion; senders join slices that straddle two writes.
  // Every such gather joins adjacent views of the pattern tape, so none
  // allocates (the run makes no pool allocation at all). A gather that
  // copies takes a pooled block of its own (11.7 KB for an 8-segment
  // mapping); copying all of them makes 644 pool allocations on this
  // transfer, far past the bound below. Under ASan the pool is compiled
  // out and both counts are zero.
  constexpr uint64_t kBytes = 2 * 1000 * 1000;
  TwoHostRig rig({wifi_path(), threeg_path()});  // resets the pool stats
  MptcpConfig cfg;
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 1024 * 1024;
  MptcpStack client_stack(rig.client(), cfg);
  MptcpStack server_stack(rig.server(), cfg);
  MptcpConnection* server_conn = nullptr;
  std::unique_ptr<BulkReceiver> receiver;
  server_stack.listen(80, [&](MptcpConnection& c) {
    server_conn = &c;
    receiver = std::make_unique<BulkReceiver>(c);
  });
  MptcpConnection& client_conn = client_stack.connect(
      rig.client_addr(0), Endpoint{rig.server_addr(), 80});
  BulkSender sender(client_conn, kBytes);
  rig.loop().run_until(10 * kSecond);

  ASSERT_NE(receiver, nullptr);
  EXPECT_TRUE(server_conn->dss_checksum_enabled());
  EXPECT_EQ(server_conn->mode(), MptcpMode::kMptcp);
  EXPECT_EQ(client_conn.subflow_count(), 2u);
  EXPECT_EQ(receiver->bytes_received(), kBytes);
  EXPECT_TRUE(receiver->pattern_ok());
  EXPECT_TRUE(receiver->saw_eof());
  const Payload::PoolStats& pool = Payload::pool_stats();
  EXPECT_LT(pool.hits + pool.misses, 64u);
}

}  // namespace
}  // namespace mptcp
