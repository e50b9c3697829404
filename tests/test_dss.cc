// Data-sequence mapping bookkeeping and DSS checksum behaviour
// (sections 3.3.4-3.3.6).
#include <gtest/gtest.h>

#include "core/dss.h"
#include "net/rng.h"

namespace mptcp {
namespace {

std::vector<uint8_t> fill(uint64_t seed, size_t n) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint8_t>(seed + i * 3);
  return out;
}

MappingRecord make_rec(uint64_t ssn, uint64_t dsn, uint32_t len,
                       const std::vector<uint8_t>* payload = nullptr) {
  MappingRecord rec;
  rec.ssn_begin = ssn;
  rec.ssn_rel = static_cast<uint32_t>(ssn & 0xffffffff);
  rec.dsn = dsn;
  rec.length = len;
  if (payload != nullptr) {
    rec.checksum = dss_checksum(dsn, rec.ssn_rel,
                                static_cast<uint16_t>(len), *payload);
  }
  return rec;
}

// --- checksum ----------------------------------------------------------------

TEST(DssChecksum, DetectsSingleBitFlip) {
  auto payload = fill(1, 1000);
  const uint16_t c = dss_checksum(500, 7, 1000, payload);
  payload[400] ^= 0x01;
  EXPECT_NE(dss_checksum(500, 7, 1000, payload), c);
}

TEST(DssChecksum, CoversPseudoHeaderFields) {
  const auto payload = fill(1, 100);
  const uint16_t base = dss_checksum(500, 7, 100, payload);
  EXPECT_NE(dss_checksum(501, 7, 100, payload), base);
  EXPECT_NE(dss_checksum(500, 8, 100, payload), base);
  EXPECT_NE(dss_checksum(500, 7, 99, {payload.data(), 99}), base);
}

TEST(DssChecksum, PartialFormMatchesDirectForm) {
  const auto payload = fill(9, 777);
  EXPECT_EQ(dss_checksum(123, 456, 777, payload),
            dss_checksum_from_partial(123, 456, 777,
                                      ones_complement_sum(payload)));
}

// --- SenderMappings ------------------------------------------------------------

TEST(SenderMappings, FindLocatesCoveringMapping) {
  SenderMappings m;
  m.add(make_rec(1000, 50000, 500));
  m.add(make_rec(1500, 90000, 300));
  ASSERT_NE(m.find(1000), nullptr);
  EXPECT_EQ(m.find(1000)->dsn, 50000u);
  ASSERT_NE(m.find(1499), nullptr);
  EXPECT_EQ(m.find(1499)->dsn_for(1499), 50499u);
  ASSERT_NE(m.find(1500), nullptr);
  EXPECT_EQ(m.find(1500)->dsn, 90000u);
  EXPECT_EQ(m.find(999), nullptr);
  EXPECT_EQ(m.find(1800), nullptr);
}

TEST(SenderMappings, ReleaseBelowDropsFullyAckedOnly) {
  SenderMappings m;
  m.add(make_rec(1000, 1, 500));
  m.add(make_rec(1500, 501, 500));
  m.release_below(1500);
  EXPECT_EQ(m.find(1000), nullptr);
  EXPECT_NE(m.find(1600), nullptr);
  // Partially acked mapping must be retained (retransmission needs it).
  m.release_below(1700);
  EXPECT_NE(m.find(1600), nullptr);
}

TEST(SenderMappings, FindAfterPartialReleasesAcrossManyMappings) {
  // Forty back-to-back mappings of uneven length, released in steps that
  // stop both on mapping boundaries and inside mappings: every byte still
  // held finds its own mapping, nothing released is found.
  SenderMappings m;
  struct Span {
    uint64_t begin;
    uint32_t len;
    uint64_t dsn;
  };
  std::vector<Span> spans;
  uint64_t ssn = 1000;
  for (uint32_t i = 0; i < 40; ++i) {
    const uint32_t len = 100 + 37 * (i % 9);
    const uint64_t dsn = 900000 + 7 * ssn;
    spans.push_back({ssn, len, dsn});
    m.add(make_rec(ssn, dsn, len));
    ssn += len;
  }
  const uint64_t end = ssn;
  for (const uint64_t cut :
       {uint64_t{1050}, spans[3].begin, spans[3].begin + 1,
        spans[17].begin + spans[17].len - 1, spans[30].begin, end - 1, end}) {
    m.release_below(cut);
    size_t held = 0;
    for (const Span& sp : spans) {
      const uint64_t last = sp.begin + sp.len - 1;
      if (last < cut) {
        EXPECT_EQ(m.find(sp.begin), nullptr) << "cut " << cut;
        EXPECT_EQ(m.find(last), nullptr) << "cut " << cut;
        continue;
      }
      ++held;
      for (const uint64_t at : {sp.begin, sp.begin + sp.len / 2, last}) {
        const MappingRecord* rec = m.find(at);
        ASSERT_NE(rec, nullptr) << "cut " << cut << " at " << at;
        EXPECT_EQ(rec->ssn_begin, sp.begin);
        EXPECT_EQ(rec->dsn_for(at), sp.dsn + (at - sp.begin));
      }
    }
    EXPECT_EQ(m.size(), held) << "cut " << cut;
    EXPECT_EQ(m.find(end), nullptr);
  }
}

// --- ReceiverMappings ------------------------------------------------------------

TEST(ReceiverMappings, InOrderFeedDeliversMappedData) {
  ReceiverMappings m;
  const auto payload = fill(0, 1000);
  m.add(make_rec(5000, 777000, 1000, &payload));
  auto out = m.feed(5000, Payload(payload), /*verify=*/true);
  ASSERT_EQ(out.deliver.size(), 1u);
  EXPECT_EQ(out.deliver[0].first, 777000u);
  EXPECT_EQ(out.deliver[0].second, Payload(payload));
  EXPECT_TRUE(out.checksum_failures.empty());
}

TEST(ReceiverMappings, SegmentedFeedHeldUntilMappingCompletes) {
  ReceiverMappings m;
  const auto payload = fill(0, 3000);
  m.add(make_rec(1000, 50, 3000, &payload));
  auto out1 = m.feed(1000, Payload({payload.data(), 1460}), true);
  EXPECT_TRUE(out1.deliver.empty());
  EXPECT_EQ(m.held_bytes(), 1460u);
  auto out2 = m.feed(2460, Payload({payload.data() + 1460, 1540}), true);
  ASSERT_EQ(out2.deliver.size(), 1u);
  EXPECT_EQ(out2.deliver[0].second.size(), 3000u);
  EXPECT_EQ(m.held_bytes(), 0u);
}

TEST(ReceiverMappings, CorruptedMappingReportedNotDelivered) {
  ReceiverMappings m;
  auto payload = fill(0, 500);
  m.add(make_rec(1000, 9000, 500, &payload));
  payload[100] ^= 0xff;  // middlebox modification
  auto out = m.feed(1000, Payload(payload), true);
  EXPECT_TRUE(out.deliver.empty());
  ASSERT_EQ(out.checksum_failures.size(), 1u);
  EXPECT_EQ(out.checksum_failures[0].first.dsn, 9000u);
  // The modified bytes ride along for fallback delivery.
  EXPECT_EQ(out.checksum_failures[0].second.size(), 500u);
}

TEST(ReceiverMappings, ThreeFragmentMappingDeliversOneSharedView) {
  // The fragments are consecutive views of the buffer the sender carved
  // them from, so the verified mapping is that buffer again: no copy.
  ReceiverMappings m;
  const auto bytes = fill(0, 4000);
  const Payload wire(bytes);
  m.add(make_rec(1000, 50, 4000, &bytes));
  EXPECT_TRUE(m.feed(1000, wire.subview(0, 1460), true).deliver.empty());
  EXPECT_TRUE(m.feed(2460, wire.subview(1460, 1460), true).deliver.empty());
  auto out = m.feed(3920, wire.subview(2920, 1080), true);
  EXPECT_TRUE(out.checksum_failures.empty());
  ASSERT_EQ(out.deliver.size(), 1u);
  EXPECT_EQ(out.deliver[0].first, 50u);
  EXPECT_TRUE(out.deliver[0].second.shares_buffer_with(wire));
  EXPECT_EQ(out.deliver[0].second, wire);
  EXPECT_EQ(m.held_bytes(), 0u);
}

TEST(ReceiverMappings, RewrittenMiddleFragmentStillFailsChecksum) {
  // An ALG rewrites the middle fragment through mutable_data(), which
  // moves it to a private buffer: the mapping is gathered by copy and
  // reported with the rewritten bytes.
  ReceiverMappings m;
  const auto bytes = fill(0, 4000);
  const Payload wire(bytes);
  m.add(make_rec(1000, 50, 4000, &bytes));
  Payload middle = wire.subview(1460, 1460);
  middle.mutable_data()[700] ^= 0xA5;
  EXPECT_TRUE(m.feed(1000, wire.subview(0, 1460), true).deliver.empty());
  EXPECT_TRUE(m.feed(2460, middle, true).deliver.empty());
  auto out = m.feed(3920, wire.subview(2920, 1080), true);
  EXPECT_TRUE(out.deliver.empty());
  ASSERT_EQ(out.checksum_failures.size(), 1u);
  EXPECT_EQ(out.checksum_failures[0].first.dsn, 50u);
  auto rewritten = bytes;
  rewritten[1460 + 700] ^= 0xA5;
  const Payload& got = out.checksum_failures[0].second;
  EXPECT_FALSE(got.shares_buffer_with(wire));
  EXPECT_EQ(got, Payload(rewritten));
  EXPECT_EQ(wire, Payload(bytes));  // the sender's bytes are untouched
}

TEST(ReceiverMappings, UnmappedBytesAreDroppedAndCounted) {
  ReceiverMappings m;
  const auto mapped = fill(0, 500);
  m.add(make_rec(2000, 70000, 500, &mapped));
  // 300 unmapped bytes (a coalescer ate their DSS), then mapped data.
  std::vector<uint8_t> wire = fill(7, 300);
  wire.insert(wire.end(), mapped.begin(), mapped.end());
  auto out = m.feed(1700, Payload(wire), true);
  ASSERT_EQ(out.deliver.size(), 1u);
  EXPECT_EQ(out.deliver[0].first, 70000u);
  EXPECT_EQ(m.unmapped_bytes(), 300u);
}

TEST(ReceiverMappings, ChecksumsDisabledDeliversImmediately) {
  ReceiverMappings m;
  const auto payload = fill(0, 2920);
  m.add(make_rec(1000, 10, 2920));  // no checksum
  auto out = m.feed(1000, Payload({payload.data(), 1460}), false);
  ASSERT_EQ(out.deliver.size(), 1u);
  EXPECT_EQ(out.deliver[0].first, 10u);
  EXPECT_EQ(out.deliver[0].second.size(), 1460u);
}

TEST(ReceiverMappings, DuplicateMappingIsIdempotent) {
  ReceiverMappings m;
  EXPECT_TRUE(m.add(make_rec(1000, 5, 100)));
  EXPECT_TRUE(m.add(make_rec(1000, 5, 100)));  // TSO copy
  EXPECT_FALSE(m.add(make_rec(1000, 99, 100)));  // conflicting
  EXPECT_EQ(m.size(), 1u);
}

TEST(ReceiverMappings, FeedSpanningTwoMappings) {
  ReceiverMappings m;
  const auto p1 = fill(1, 400);
  const auto p2 = fill(2, 600);
  m.add(make_rec(1000, 100, 400, &p1));
  m.add(make_rec(1400, 500, 600, &p2));
  std::vector<uint8_t> wire = p1;
  wire.insert(wire.end(), p2.begin(), p2.end());
  auto out = m.feed(1000, Payload(wire), true);
  ASSERT_EQ(out.deliver.size(), 2u);
  EXPECT_EQ(out.deliver[0].first, 100u);
  EXPECT_EQ(out.deliver[1].first, 500u);
}

TEST(ReceiverMappings, ReleaseBelowReclaimsHeldBytes) {
  ReceiverMappings m;
  const auto payload = fill(0, 1000);
  m.add(make_rec(1000, 50, 1000, &payload));
  m.feed(1000, Payload({payload.data(), 500}), true);  // half fed, half held
  EXPECT_EQ(m.held_bytes(), 500u);
  m.release_below(2000);
  EXPECT_EQ(m.held_bytes(), 0u);
  EXPECT_EQ(m.size(), 0u);
}

TEST(ReceiverMappings, MappingArrivingBelowHeldOnesTakesItsPlace) {
  // The segments carrying the second and third mappings overtake the
  // first one's: mappings arrive out of order, a conflicting duplicate of
  // a held one is rejected, and bytes and releases still follow subflow
  // order.
  ReceiverMappings m;
  const auto a = fill(1, 500);
  const auto b = fill(2, 400);
  const auto c = fill(3, 300);
  EXPECT_TRUE(m.add(make_rec(1900, 70000, 300, &c)));
  EXPECT_TRUE(m.add(make_rec(1500, 60000, 400, &b)));
  EXPECT_TRUE(m.add(make_rec(1000, 50000, 500, &a)));
  EXPECT_EQ(m.size(), 3u);
  EXPECT_FALSE(m.add(make_rec(1500, 61000, 400, &b)));  // other dsn
  EXPECT_FALSE(m.add(make_rec(1900, 70000, 200)));      // other length
  EXPECT_TRUE(m.add(make_rec(1500, 60000, 400, &b)));   // a TSO copy
  EXPECT_EQ(m.size(), 3u);

  // The first mapping and half the second arrive in one segment: the
  // first is delivered, the second held for its checksum.
  std::vector<uint8_t> wire = a;
  wire.insert(wire.end(), b.begin(), b.begin() + 200);
  auto out = m.feed(1000, Payload(wire), true);
  ASSERT_EQ(out.deliver.size(), 1u);
  EXPECT_EQ(out.deliver[0].first, 50000u);
  EXPECT_EQ(out.deliver[0].second, Payload(a));
  EXPECT_EQ(m.held_bytes(), 200u);

  // Releasing across the first mapping into the second keeps the second.
  m.release_below(1700);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.held_bytes(), 200u);

  // A late copy of the released first mapping is accepted as new state
  // below the held ones, and released again with them.
  EXPECT_TRUE(m.add(make_rec(1000, 50000, 500, &a)));
  EXPECT_EQ(m.size(), 3u);

  std::vector<uint8_t> rest(b.begin() + 200, b.end());
  rest.insert(rest.end(), c.begin(), c.end());
  out = m.feed(1700, Payload(rest), true);
  EXPECT_TRUE(out.checksum_failures.empty());
  ASSERT_EQ(out.deliver.size(), 2u);
  EXPECT_EQ(out.deliver[0].first, 60000u);
  EXPECT_EQ(out.deliver[0].second, Payload(b));
  EXPECT_EQ(out.deliver[1].first, 70000u);
  EXPECT_EQ(out.deliver[1].second, Payload(c));
  EXPECT_EQ(m.held_bytes(), 0u);
  EXPECT_EQ(m.unmapped_bytes(), 0u);

  m.release_below(2199);
  EXPECT_EQ(m.size(), 1u);
  m.release_below(2200);
  EXPECT_EQ(m.size(), 0u);
}

TEST(ReceiverMappings, MappingInsertedBetweenHeldOnesFillsTheGap) {
  // Mappings for [1000, 1200) and [1600, 1800) are held; bytes in the gap
  // between them are unmapped until the middle mapping arrives.
  ReceiverMappings m;
  const auto lo = fill(4, 200);
  const auto mid = fill(5, 400);
  const auto hi = fill(6, 200);
  EXPECT_TRUE(m.add(make_rec(1600, 3000, 200, &hi)));
  EXPECT_TRUE(m.add(make_rec(1000, 1000, 200, &lo)));
  auto out = m.feed(1000, Payload(lo), true);
  ASSERT_EQ(out.deliver.size(), 1u);
  EXPECT_EQ(out.deliver[0].first, 1000u);
  out = m.feed(1200, Payload({mid.data(), 100}), true);
  EXPECT_TRUE(out.deliver.empty());
  EXPECT_EQ(m.unmapped_bytes(), 100u);

  EXPECT_TRUE(m.add(make_rec(1200, 2000, 400, &mid)));
  EXPECT_EQ(m.size(), 3u);
  std::vector<uint8_t> wire(mid.begin() + 100, mid.end());
  wire.insert(wire.end(), hi.begin(), hi.end());
  // The middle mapping saw its first 100 bytes dropped as unmapped, so its
  // held fragments do not start at its head: it never completes.
  out = m.feed(1300, Payload(wire), true);
  ASSERT_EQ(out.deliver.size(), 1u);
  EXPECT_EQ(out.deliver[0].first, 3000u);
  EXPECT_EQ(out.deliver[0].second, Payload(hi));
  EXPECT_EQ(m.unmapped_bytes(), 100u);

  // Without checksums every mapped byte is delivered where it lands.
  out = m.feed(1300, Payload({mid.data() + 100, 300}), false);
  ASSERT_EQ(out.deliver.size(), 1u);
  EXPECT_EQ(out.deliver[0].first, 2100u);
  EXPECT_EQ(out.deliver[0].second.size(), 300u);

  m.release_below(1800);
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.held_bytes(), 0u);
}

}  // namespace
}  // namespace mptcp
