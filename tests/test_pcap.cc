// Pcap writer: files must carry the correct headers and every forwarded
// packet, with valid wire-format TCP inside.
#include <gtest/gtest.h>

#include <cstdio>

#include "app/bulk_app.h"
#include "app/scenario.h"
#include "core/mptcp_stack.h"
#include "net/wire.h"
#include "sim/pcap.h"

namespace mptcp {
namespace {

std::vector<uint8_t> slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::vector<uint8_t> out;
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    out.insert(out.end(), buf, buf + n);
  }
  std::fclose(f);
  return out;
}

uint32_t u32le(const std::vector<uint8_t>& b, size_t off) {
  return b[off] | (b[off + 1] << 8) | (b[off + 2] << 16) |
         (uint32_t{b[off + 3]} << 24);
}

TEST(Pcap, CapturesAnMptcpTransferInValidFormat) {
  const std::string path = "/tmp/mptcplib_test.pcap";
  {
    TwoHostRig rig({wifi_path()});
    PcapWriter writer(path);
    ASSERT_TRUE(writer.ok());
    PcapTap tap(rig.loop(), writer);
    rig.splice_up(0, tap);

    MptcpConfig cfg;
    MptcpStack cs(rig.client(), cfg), ss(rig.server(), cfg);
    std::unique_ptr<BulkReceiver> rx;
    ss.listen(80, [&](MptcpConnection& c) {
      rx = std::make_unique<BulkReceiver>(c);
    });
    MptcpConnection& cc =
        cs.connect(rig.client_addr(0), {rig.server_addr(), 80});
    BulkSender tx(cc, 30 * 1000);
    rig.loop().run_until(3 * kSecond);
    EXPECT_EQ(rx->bytes_received(), 30u * 1000u);
    EXPECT_GT(writer.packets_written(), 20u);
  }

  const auto bytes = slurp(path);
  ASSERT_GT(bytes.size(), 24u);
  // Global header: nanosecond magic, version 2.4, LINKTYPE_RAW.
  EXPECT_EQ(u32le(bytes, 0), 0xa1b23c4du);
  EXPECT_EQ(u32le(bytes, 4), 0x00040002u);
  EXPECT_EQ(u32le(bytes, 20), 101u);

  // Walk all records: lengths must chain exactly to EOF, and every
  // record must contain a parseable IPv4+TCP packet whose TCP part our
  // own parser accepts.
  size_t off = 24;
  size_t packets = 0;
  uint64_t last_ts = 0;
  while (off < bytes.size()) {
    ASSERT_LE(off + 16, bytes.size());
    const uint64_t ts =
        uint64_t{u32le(bytes, off)} * 1000000000ull + u32le(bytes, off + 4);
    EXPECT_GE(ts, last_ts);  // timestamps are monotonic
    last_ts = ts;
    const uint32_t incl = u32le(bytes, off + 8);
    ASSERT_EQ(incl, u32le(bytes, off + 12));
    off += 16;
    ASSERT_LE(off + incl, bytes.size());
    // IPv4 header sanity.
    EXPECT_EQ(bytes[off] >> 4, 4);          // version
    EXPECT_EQ(bytes[off + 9], 6);           // TCP
    const size_t ihl = (bytes[off] & 0xf) * 4;
    FourTuple t;
    t.src.addr = IpAddr((uint32_t{bytes[off + 12]} << 24) |
                        (bytes[off + 13] << 16) | (bytes[off + 14] << 8) |
                        bytes[off + 15]);
    t.dst.addr = IpAddr((uint32_t{bytes[off + 16]} << 24) |
                        (bytes[off + 17] << 16) | (bytes[off + 18] << 8) |
                        bytes[off + 19]);
    const std::span<const uint8_t> tcp{bytes.data() + off + ihl,
                                       incl - ihl};
    EXPECT_TRUE(parse_segment(tcp, t).has_value());
    off += incl;
    ++packets;
  }
  EXPECT_GT(packets, 20u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mptcp
