// Additional MPTCP behaviours: many subflows, streaming reads under
// pressure, receive algorithms at the connection level, and the fallback
// write-through path.
#include <gtest/gtest.h>

#include <memory>

#include "app/bulk_app.h"
#include "app/scenario.h"
#include "core/mptcp_stack.h"

namespace mptcp {
namespace {

TEST(MptcpScale, FourPathsAggregateAndDeliverIntact) {
  TwoHostRig rig(std::vector<PathSpec>(
      4, ethernet_path(50e6, 10 * kMillisecond, 40 * kMillisecond)));
  MptcpConfig cfg;
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 2 * 1000 * 1000;
  MptcpStack cs(rig.client(), cfg), ss(rig.server(), cfg);
  MptcpConnection* sconn = nullptr;
  std::unique_ptr<BulkReceiver> rx;
  ss.listen(80, [&](MptcpConnection& c) {
    sconn = &c;
    rx = std::make_unique<BulkReceiver>(c);
  });
  MptcpConnection& cc =
      cs.connect(rig.client_addr(0), {rig.server_addr(), 80});
  BulkSender tx(cc, 0);
  rig.loop().run_until(2 * kSecond);
  EXPECT_EQ(cc.subflow_count(), 4u);
  const uint64_t at2 = rx->bytes_received();
  rig.loop().run_until(10 * kSecond);
  const double mbps =
      static_cast<double>(rx->bytes_received() - at2) * 8 / 8e6;
  // Four 50 Mbps paths: clearly beyond any single one.
  EXPECT_GT(mbps, 100.0);
  EXPECT_TRUE(rx->pattern_ok());
  // All four subflows carried meaningful traffic.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_GT(cc.subflow(i)->stats().bytes_sent, 5u * 1000u * 1000u) << i;
  }
}

TEST(MptcpScale, ReceiverMemoryBoundedByConfiguredBuffer) {
  TwoHostRig rig({wifi_path(), threeg_path()});
  MptcpConfig cfg;
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 200 * 1000;
  MptcpStack cs(rig.client(), cfg), ss(rig.server(), cfg);
  MptcpConnection* sconn = nullptr;
  std::unique_ptr<BulkReceiver> rx;
  ss.listen(80, [&](MptcpConnection& c) {
    sconn = &c;
    rx = std::make_unique<BulkReceiver>(c, false);
  });
  MptcpConnection& cc =
      cs.connect(rig.client_addr(0), {rig.server_addr(), 80});
  BulkSender tx(cc, 0);
  double peak = 0;
  PeriodicSampler sampler(rig.loop(), 10 * kMillisecond, [&](SimTime) {
    if (sconn != nullptr) {
      peak = std::max(peak, static_cast<double>(sconn->receiver_memory()));
    }
  });
  rig.loop().run_until(15 * kSecond);
  // Reordering memory can never exceed the connection-level window plus
  // one segment of slack per subflow.
  EXPECT_LE(peak, 200e3 + 2 * 1460 + 1000);
  EXPECT_GT(rx->bytes_received(), 5u * 1000u * 1000u);
}

TEST(MptcpScale, SlowReaderThrottlesSenderViaMetaWindow) {
  TwoHostRig rig({wifi_path(), threeg_path()});
  MptcpConfig cfg;
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 100 * 1000;
  MptcpStack cs(rig.client(), cfg), ss(rig.server(), cfg);
  MptcpConnection* sconn = nullptr;
  ss.listen(80, [&](MptcpConnection& c) { sconn = &c; });
  MptcpConnection& cc =
      cs.connect(rig.client_addr(0), {rig.server_addr(), 80});
  BulkSender tx(cc, 0);

  // The app reads only 20 KB/s: goodput must match the reader, not the
  // paths, and unread data must never exceed the configured buffer.
  uint64_t total_read = 0;
  uint8_t buf[2000];
  PeriodicSampler reader(rig.loop(), 100 * kMillisecond, [&](SimTime) {
    if (sconn != nullptr) total_read += sconn->read(buf);
  });
  rig.loop().run_until(20 * kSecond);
  EXPECT_LE(sconn->readable_bytes(), 100u * 1000u);
  // ~2 KB per 100 ms = 20 KB/s; 20 s => ~400 KB total.
  EXPECT_NEAR(static_cast<double>(total_read), 400e3, 60e3);
  // And the sender really was throttled: nothing like path capacity.
  EXPECT_LT(cc.data_acked() - (cc.idsn_local() + 1), 700u * 1000u);
}

TEST(MptcpFallback, WriteThroughPathPreservesOrderingUnderPressure) {
  // In fallback mode write() passes straight to the subflow; mixed
  // full/partial writes must keep byte order.
  TwoHostRig rig({wifi_path()});
  MptcpConfig tcp_only;
  tcp_only.enabled = false;
  tcp_only.tcp.snd_buf_max = 32 * 1024;  // force partial writes
  MptcpStack cs(rig.client(), tcp_only), ss(rig.server(), tcp_only);
  MptcpConnection* sconn = nullptr;
  std::unique_ptr<BulkReceiver> rx;
  ss.listen(80, [&](MptcpConnection& c) {
    sconn = &c;
    rx = std::make_unique<BulkReceiver>(c);
  });
  MptcpConnection& cc =
      cs.connect(rig.client_addr(0), {rig.server_addr(), 80});
  BulkSender tx(cc, 2 * 1000 * 1000);
  rig.loop().run_until(10 * kSecond);
  EXPECT_EQ(rx->bytes_received(), 2u * 1000u * 1000u);
  EXPECT_TRUE(rx->pattern_ok());
  EXPECT_TRUE(rx->saw_eof());
}

TEST(MptcpScale, ManySequentialConnectionsReuseCleanly) {
  // 50 sequential connections on one stack pair: tokens must never
  // collide or leak.
  TwoHostRig rig({ethernet_path(1e9)});
  MptcpConfig cfg;
  cfg.tcp.time_wait = 1 * kMillisecond;
  MptcpStack cs(rig.client(), cfg), ss(rig.server(), cfg);
  uint64_t transfers_ok = 0;
  std::unique_ptr<BulkReceiver> rx;
  uint64_t got = 0;
  bool pattern_ok = false;
  ss.listen(80, [&](MptcpConnection& c) {
    c.set_auto_destroy(true);
    rx = std::make_unique<BulkReceiver>(c);
    rx->on_eof = [&c] { c.close(); };  // finish the reverse direction
    // The receiver references the connection, so it must not outlive an
    // auto-destroyed one: snapshot its counters and drop it on close.
    c.on_closed = [&] {
      if (rx) {
        got = rx->bytes_received();
        pattern_ok = rx->pattern_ok();
        rx.reset();
      }
    };
  });
  for (int i = 0; i < 50; ++i) {
    got = 0;
    pattern_ok = false;
    MptcpConnection& cc =
        cs.connect(rig.client_addr(0), {rig.server_addr(), 80});
    BulkSender tx(cc, 50 * 1000);
    const SimTime deadline = rig.loop().now() + 2 * kSecond;
    rig.loop().run_until(deadline);
    if (got == 50u * 1000u && pattern_ok) ++transfers_ok;
    rx.reset();  // transfer failed: the connection is still alive here
  }
  EXPECT_EQ(transfers_ok, 50u);
  EXPECT_LE(cs.tokens().size(), 2u);  // all unregistered after teardown
  EXPECT_LE(ss.tokens().size(), 2u);
}

}  // namespace
}  // namespace mptcp
