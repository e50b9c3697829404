// Mobile handover: a phone walks out of WiFi range mid-download.
//
// The paper's robustness story (sections 3.2 / 3.4): when an interface
// disappears, the connection survives on the remaining subflow. Two
// variants are shown:
//   1. Graceful: the host notices the interface loss and announces it
//      with REMOVE_ADDR so the peer tears matching subflows down cleanly.
//   2. Silent: the path just dies; the subflow times out repeatedly and
//      the connection-level retransmission shifts its data to 3G.
//
// Build & run:  ./build/examples/mobile_handover
#include <cstdio>

#include "app/bulk_app.h"
#include "app/scenario.h"
#include "core/mptcp_stack.h"

using namespace mptcp;

namespace {

void run_variant(bool graceful) {
  std::printf("\n=== %s handover ===\n",
              graceful ? "graceful (REMOVE_ADDR)" : "silent (path death)");
  TwoHostRig rig({wifi_path(), threeg_path()});

  MptcpConfig cfg;
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 512 * 1024;
  MptcpStack client_stack(rig.client(), cfg);
  MptcpStack server_stack(rig.server(), cfg);

  std::unique_ptr<BulkReceiver> receiver;
  server_stack.listen(80, [&](MptcpConnection& conn) {
    receiver = std::make_unique<BulkReceiver>(conn);
  });
  MptcpConnection& client = client_stack.connect(
      rig.client_addr(0), Endpoint{rig.server_addr(), 80});
  BulkSender sender(client, 4 * 1000 * 1000);  // a 4 MB download

  // At t=2s the WiFi radio goes away.
  rig.loop().schedule_in(2 * kSecond, [&] {
    rig.set_path_up(0, false);
    if (graceful) client.remove_local_address(rig.client_addr(0));
    std::printf("  t=2.0s  WiFi gone (%s)\n",
                graceful ? "REMOVE_ADDR sent on 3G" : "silent");
  });

  uint64_t last = 0;
  for (int t = 1; t <= 22; ++t) {
    rig.loop().run_until(static_cast<SimTime>(t) * kSecond);
    if (t % 2 == 0) {
      const uint64_t now_bytes = receiver->bytes_received();
      std::printf("  t=%2ds   %7.1f KB delivered (%+6.1f KB/s)%s\n", t,
                  static_cast<double>(now_bytes) / 1e3,
                  static_cast<double>(now_bytes - last) / 2e3,
                  receiver->saw_eof() ? "  [complete]" : "");
      last = now_bytes;
      if (receiver->saw_eof()) break;
    }
  }
  std::printf("  result: %llu/%u bytes, integrity %s\n",
              static_cast<unsigned long long>(receiver->bytes_received()),
              4000000, receiver->pattern_ok() ? "OK" : "BROKEN");
}

}  // namespace

int main() {
  std::printf("Mobile handover demo: 4 MB download, WiFi dies at t=2s,\n"
              "the MPTCP connection carries on over 3G.\n");
  run_variant(/*graceful=*/true);
  run_variant(/*graceful=*/false);
  return 0;
}
