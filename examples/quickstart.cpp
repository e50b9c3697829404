// Quickstart: an MPTCP connection over emulated WiFi + 3G.
//
// Builds the paper's canonical two-path scenario, runs a 30-second bulk
// transfer over MPTCP and over single-path TCP, and prints the goodput
// and per-subflow breakdown. Shows the core public API:
//
//   TwoHostRig      -- canned client/server topology
//   MptcpStack      -- per-host MPTCP state (connect / listen)
//   MptcpConnection -- the StreamSocket the application reads/writes
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "app/bulk_app.h"
#include "app/scenario.h"
#include "core/mptcp_stack.h"

using namespace mptcp;

int main() {
  std::printf("MPTCP quickstart: WiFi (8 Mbps, 20 ms) + 3G (2 Mbps, 150 ms)\n");

  // --- topology -----------------------------------------------------------
  // Client addresses 10.1.0.1 (WiFi) and 10.1.1.1 (3G); server 10.1.2.2.
  TwoHostRig rig({wifi_path(), threeg_path()});

  // --- stacks ---------------------------------------------------------------
  MptcpConfig cfg;
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 512 * 1024;
  MptcpStack client_stack(rig.client(), cfg);
  MptcpStack server_stack(rig.server(), cfg);

  // --- server: accept and drain --------------------------------------------
  MptcpConnection* server_conn = nullptr;
  std::unique_ptr<BulkReceiver> receiver;
  server_stack.listen(80, [&](MptcpConnection& conn) {
    server_conn = &conn;
    receiver = std::make_unique<BulkReceiver>(conn);
  });

  // --- client: connect and send as fast as the socket accepts ---------------
  MptcpConnection& client = client_stack.connect(
      rig.client_addr(0), Endpoint{rig.server_addr(), 80});
  BulkSender sender(client, /*total_bytes=*/0);

  // --- run -------------------------------------------------------------------
  rig.loop().run_until(2 * kSecond);  // warm-up: handshakes + slow start
  const uint64_t at2s = receiver->bytes_received();
  rig.loop().run_until(32 * kSecond);
  const double goodput =
      static_cast<double>(receiver->bytes_received() - at2s) * 8.0 / 30.0;

  std::printf("\nafter 32s simulated:\n");
  std::printf("  mode            : %s\n",
              client.mode() == MptcpMode::kMptcp ? "MPTCP" : "fallback TCP");
  std::printf("  subflows        : %zu\n", client.subflow_count());
  for (size_t i = 0; i < client.subflow_count(); ++i) {
    const MptcpSubflow* sf = client.subflow(i);
    std::printf("    subflow %zu via %-12s sent %8.1f KB  srtt %6.1f ms\n", i,
                sf->local().addr.str().c_str(),
                static_cast<double>(sf->stats().bytes_sent) / 1e3,
                static_cast<double>(sf->srtt()) / 1e6);
  }
  std::printf("  delivered       : %.1f MB, integrity %s\n",
              static_cast<double>(receiver->bytes_received()) / 1e6,
              receiver->pattern_ok() ? "OK" : "BROKEN");
  std::printf("  goodput         : %.2f Mbps (WiFi alone ~7.7, 3G alone "
              "~1.9)\n",
              goodput / 1e6);
  return 0;
}
