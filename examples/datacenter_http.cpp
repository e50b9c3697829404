// Web serving over redundant datacenter paths (the Fig. 11 scenario at
// example scale): 40 closed-loop clients fetch files from a server
// reachable over two 1 Gbps links, comparing MPTCP against single-path
// TCP for a small and a large file size.
//
// Build & run:  ./build/examples/datacenter_http
#include <cstdio>

#include "app/http_app.h"
#include "app/scenario.h"
#include "app/socket_factory.h"

using namespace mptcp;

namespace {

double run(bool use_mptcp, uint64_t file_size) {
  const PathSpec eth = ethernet_path(1e9, 100 * kMicrosecond, 2 * kMillisecond);
  TwoHostRig rig({eth, eth});
  Host::CpuConfig cpu;
  cpu.per_segment = 8 * kMicrosecond;  // single-core server model
  rig.server().set_cpu(cpu);

  TransportConfig cfg;
  cfg.kind = use_mptcp ? TransportKind::kMptcp : TransportKind::kTcp;
  cfg.mptcp.meta_snd_buf_max = cfg.mptcp.meta_rcv_buf_max = 128 * 1024;
  cfg.mptcp.tcp.time_wait = 10 * kMillisecond;
  SocketFactory client_stack(rig.client(), cfg);
  SocketFactory server_stack(rig.server(), cfg);

  HttpServer server(server_stack, 80);
  HttpClientPool clients(client_stack, rig.client_addr(0),
                         Endpoint{rig.server_addr(), 80}, /*clients=*/40,
                         file_size);
  clients.start();

  rig.loop().run_until(500 * kMillisecond);
  const uint64_t c0 = clients.completed();
  rig.loop().run_until(2500 * kMillisecond);
  return static_cast<double>(clients.completed() - c0) / 2.0;
}

}  // namespace

int main() {
  std::printf("Datacenter web serving: 40 closed-loop clients, server on "
              "2 x 1 Gbps\n\n");
  std::printf("%-14s %16s %16s %12s\n", "file size", "TCP req/s",
              "MPTCP req/s", "MPTCP/TCP");
  for (uint64_t kb : {8, 300}) {
    const double tcp = run(false, kb * 1000);
    const double mptcp = run(true, kb * 1000);
    std::printf("%8llu KB   %16.0f %16.0f %11.2fx\n",
                static_cast<unsigned long long>(kb), tcp, mptcp, mptcp / tcp);
  }
  std::printf(
      "\nShort flows pay MPTCP's extra handshake; long flows enjoy both "
      "links\n(the trade-off quantified in the paper's Fig. 11).\n");
  return 0;
}
