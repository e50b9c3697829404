// Figure 11: "Apache-benchmark with 100 clients" -- requests/second as a
// function of transfer size for MPTCP, round-robin link bonding, and
// regular TCP, over two gigabit links.
//
// The server runs a single-core CPU model (per-segment cost plus the
// per-connection handshake costs measured in the Fig. 10 benchmark), so
// small transfers are CPU/handshake bound and large transfers are link
// bound -- the regimes whose interaction produces the paper's crossovers:
//   * below ~30 KB MPTCP serves *fewer* requests than TCP (it pays an
//     extra subflow handshake per connection that short flows never
//     amortize);
//   * bonding is strongest at small sizes (packet-level striping needs no
//     per-connection setup to use both links);
//   * beyond ~100 KB MPTCP roughly doubles TCP and edges out bonding.
#include <cstdio>
#include <memory>

#include "app/http_app.h"
#include "app/scenario.h"
#include "bench_util.h"
#include "bond/bonding.h"

using namespace mptcp;
using namespace mptcp::bench;

namespace {

constexpr SimTime kWarmup = 500 * kMillisecond;
constexpr SimTime kMeasure = 2 * kSecond;
constexpr size_t kClients = 100;
constexpr double kLinkRate = 1e9;

Host::CpuConfig server_cpu() {
  Host::CpuConfig cpu;
  cpu.per_segment = 8 * kMicrosecond;
  return cpu;
}

TransportConfig http_config(bool mptcp_enabled) {
  TransportConfig cfg;
  cfg.kind = mptcp_enabled ? TransportKind::kMptcp : TransportKind::kTcp;
  cfg.mptcp.meta_snd_buf_max = cfg.mptcp.meta_rcv_buf_max = 128 * 1024;
  cfg.mptcp.tcp.time_wait = 10 * kMillisecond;  // busy-server tuning
  return cfg;
}

double run_two_path(bool mptcp_enabled, uint64_t size) {
  const PathSpec eth =
      ethernet_path(kLinkRate, 100 * kMicrosecond, 2 * kMillisecond);
  ScenarioSpec spec;
  const TwoHostShape shape = declare_two_host(spec, {eth, eth});
  Scenario scn = spec.build();
  Topology& t = scn.topo();
  t.host(shape.server).set_cpu(server_cpu());

  SocketFactory cs(t.host(shape.client), http_config(mptcp_enabled));
  SocketFactory ss(t.host(shape.server), http_config(mptcp_enabled));
  HttpServer server(ss, 80);
  HttpClientPool pool(cs, t.addr(shape.client, 0),
                      Endpoint{t.addr(shape.server, 0), 80}, kClients, size);
  pool.start();
  t.loop(0).run_until(kWarmup);
  const uint64_t c0 = pool.completed();
  t.loop(0).run_until(kWarmup + kMeasure);
  return static_cast<double>(pool.completed() - c0) / to_seconds(kMeasure);
}

double run_bonding(uint64_t size) {
  // The baseline's own wiring: each bond leg joins the two hosts directly.
  EventLoop loop;
  Host client(loop, "client"), server(loop, "server");
  const IpAddr caddr(10, 0, 0, 2), saddr(10, 99, 0, 1);

  LinkConfig leg;
  leg.rate_bps = kLinkRate;
  leg.prop_delay = 50 * kMicrosecond;
  leg.buffer_bytes = LinkConfig::buffer_for_delay(kLinkRate,
                                                  2 * kMillisecond);
  Link up1(loop, leg, "up1"), up2(loop, leg, "up2");
  Link down1(loop, leg, "down1"), down2(loop, leg, "down2");
  up1.set_target(&server);
  up2.set_target(&server);
  down1.set_target(&client);
  down2.set_target(&client);

  BondDevice cbond, sbond;
  cbond.add_leg(&up1);
  cbond.add_leg(&up2);
  sbond.add_leg(&down1);
  sbond.add_leg(&down2);
  client.add_interface(caddr, &cbond);
  server.add_interface(saddr, &sbond);
  server.set_cpu(server_cpu());

  SocketFactory cs(client, http_config(false));
  SocketFactory ss(server, http_config(false));
  HttpServer http(ss, 80);
  HttpClientPool pool(cs, caddr, Endpoint{saddr, 80}, kClients, size);
  pool.start();
  loop.run_until(kWarmup);
  const uint64_t c0 = pool.completed();
  loop.run_until(kWarmup + kMeasure);
  return static_cast<double>(pool.completed() - c0) / to_seconds(kMeasure);
}

}  // namespace

int main() {
  std::printf("# Fig 11: requests/sec vs transfer size, 100 closed-loop "
              "clients, 2 x 1 Gbps\n");
  std::printf("%-12s %14s %14s %14s\n", "size_KB", "MPTCP", "bonding",
              "regularTCP");
  for (uint64_t kb : {4, 10, 20, 30, 50, 100, 150, 200, 300}) {
    const double mptcp_rps = run_two_path(true, kb * 1000);
    const double bond_rps = run_bonding(kb * 1000);
    const double tcp_rps = run_two_path(false, kb * 1000);
    std::printf("%-12llu %14.0f %14.0f %14.0f\n",
                static_cast<unsigned long long>(kb), mptcp_rps, bond_rps,
                tcp_rps);
    std::fflush(stdout);
  }
  return 0;
}
