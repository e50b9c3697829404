// Ablation: packet scheduling policy and coupled congestion control.
//
// Two design choices DESIGN.md calls out, isolated:
//
//  1. Scheduler policy (section 4.2's lowest-RTT-first vs naive
//     round-robin vs fully redundant) over asymmetric WiFi+3G paths.
//     Expected: lowest-RTT wins goodput; round-robin suffers from
//     head-of-line blocking behind the slow path; redundant matches the
//     best single path but burns the 3G capacity on duplicates.
//
//  2. Coupled (LIA) vs uncoupled congestion control sharing a bottleneck
//     with a regular TCP flow (the section 2 fairness requirement: "at
//     least as well as TCP, but without starving TCP"). Two MPTCP
//     subflows and one TCP flow share one 8 Mbps link: uncoupled MPTCP
//     takes ~2/3; coupled MPTCP takes about half.
#include <cstdio>
#include <memory>

#include "bench_util.h"

using namespace mptcp;
using namespace mptcp::bench;

namespace {

void scheduler_ablation(bool with_mechanisms) {
  std::printf("# Ablation 1%s: scheduler policy, WiFi+3G, 300 KB buffers, "
              "M1/M2 %s (Mbps)\n",
              with_mechanisms ? "a" : "b", with_mechanisms ? "on" : "off");
  std::printf("%-14s %12s %12s %14s\n", "policy", "goodput", "throughput",
              "wasted");
  for (SchedulerPolicy policy :
       {SchedulerPolicy::kLowestRtt, SchedulerPolicy::kRoundRobin,
        SchedulerPolicy::kRedundant}) {
    TwoHostRig rig({wifi_path(), threeg_path()});
    MptcpConfig cfg;
    cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 300 * 1000;
    cfg.scheduler = policy;
    cfg.opportunistic_retransmit = with_mechanisms;
    cfg.penalize_slow_subflows = with_mechanisms;
    MptcpStack cs(rig.client(), cfg), ss(rig.server(), cfg);
    std::unique_ptr<BulkReceiver> rx;
    ss.listen(80, [&](MptcpConnection& c) {
      rx = std::make_unique<BulkReceiver>(c, false);
    });
    MptcpConnection& cc =
        cs.connect(rig.client_addr(0), Endpoint{rig.server_addr(), 80});
    BulkSender tx(cc, 0);
    rig.loop().run_until(5 * kSecond);
    const uint64_t r0 = rx->bytes_received();
    uint64_t t0 = 0;
    for (size_t i = 0; i < cc.subflow_count(); ++i) {
      t0 += cc.subflow(i)->stats().bytes_sent;
    }
    rig.loop().run_until(25 * kSecond);
    uint64_t t1 = 0;
    for (size_t i = 0; i < cc.subflow_count(); ++i) {
      t1 += cc.subflow(i)->stats().bytes_sent;
    }
    const double good = (rx->bytes_received() - r0) * 8.0 / 20.0;
    const double thru = static_cast<double>(t1 - t0) * 8.0 / 20.0;
    std::printf("%-14s %12.2f %12.2f %13.1f%%\n",
                std::string(to_string(policy)).c_str(), good / 1e6,
                thru / 1e6, 100.0 * (thru - good) / std::max(thru, 1.0));
  }
}

void fairness_ablation() {
  std::printf("\n# Ablation 2: coupled (LIA) vs uncoupled CC sharing an "
              "8 Mbps bottleneck with 1 TCP flow\n");
  std::printf("%-12s %14s %14s %18s\n", "cc", "MPTCP Mbps", "TCP Mbps",
              "MPTCP share");
  for (bool coupled : {true, false}) {
    // One bottleneck path; the MPTCP connection opens two subflows over
    // it from the client's two addresses, competing with a TCP flow.
    TwoHostRig rig({wifi_path()});
    // Second client address routed over the *same* physical path: model
    // by an identical path whose links share nothing -- instead, to truly
    // share a bottleneck, both subflows and the TCP flow use path 0 and a
    // second address is NOT added. Subflows toward different server
    // ports: the client's single address and the full-mesh logic would
    // not open a second subflow, so we open it explicitly below.
    MptcpConfig cfg;
    cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 512 * 1024;
    cfg.cc_algo = coupled ? CcAlgo::kLia : CcAlgo::kNewReno;
    cfg.full_mesh = false;
    MptcpStack cs(rig.client(), cfg), ss(rig.server(), cfg);
    std::unique_ptr<BulkReceiver> mp_rx;
    ss.listen(80, [&](MptcpConnection& c) {
      mp_rx = std::make_unique<BulkReceiver>(c, false);
    });
    MptcpConnection& mp =
        cs.connect(rig.client_addr(0), Endpoint{rig.server_addr(), 80});
    BulkSender mp_tx(mp, 0);
    // Second subflow over the same path once established.
    rig.loop().schedule_in(200 * kMillisecond, [&] {
      mp.open_subflow(rig.client_addr(0), Endpoint{rig.server_addr(), 80});
    });

    // Competing plain TCP flow, via a kTcp factory pair.
    TransportConfig ttc;
    ttc.kind = TransportKind::kTcp;
    ttc.mptcp.tcp.snd_buf_max = ttc.mptcp.tcp.rcv_buf_max = 512 * 1024;
    SocketFactory tcp_cf(rig.client(), ttc), tcp_sf(rig.server(), ttc);
    std::unique_ptr<BulkReceiver> tcp_rx;
    tcp_sf.listen(81, [&](StreamSocket& s) {
      tcp_rx = std::make_unique<BulkReceiver>(s, false);
    });
    StreamSocket& tcp_cli =
        tcp_cf.connect(rig.client_addr(0), Endpoint{rig.server_addr(), 81});
    BulkSender tcp_tx(tcp_cli, 0);

    rig.loop().run_until(5 * kSecond);
    const uint64_t m0 = mp_rx->bytes_received(), t0 = tcp_rx->bytes_received();
    rig.loop().run_until(45 * kSecond);
    const double m = (mp_rx->bytes_received() - m0) * 8.0 / 40.0;
    const double t = (tcp_rx->bytes_received() - t0) * 8.0 / 40.0;
    std::printf("%-12s %14.2f %14.2f %17.1f%%\n",
                coupled ? "coupled" : "uncoupled", m / 1e6, t / 1e6,
                100.0 * m / (m + t));
  }
  std::printf("(coupled should sit near or below 50%%: one fair share for "
              "the whole connection;\n uncoupled above it -- toward 67%% in "
              "the fluid limit -- because each subflow\n claims its own "
              "share; drop-tail loss synchronization damps the gap.)\n");
}

void backup_ablation() {
  std::printf("\n# Ablation 3: backup subflow policy, WiFi primary + 3G "
              "demoted to backup via MP_PRIO (Mbps)\n");
  std::printf("%-14s %12s %14s\n", "policy", "goodput", "3G share");
  for (SchedulerPolicy policy :
       {SchedulerPolicy::kLowestRtt, SchedulerPolicy::kBackupAware}) {
    TwoHostRig rig({wifi_path(), threeg_path()});
    MptcpConfig cfg;
    // Buffers well above the WiFi BDP (~20 KB) keep the connection
    // cwnd-limited rather than receive-window-limited -- the regime
    // where the primary is congestion-blocked at pick time and spilling
    // to the backup pays. (Undersized buffers make the meta window the
    // binding constraint instead, and the spill branch never triggers.)
    cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 300 * 1024;
    cfg.scheduler = policy;
    MptcpStack cs(rig.client(), cfg), ss(rig.server(), cfg);
    std::unique_ptr<BulkReceiver> rx;
    ss.listen(80, [&](MptcpConnection& c) {
      rx = std::make_unique<BulkReceiver>(c, false);
    });
    MptcpConnection& cc =
        cs.connect(rig.client_addr(0), Endpoint{rig.server_addr(), 80});
    BulkSender tx(cc, 0);
    // Demote every 3G subflow once the mesh is up.
    rig.loop().schedule_in(500 * kMillisecond, [&] {
      for (size_t i = 0; i < cc.subflow_count(); ++i) {
        if (cc.subflow(i)->local().addr == rig.client_addr(1)) {
          cc.set_subflow_backup(i, true);
        }
      }
    });
    rig.loop().run_until(5 * kSecond);
    const uint64_t r0 = rx->bytes_received();
    rig.loop().run_until(25 * kSecond);
    uint64_t total = 0, backup = 0;
    for (size_t i = 0; i < cc.subflow_count(); ++i) {
      total += cc.subflow(i)->stats().bytes_sent;
      if (cc.subflow(i)->backup()) backup += cc.subflow(i)->stats().bytes_sent;
    }
    const double good = (rx->bytes_received() - r0) * 8.0 / 20.0;
    std::printf("%-14s %12.2f %13.1f%%\n",
                std::string(to_string(policy)).c_str(), good / 1e6,
                100.0 * static_cast<double>(backup) /
                    static_cast<double>(std::max<uint64_t>(total, 1)));
  }
  std::printf("(lowest-rtt idles the backup entirely; backup-aware spills "
              "onto it only while\n every primary is window-blocked, so its "
              "3G share should be small but nonzero.)\n");
}

}  // namespace

int main() {
  scheduler_ablation(/*with_mechanisms=*/true);
  std::printf("\n");
  scheduler_ablation(/*with_mechanisms=*/false);
  fairness_ablation();
  backup_ablation();
  return 0;
}
