// mptcpsim: a command-line scenario runner for the library.
//
// Runs a configurable bulk transfer and prints a summary; optionally
// writes a pcap of the first path for inspection in Wireshark.
//
//   mptcpsim [options]
//     --paths wifi,3g          comma list: wifi | 3g | weak3g | eth1g |
//                              eth100m | capped-wifi | capped-3g
//     --buffer KB              connection-level snd/rcv buffer (default 512)
//     --seconds N              simulated duration (default 20)
//     --scheduler P            lowest-rtt | round-robin | redundant
//     --no-m1 --no-m2          disable opportunistic rtx / penalization
//     --autotune               enable buffer autotuning (M3)
//     --cap                    enable cwnd capping (M4)
//     --no-checksum            disable DSS checksums
//     --tcp                    plain TCP on the first path instead of MPTCP
//     --pcap FILE              capture path 0 (both directions)
//
// Example:
//   ./build/examples/mptcpsim --paths wifi,3g --buffer 200 --pcap out.pcap
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "app/bulk_app.h"
#include "app/scenario.h"
#include "core/mptcp_stack.h"
#include "sim/pcap.h"
#include "tcp/tcp_connection.h"

using namespace mptcp;

namespace {

PathSpec path_by_name(const std::string& name) {
  if (name == "wifi") return wifi_path();
  if (name == "3g") return threeg_path();
  if (name == "weak3g") return weak_threeg_path();
  if (name == "eth1g") return ethernet_path(1e9);
  if (name == "eth100m") return ethernet_path(100e6);
  if (name == "capped-wifi") return capped_wifi_path();
  if (name == "capped-3g") return capped_threeg_path();
  std::fprintf(stderr, "unknown path '%s'\n", name.c_str());
  std::exit(2);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep)) out.push_back(item);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> path_names = {"wifi", "3g"};
  size_t buffer_kb = 512;
  int seconds = 20;
  MptcpConfig cfg;
  bool plain_tcp = false;
  std::string pcap_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--paths") {
      path_names = split(next(), ',');
    } else if (arg == "--buffer") {
      buffer_kb = std::stoul(next());
    } else if (arg == "--seconds") {
      seconds = std::stoi(next());
    } else if (arg == "--scheduler") {
      const std::string p = next();
      cfg.scheduler = p == "round-robin" ? SchedulerPolicy::kRoundRobin
                      : p == "redundant" ? SchedulerPolicy::kRedundant
                                         : SchedulerPolicy::kLowestRtt;
    } else if (arg == "--no-m1") {
      cfg.opportunistic_retransmit = false;
    } else if (arg == "--no-m2") {
      cfg.penalize_slow_subflows = false;
    } else if (arg == "--autotune") {
      cfg.meta_autotune = true;
      cfg.tcp.autotune = true;
    } else if (arg == "--cap") {
      cfg.cap_subflow_cwnd = true;
    } else if (arg == "--no-checksum") {
      cfg.dss_checksum = false;
    } else if (arg == "--tcp") {
      plain_tcp = true;
    } else if (arg == "--pcap") {
      pcap_path = next();
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return 2;
    }
  }
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = buffer_kb * 1000;
  cfg.enabled = !plain_tcp;

  std::vector<PathSpec> paths;
  for (const auto& name : path_names) paths.push_back(path_by_name(name));
  TwoHostRig rig(paths);

  std::unique_ptr<PcapWriter> pcap;
  std::unique_ptr<PcapTap> tap_up, tap_down;
  if (!pcap_path.empty()) {
    pcap = std::make_unique<PcapWriter>(pcap_path);
    if (!pcap->ok()) {
      std::fprintf(stderr, "cannot open %s\n", pcap_path.c_str());
      return 1;
    }
    tap_up = std::make_unique<PcapTap>(rig.loop(), *pcap);
    tap_down = std::make_unique<PcapTap>(rig.loop(), *pcap);
    rig.splice_up(0, *tap_up);
    rig.splice_down(0, *tap_down);
  }

  MptcpStack client_stack(rig.client(), cfg);
  MptcpStack server_stack(rig.server(), cfg);
  std::unique_ptr<BulkReceiver> rx;
  MptcpConnection* server_conn = nullptr;
  server_stack.listen(80, [&](MptcpConnection& c) {
    server_conn = &c;
    rx = std::make_unique<BulkReceiver>(c);
  });
  MptcpConnection& conn =
      client_stack.connect(rig.client_addr(0), {rig.server_addr(), 80});
  BulkSender tx(conn, 0);

  const SimTime warmup = 2 * kSecond;
  rig.loop().run_until(warmup);
  const uint64_t rx0 = rx ? rx->bytes_received() : 0;
  rig.loop().run_until(warmup + static_cast<SimTime>(seconds) * kSecond);

  std::printf("scenario : %s, buffer %zu KB, %s, %d s\n",
              [&] {
                std::string s;
                for (const auto& n : path_names) {
                  s += (s.empty() ? "" : "+") + n;
                }
                return s;
              }()
                  .c_str(),
              buffer_kb,
              plain_tcp ? "plain TCP"
                        : std::string(to_string(cfg.scheduler)).c_str(),
              seconds);
  std::printf("mode     : %s\n", conn.mode() == MptcpMode::kMptcp
                                     ? "MPTCP"
                                     : "fallback TCP");
  const double goodput =
      static_cast<double>(rx->bytes_received() - rx0) * 8.0 / seconds;
  std::printf("goodput  : %.3f Mbps\n", goodput / 1e6);
  std::printf("integrity: %s\n", rx->pattern_ok() ? "OK" : "BROKEN");
  for (size_t i = 0; i < conn.subflow_count(); ++i) {
    const MptcpSubflow* sf = conn.subflow(i);
    std::printf("subflow %zu: via %-10s sent %9.1f KB  rtx %llu  srtt "
                "%6.1f ms\n",
                i, sf->local().addr.str().c_str(),
                static_cast<double>(sf->stats().bytes_sent) / 1e3,
                static_cast<unsigned long long>(sf->stats().retransmits),
                static_cast<double>(sf->srtt()) / 1e6);
  }
  std::printf("M1 opportunistic rtx: %llu, M2 penalizations: %llu\n",
              static_cast<unsigned long long>(
                  conn.meta_stats().opportunistic_retransmits),
              static_cast<unsigned long long>(
                  conn.meta_stats().penalizations));
  if (pcap) {
    std::printf("pcap     : %llu packets -> %s\n",
                static_cast<unsigned long long>(pcap->packets_written()),
                pcap_path.c_str());
  }
  return 0;
}
