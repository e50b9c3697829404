// Section 4.1 interoperability matrix: one row per middlebox behaviour,
// reporting the connection's final operating mode and whether the
// transfer completed intact. The "never break where TCP works" claim,
// demonstrated end to end.
#include <cstdio>
#include <functional>
#include <memory>

#include "bench_util.h"
#include "middlebox/nat.h"
#include "middlebox/option_stripper.h"
#include "middlebox/payload_modifier.h"
#include "middlebox/proactive_acker.h"
#include "middlebox/segment_coalescer.h"
#include "middlebox/segment_splitter.h"
#include "middlebox/seq_rewriter.h"

using namespace mptcp;
using namespace mptcp::bench;

namespace {

constexpr uint64_t kTransfer = 300 * 1000;

struct Outcome {
  MptcpMode client_mode = MptcpMode::kNegotiating;
  uint64_t received = 0;
  bool intact = false;
  bool eof = false;
  uint64_t checksum_failures = 0;
  uint64_t subflow_resets = 0;
};

/// Runs the standard WiFi+3G transfer with `splice` installing the
/// middlebox into the rig before traffic starts.
Outcome run_case(size_t n_paths,
                 const std::function<void(TwoHostRig&)>& splice) {
  TwoHostRig rig(n_paths > 1 ? std::vector{wifi_path(), threeg_path()}
                             : std::vector{wifi_path()});
  splice(rig);

  MptcpConfig cfg;
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 512 * 1024;
  MptcpStack cs(rig.client(), cfg), ss(rig.server(), cfg);
  MptcpConnection* sconn = nullptr;
  std::unique_ptr<BulkReceiver> rx;
  ss.listen(80, [&](MptcpConnection& c) {
    if (sconn == nullptr) {
      sconn = &c;
      rx = std::make_unique<BulkReceiver>(c);
    }
  });
  MptcpConnection& cc =
      cs.connect(rig.client_addr(0), Endpoint{rig.server_addr(), 80});
  BulkSender tx(cc, kTransfer);
  rig.loop().run_until(60 * kSecond);

  Outcome out;
  out.client_mode = cc.mode();
  out.received = rx ? rx->bytes_received() : 0;
  out.intact = rx && rx->pattern_ok();
  out.eof = rx && rx->saw_eof();
  if (sconn != nullptr) {
    out.checksum_failures = sconn->meta_stats().checksum_failures;
    out.subflow_resets = sconn->meta_stats().subflow_resets;
  }
  return out;
}

const char* mode_str(MptcpMode m) {
  switch (m) {
    case MptcpMode::kMptcp: return "MPTCP";
    case MptcpMode::kFallbackTcp: return "fallback-TCP";
    case MptcpMode::kNegotiating: return "negotiating";
  }
  return "?";
}

void report(const char* name, const Outcome& o) {
  std::printf("%-34s %-14s %10llu/%llu  intact=%-3s eof=%-3s csumfail=%llu "
              "sf_resets=%llu\n",
              name, mode_str(o.client_mode),
              static_cast<unsigned long long>(o.received),
              static_cast<unsigned long long>(kTransfer),
              o.intact ? "yes" : "NO", o.eof ? "yes" : "NO",
              static_cast<unsigned long long>(o.checksum_failures),
              static_cast<unsigned long long>(o.subflow_resets));
}

}  // namespace

int main() {
  std::printf("# Section 4.1 middlebox interop matrix (300KB transfer, "
              "WiFi+3G)\n");

  {
    Outcome o = run_case(2, [](TwoHostRig&) {});
    report("(none)", o);
  }
  {
    static OptionStripper strip(OptionStripper::Scope::kSynOnly,
                                OptionStripper::What::kMpCapable);
    Outcome o = run_case(2, [](TwoHostRig& rig) {
      rig.splice_up(0, strip);
    });
    report("strip MP_CAPABLE from SYN", o);
  }
  {
    static OptionStripper strip(OptionStripper::Scope::kNonSynOnly,
                                OptionStripper::What::kAllMptcp);
    static OptionStripper strip2(OptionStripper::Scope::kNonSynOnly,
                                 OptionStripper::What::kAllMptcp);
    Outcome o = run_case(1, [](TwoHostRig& rig) {
      rig.splice_up(0, strip);
      rig.splice_down(0, strip2);
    });
    report("strip options from data pkts", o);
  }
  {
    static OptionStripper strip(OptionStripper::Scope::kSynOnly,
                                OptionStripper::What::kMpJoin);
    Outcome o = run_case(2, [](TwoHostRig& rig) {
      rig.splice_up(1, strip);
    });
    report("strip MP_JOIN (join path)", o);
  }
  {
    static SeqRewriter rw;
    Outcome o = run_case(2, [](TwoHostRig& rig) {
      rig.splice_up(0, rw.forward_sink());
      rig.splice_down(0, rw.reverse_sink());
    });
    report("ISN rewriting firewall", o);
  }
  {
    static Nat nat(IpAddr(192, 0, 2, 1));
    Outcome o = run_case(2, [](TwoHostRig& rig) {
      rig.splice_up(1, nat.forward_sink());
      rig.splice_down(1, nat.reverse_sink());
      rig.topo().alias_route(nat.public_addr(), rig.client_addr(1));
    });
    report("NAT on join path", o);
  }
  {
    static SegmentSplitter split(536);
    Outcome o = run_case(2, [](TwoHostRig& rig) {
      rig.splice_up(0, split);
    });
    report("TSO-style segment splitting", o);
  }
  {
    static std::unique_ptr<SegmentCoalescer> coalesce;
    Outcome o = run_case(2, [](TwoHostRig& rig) {
      coalesce = std::make_unique<SegmentCoalescer>(rig.loop(),
                                                    5 * kMillisecond);
      rig.splice_up(0, *coalesce);
    });
    report("coalescing traffic normalizer", o);
  }
  {
    static ProactiveAcker proxy;
    Outcome o = run_case(2, [](TwoHostRig& rig) {
      rig.splice_up(0, proxy.forward_sink());
      proxy.reverse_sink().set_downstream(&rig.client());
    });
    report("pro-active ACKing proxy", o);
  }
  {
    static PayloadModifier alg(3);
    Outcome o = run_case(2, [](TwoHostRig& rig) {
      rig.splice_up(1, alg);
    });
    report("payload-modifying ALG (1 of 2)", o);
  }
  {
    static PayloadModifier alg(5);
    Outcome o = run_case(1, [](TwoHostRig& rig) {
      rig.splice_up(0, alg);
    });
    report("payload-modifying ALG (only path)", o);
  }
  {
    static HoleDropper dropper;
    Outcome o = run_case(2, [](TwoHostRig& rig) {
      rig.splice_up(0, dropper);
    });
    report("data-after-hole dropper", o);
  }
  return 0;
}
