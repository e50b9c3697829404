// The middlebox gauntlet: one MPTCP connection, five middleboxes at once.
//
// The deployability thesis of the paper in a single run: a connection
// that simultaneously traverses a NAT, an ISN-rewriting firewall, a
// TSO-style splitter, a pro-active ACKing proxy and (on its second path)
// a payload-modifying ALG must still deliver the stream intact -- the ALG
// path is detected by the DSS checksum and reset, everything else is
// absorbed by the protocol design.
//
// Build & run:  ./build/examples/middlebox_gauntlet
#include <cstdio>

#include "app/bulk_app.h"
#include "app/scenario.h"
#include "core/mptcp_stack.h"
#include "middlebox/nat.h"
#include "middlebox/payload_modifier.h"
#include "middlebox/proactive_acker.h"
#include "middlebox/segment_splitter.h"
#include "middlebox/seq_rewriter.h"

using namespace mptcp;

int main() {
  std::printf("Middlebox gauntlet: NAT + ISN rewriter + TSO splitter + "
              "PEP proxy on path 0,\n"
              "payload-modifying ALG on path 1. One 2 MB MPTCP transfer.\n\n");

  TwoHostRig rig({wifi_path(), threeg_path()});

  // Path 0 forward chain: proxy -> rewriter -> splitter -> gateway (the
  // most recent splice sees packets first).
  SegmentSplitter splitter(536);
  SeqRewriter rewriter;
  ProactiveAcker proxy;
  rig.splice_up(0, splitter);
  rig.splice_up(0, rewriter.forward_sink());
  rig.splice_up(0, proxy.forward_sink());
  proxy.reverse_sink().set_downstream(&rig.client());
  // Reverse chain on path 0 undoes the rewriting for ACKs.
  rig.splice_down(0, rewriter.reverse_sink());

  // Path 1: NAT (with return routing) and a content-modifying ALG.
  Nat nat(IpAddr(192, 0, 2, 1));
  PayloadModifier alg(/*every Nth data segment=*/4);
  rig.splice_up(1, nat.forward_sink());
  rig.splice_up(1, alg);
  rig.splice_down(1, nat.reverse_sink());
  rig.topo().alias_route(nat.public_addr(), rig.client_addr(1));

  MptcpConfig cfg;
  cfg.meta_snd_buf_max = cfg.meta_rcv_buf_max = 512 * 1024;
  MptcpStack client_stack(rig.client(), cfg);
  MptcpStack server_stack(rig.server(), cfg);

  MptcpConnection* server_conn = nullptr;
  std::unique_ptr<BulkReceiver> receiver;
  server_stack.listen(80, [&](MptcpConnection& conn) {
    if (server_conn == nullptr) {
      server_conn = &conn;
      receiver = std::make_unique<BulkReceiver>(conn);
    }
  });
  MptcpConnection& client = client_stack.connect(
      rig.client_addr(0), Endpoint{rig.server_addr(), 80});
  BulkSender sender(client, 2 * 1000 * 1000);

  rig.loop().run_until(60 * kSecond);

  std::printf("outcome:\n");
  std::printf("  transfer          : %llu/2000000 bytes, integrity %s, "
              "eof %s\n",
              static_cast<unsigned long long>(receiver->bytes_received()),
              receiver->pattern_ok() ? "OK" : "BROKEN",
              receiver->saw_eof() ? "yes" : "no");
  std::printf("  mode              : %s\n",
              client.mode() == MptcpMode::kMptcp ? "MPTCP" : "fallback TCP");
  std::printf("  splitter splits   : %llu\n",
              static_cast<unsigned long long>(splitter.splits()));
  std::printf("  rewritten flows   : %zu\n", rewriter.flows_tracked());
  std::printf("  NAT mappings      : %zu\n", nat.mappings());
  std::printf("  forged proxy ACKs : %llu\n",
              static_cast<unsigned long long>(proxy.forged_acks()));
  std::printf("  ALG modifications : %llu\n",
              static_cast<unsigned long long>(alg.segments_modified()));
  if (server_conn != nullptr) {
    std::printf("  checksum failures : %llu (subflow resets: %llu)\n",
                static_cast<unsigned long long>(
                    server_conn->meta_stats().checksum_failures),
                static_cast<unsigned long long>(
                    server_conn->meta_stats().subflow_resets));
  }
  std::printf("\nThe ALG-riddled path was detected and abandoned; the "
              "stream arrived intact\nthrough four other middleboxes.\n");
  return 0;
}
