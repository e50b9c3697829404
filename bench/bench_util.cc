#include "bench_util.h"

#include <cstdlib>
#include <thread>

namespace mptcp {
namespace bench {

namespace {

MptcpConfig make_config(const RunConfig& cfg) {
  MptcpConfig m;
  m.meta_snd_buf_max = cfg.buffer_bytes;
  m.meta_rcv_buf_max = cfg.buffer_bytes;
  m.opportunistic_retransmit = cfg.variant.m1_opportunistic;
  m.penalize_slow_subflows = cfg.variant.m2_penalize;
  m.meta_autotune = cfg.variant.m3_autotune;
  m.cap_subflow_cwnd = cfg.variant.m4_cap;
  m.tcp.autotune = cfg.variant.m3_autotune;
  m.tcp.seed = cfg.seed;
  return m;
}

}  // namespace

RunResult run_mptcp(const RunConfig& cfg) {
  TwoHostRig rig(cfg.paths, cfg.seed);

  MptcpStack client_stack(rig.client(), make_config(cfg));
  MptcpStack server_stack(rig.server(), make_config(cfg));

  MptcpConnection* server_conn = nullptr;
  std::unique_ptr<BulkReceiver> bulk_rx;
  std::unique_ptr<BlockReceiver> block_rx;
  server_stack.listen(80, [&](MptcpConnection& c) {
    server_conn = &c;
    if (cfg.measure_block_delay) {
      block_rx = std::make_unique<BlockReceiver>(rig.loop(), c);
    } else {
      bulk_rx = std::make_unique<BulkReceiver>(c, /*verify=*/false);
    }
  });

  MptcpConnection& client = client_stack.connect(
      rig.client_addr(0), Endpoint{rig.server_addr(), 80});
  std::unique_ptr<BulkSender> bulk_tx;
  std::unique_ptr<BlockSender> block_tx;
  if (cfg.measure_block_delay) {
    block_tx = std::make_unique<BlockSender>(rig.loop(), client);
  } else {
    bulk_tx = std::make_unique<BulkSender>(client, 0);
  }

  rig.loop().run_until(cfg.warmup);
  const uint64_t rx0 = cfg.measure_block_delay
                           ? block_rx->blocks_completed() * 8192
                           : bulk_rx->bytes_received();
  uint64_t tx0 = 0;
  for (size_t i = 0; i < client.subflow_count(); ++i) {
    tx0 += client.subflow(i)->stats().bytes_sent;
  }

  TimeSeries snd_mem, rcv_mem;
  PeriodicSampler sampler(rig.loop(), 10 * kMillisecond, [&](SimTime t) {
    snd_mem.record(t, static_cast<double>(client.sender_memory()));
    if (server_conn != nullptr) {
      rcv_mem.record(t, static_cast<double>(server_conn->receiver_memory()));
    }
  });

  rig.loop().run_until(cfg.warmup + cfg.duration);

  RunResult out;
  const double secs = to_seconds(cfg.duration);
  const uint64_t rx1 = cfg.measure_block_delay
                           ? block_rx->blocks_completed() * 8192
                           : bulk_rx->bytes_received();
  uint64_t tx1 = 0;
  for (size_t i = 0; i < client.subflow_count(); ++i) {
    tx1 += client.subflow(i)->stats().bytes_sent;
  }
  out.goodput_bps = static_cast<double>(rx1 - rx0) * 8.0 / secs;
  out.throughput_bps = static_cast<double>(tx1 - tx0) * 8.0 / secs;
  out.snd_mem_mean = snd_mem.mean();
  out.rcv_mem_mean = rcv_mem.mean();
  out.m1_count = client.meta_stats().opportunistic_retransmits;
  out.m2_count = client.meta_stats().penalizations;
  if (cfg.measure_block_delay) out.app_delays = block_rx->delays();
  if (!cfg.stats_out.empty()) {
    if (std::FILE* f = std::fopen(cfg.stats_out.c_str(), "w")) {
      std::fputs(rig.dump_stats().c_str(), f);
      std::fclose(f);
    }
  }
  return out;
}

RunResult run_tcp(const RunConfig& cfg, size_t path_index) {
  TwoHostRig rig(cfg.paths, cfg.seed);

  TransportConfig tc;
  tc.kind = TransportKind::kTcp;
  tc.mptcp.tcp.snd_buf_max = cfg.buffer_bytes;
  tc.mptcp.tcp.rcv_buf_max = cfg.buffer_bytes;
  tc.mptcp.tcp.autotune = cfg.variant.m3_autotune;
  tc.mptcp.tcp.seed = cfg.seed;
  SocketFactory client_factory(rig.client(), tc);
  SocketFactory server_factory(rig.server(), tc);

  TcpConnection* server_conn = nullptr;
  std::unique_ptr<BulkReceiver> bulk_rx;
  std::unique_ptr<BlockReceiver> block_rx;
  server_factory.listen(80, [&](StreamSocket& s) {
    server_conn = server_factory.as_tcp(s);
    if (cfg.measure_block_delay) {
      block_rx = std::make_unique<BlockReceiver>(rig.loop(), s);
    } else {
      bulk_rx = std::make_unique<BulkReceiver>(s, false);
    }
  });

  StreamSocket& client_sock = client_factory.connect(
      rig.client_addr(path_index), Endpoint{rig.server_addr(), 80});
  TcpConnection& client = *client_factory.as_tcp(client_sock);
  std::unique_ptr<BulkSender> bulk_tx;
  std::unique_ptr<BlockSender> block_tx;
  if (cfg.measure_block_delay) {
    block_tx = std::make_unique<BlockSender>(rig.loop(), client_sock);
  } else {
    bulk_tx = std::make_unique<BulkSender>(client_sock, 0);
  }

  rig.loop().run_until(cfg.warmup);
  const uint64_t rx0 = cfg.measure_block_delay
                           ? block_rx->blocks_completed() * 8192
                           : bulk_rx->bytes_received();
  const uint64_t tx0 = client.stats().bytes_sent;

  TimeSeries snd_mem, rcv_mem;
  PeriodicSampler sampler(rig.loop(), 10 * kMillisecond, [&](SimTime t) {
    snd_mem.record(t, static_cast<double>(client.snd_buf_in_use()));
    if (server_conn) {
      rcv_mem.record(t, static_cast<double>(server_conn->rcv_buf_in_use()));
    }
  });

  rig.loop().run_until(cfg.warmup + cfg.duration);

  RunResult out;
  const double secs = to_seconds(cfg.duration);
  const uint64_t rx1 = cfg.measure_block_delay
                           ? block_rx->blocks_completed() * 8192
                           : bulk_rx->bytes_received();
  out.goodput_bps = static_cast<double>(rx1 - rx0) * 8.0 / secs;
  out.throughput_bps =
      static_cast<double>(client.stats().bytes_sent - tx0) * 8.0 / secs;
  out.snd_mem_mean = snd_mem.mean();
  out.rcv_mem_mean = rcv_mem.mean();
  if (cfg.measure_block_delay) out.app_delays = block_rx->delays();
  return out;
}

size_t clamp_shards(size_t requested) {
  if (requested <= 1) return requested;
  if (std::getenv("MPTCP_ALLOW_OVERSUBSCRIBE") != nullptr) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  const size_t cores = hw == 0 ? 1 : hw;
  if (requested <= cores) return requested;
  std::fprintf(stderr,
               "warning: --shards %zu exceeds the %zu hardware threads; "
               "clamping to %zu (set MPTCP_ALLOW_OVERSUBSCRIBE=1 to keep "
               "the requested count)\n",
               requested, cores, cores);
  return cores;
}

bool write_json(const std::string& path,
                const std::vector<std::pair<std::string, double>>& fields) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n");
  for (size_t i = 0; i < fields.size(); ++i) {
    std::fprintf(f, "  \"%s\": %.6g%s\n", fields[i].first.c_str(),
                 fields[i].second, i + 1 < fields.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

void print_header(const std::string& xlabel,
                  const std::vector<std::string>& series) {
  std::printf("%-14s", xlabel.c_str());
  for (const auto& s : series) std::printf("%22s", s.c_str());
  std::printf("\n");
}

void print_row(const std::string& label, const std::vector<double>& mbps) {
  std::printf("%-14s", label.c_str());
  for (double v : mbps) std::printf("%22.3f", v);
  std::printf("\n");
}

}  // namespace bench
}  // namespace mptcp
