#include "app/digest.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "app/bulk_app.h"
#include "app/fleet.h"
#include "app/http_app.h"
#include "app/scenario.h"
#include "app/workload.h"
#include "core/mptcp_stack.h"
#include "sim/node.h"
#include "sim/shard.h"

namespace mptcp {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

inline void fnv_byte(uint64_t& h, uint8_t b) {
  h ^= b;
  h *= kFnvPrime;
}

inline void fnv_u64(uint64_t& h, uint64_t v) {
  for (int i = 0; i < 8; ++i) fnv_byte(h, static_cast<uint8_t>(v >> (8 * i)));
}

/// A transparent link tap: hashes every segment it sees in delivery order,
/// then forwards it unmodified to the link's original target.
class HashingTap final : public Middlebox {
 public:
  HashingTap(EventLoop& loop, uint64_t& hash, uint64_t& packets)
      : loop_(loop), hash_(hash), packets_(packets) {}

  void deliver(TcpSegment seg) override {
    ++packets_;
    fnv_u64(hash_, static_cast<uint64_t>(loop_.now()));
    fnv_u64(hash_, uint64_t{seg.tuple.src.addr.value} << 16 |
                       seg.tuple.src.port);
    fnv_u64(hash_, uint64_t{seg.tuple.dst.addr.value} << 16 |
                       seg.tuple.dst.port);
    fnv_u64(hash_, seg.seq);
    fnv_u64(hash_, seg.ack);
    fnv_u64(hash_, seg.window);
    fnv_byte(hash_, static_cast<uint8_t>((seg.syn ? 1 : 0) |
                                         (seg.ack_flag ? 2 : 0) |
                                         (seg.fin ? 4 : 0) |
                                         (seg.rst ? 8 : 0) |
                                         (seg.psh ? 16 : 0)));
    fnv_u64(hash_, seg.options_wire_size());
    fnv_u64(hash_, seg.payload.size());
    for (uint8_t b : seg.payload.span()) fnv_byte(hash_, b);
    emit(std::move(seg));
  }

 private:
  EventLoop& loop_;
  uint64_t& hash_;
  uint64_t& packets_;
};

/// Folds what the applications saw, per workload class: flow and request
/// outcomes plus the count and sum of each FCT histogram.
void fold_outcomes(uint64_t& hash, const WorkloadEngine& e) {
  for (size_t k = 0; k < e.class_count(); ++k) {
    for (uint64_t v : {e.started(k), e.completed(k), e.errors(k),
                       e.bytes_received(k), e.requests_rejected(k),
                       e.fct_us(k).count(), e.fct_us(k).sum()}) {
      fnv_u64(hash, v);
    }
    if (const FineHistogram* req = e.request_fct_us(k)) {
      fnv_u64(hash, req->count());
      fnv_u64(hash, req->sum());
    }
  }
}

/// FNV-1a over the distinct stats key names, each in its canonical_key()
/// form.
uint64_t schema_hash(const std::map<std::string, double>& flat) {
  std::set<std::string> names;
  for (const auto& entry : flat) names.insert(canonical_key(entry.first));
  uint64_t hash = kFnvOffset;
  for (const std::string& name : names) {
    for (char c : name) fnv_byte(hash, static_cast<uint8_t>(c));
    fnv_byte(hash, '\n');
  }
  return hash;
}

/// Records a topology's stats export and its schema hash.
void record_stats(DigestResult& out, Topology& topo) {
  out.stats_json = topo.dump_stats();
  out.schema =
      schema_hash(StatsRegistry::merged_flatten(topo.shard_stats()));
}

DigestResult run_two_host_digest(const DigestConfig& cfg) {
  DigestResult out;
  uint64_t hash = kFnvOffset;

  TwoHostRig rig({wifi_path(), weak_threeg_path(cfg.loss)}, cfg.seed);

  // Tap all four link directions before any traffic flows.
  std::vector<std::unique_ptr<HashingTap>> taps;
  for (size_t i = 0; i < rig.path_count(); ++i) {
    for (bool up : {true, false}) {
      auto tap = std::make_unique<HashingTap>(rig.loop(), hash,
                                              out.packets_hashed);
      if (up) {
        rig.splice_up(i, *tap);
      } else {
        rig.splice_down(i, *tap);
      }
      taps.push_back(std::move(tap));
    }
  }

  MptcpConfig mc;
  mc.opportunistic_retransmit = true;  // Mechanism 1
  mc.penalize_slow_subflows = true;    // Mechanism 2
  mc.scheduler = cfg.scheduler;
  mc.tcp.seed = cfg.seed;

  MptcpStack client_stack(rig.client(), mc);
  MptcpStack server_stack(rig.server(), mc);

  std::unique_ptr<BulkReceiver> rx;
  server_stack.listen(80, [&](MptcpConnection& c) {
    rx = std::make_unique<BulkReceiver>(c, /*verify=*/false);
  });
  MptcpConnection& client = client_stack.connect(
      rig.client_addr(0), Endpoint{rig.server_addr(), 80});
  BulkSender tx(client, 0);

  rig.loop().run_until(cfg.duration);

  out.bytes_delivered = rx != nullptr ? rx->bytes_received() : 0;
  record_stats(out, rig.topo());
  fnv_u64(hash, out.bytes_delivered);

  out.digest = hash;
  return out;
}

/// Scale-out digest: a small capacity topology (4 dual-homed clients, 2
/// servers, 2 shared bottlenecks) under a churning MPTCP workload, with
/// every bottleneck crossing hashed in delivery order.
DigestResult run_capacity_digest(const DigestConfig& cfg) {
  DigestResult out;
  uint64_t hash = kFnvOffset;

  CapacitySpec spec;
  spec.clients = 4;
  spec.servers = 2;
  spec.bottleneck_rate_bps = 200e6;
  CapacityTopology cap = build_capacity_topology(spec, cfg.seed);
  Topology& topo = *cap.topo;

  // Tap both directions of both bottlenecks before any traffic flows.
  std::vector<std::unique_ptr<HashingTap>> taps;
  for (size_t l : {cap.bottleneck_a, cap.bottleneck_b}) {
    for (bool ab : {true, false}) {
      auto tap = std::make_unique<HashingTap>(topo.loop(), hash,
                                              out.packets_hashed);
      if (ab) {
        topo.splice_ab(l, *tap);
      } else {
        topo.splice_ba(l, *tap);
      }
      taps.push_back(std::move(tap));
    }
  }

  WorkloadConfig wc;
  wc.clients = cap.clients;
  wc.servers = cap.servers;
  wc.seed = cfg.seed;
  FlowClass churn;
  churn.name = "churn";
  churn.arrival_rate_hz = 20.0;
  churn.size_dist = FlowClass::SizeDist::kExponential;
  churn.mean_size = 30 * 1000;
  churn.max_size = 300 * 1000;
  churn.persistent_per_client = 5;
  churn.transport.mptcp.scheduler = cfg.scheduler;
  churn.transport.mptcp.meta_snd_buf_max = 64 * 1024;
  churn.transport.mptcp.meta_rcv_buf_max = 64 * 1024;
  churn.transport.mptcp.tcp.snd_buf_max = 32 * 1024;
  churn.transport.mptcp.tcp.rcv_buf_max = 32 * 1024;
  churn.transport.mptcp.tcp.seed = cfg.seed;
  wc.classes.push_back(churn);

  WorkloadEngine engine(topo, wc);
  engine.start();
  topo.loop().run_until(cfg.duration);

  out.bytes_delivered = engine.bytes_received(0);
  record_stats(out, topo);
  fold_outcomes(hash, engine);

  out.digest = hash;
  return out;
}

/// Sharded capacity digest: a ring of capacity cells pinned round-robin
/// onto `cfg.shards` shards, with a local churn class per cell plus a
/// cross-cell class whose every byte traverses the ring -- i.e. the
/// channel/epoch-barrier handoff path when shards > 1. Each tap owns its
/// hash (taps on different shards run on different threads); the final
/// digest folds the per-tap hashes in tap creation order, then every
/// engine's outcomes. Bit-stable for a fixed shard count; *not*
/// comparable across shard counts (cross-cell arrivals tie-break
/// differently against same-timestamp local events).
DigestResult run_sharded_capacity_digest(const DigestConfig& cfg) {
  DigestResult out;

  ShardedCapacitySpec spec;
  spec.cells = 4;
  spec.cell.clients = 2;
  spec.cell.servers = 1;
  spec.cell.bottleneck_rate_bps = 100e6;
  ShardedCapacity net = build_sharded_capacity(spec, cfg.seed, cfg.shards);
  Topology& topo = *net.topo;

  // One hash per tap, preallocated so addresses stay stable while taps
  // hold references. Order: per cell bottleneck-a {ab, ba} then
  // bottleneck-b {ab, ba}, then each ring link {ab, ba}.
  const size_t tap_count = spec.cells * 4 + net.ring_links.size() * 2;
  std::vector<uint64_t> hashes(tap_count, kFnvOffset);
  std::vector<uint64_t> packets(tap_count, 0);
  std::vector<std::unique_ptr<HashingTap>> taps;
  size_t ti = 0;
  const auto tap_link = [&](size_t l, bool ab) {
    // The tap runs on the delivery side of the link: the shard of the
    // node the direction points at.
    const NodeId dst = ab ? topo.link_node_b(l) : topo.link_node_a(l);
    auto tap = std::make_unique<HashingTap>(topo.loop(topo.shard_of(dst)),
                                            hashes[ti], packets[ti]);
    ++ti;
    if (ab) {
      topo.splice_ab(l, *tap);
    } else {
      topo.splice_ba(l, *tap);
    }
    taps.push_back(std::move(tap));
  };
  for (const ShardedCapacity::Cell& cell : net.cells) {
    for (size_t l : {cell.bottleneck_a, cell.bottleneck_b}) {
      tap_link(l, true);
      tap_link(l, false);
    }
  }
  for (size_t l : net.ring_links) {
    tap_link(l, true);
    tap_link(l, false);
  }

  FlowClass local;
  local.name = "local";
  local.arrival_rate_hz = 10.0;
  local.size_dist = FlowClass::SizeDist::kExponential;
  local.mean_size = 30 * 1000;
  local.max_size = 300 * 1000;
  local.persistent_per_client = 2;
  local.transport.mptcp.scheduler = cfg.scheduler;
  local.transport.mptcp.meta_snd_buf_max = 64 * 1024;
  local.transport.mptcp.meta_rcv_buf_max = 64 * 1024;
  local.transport.mptcp.tcp.snd_buf_max = 32 * 1024;
  local.transport.mptcp.tcp.rcv_buf_max = 32 * 1024;
  local.transport.mptcp.tcp.seed = cfg.seed;

  FlowClass cross = local;
  cross.name = "cross";
  cross.arrival_rate_hz = 5.0;
  cross.persistent_per_client = 1;

  ShardedCapacityWorkload workload(net, local, cross, cfg.seed);
  workload.start();
  ShardedEngine engine(topo);
  engine.run_until(cfg.duration);

  uint64_t hash = kFnvOffset;
  for (size_t i = 0; i < tap_count; ++i) {
    fnv_u64(hash, hashes[i]);
    fnv_u64(hash, packets[i]);
    out.packets_hashed += packets[i];
  }
  for (size_t i = 0; i < workload.engine_count(); ++i) {
    fold_outcomes(hash, workload.engine(i));
  }

  out.bytes_delivered = workload.bytes_received();
  record_stats(out, topo);
  out.digest = hash;
  return out;
}

/// Two hosts, one link pair, a single closed-loop client fetching fixed
/// responses back to back. With shards >= 2 the hosts sit in different
/// shards and every packet rides the handoff path; traffic is strictly
/// sequential, so arrival timestamps -- and therefore the per-tap hashes
/// -- must be identical to the single-shard run, so digest(shards=1) ==
/// digest(shards=2) is the epoch-barrier lockstep contract the tests pin.
DigestResult run_pingpong_digest(const DigestConfig& cfg) {
  DigestResult out;
  const size_t shards = cfg.shards == 0 ? 1 : cfg.shards;

  Topology topo(cfg.seed, shards);
  const NodeId ping = topo.add_host("ping", 0);
  const NodeId pong = topo.add_host("pong", shards > 1 ? 1 : 0);
  LinkConfig link;
  link.rate_bps = 10e6;
  link.prop_delay = 10 * kMillisecond;
  link.buffer_bytes = 64 * 1024;
  const size_t l = topo.connect(ping, pong, link, link);
  topo.build_routes();

  uint64_t hash_ab = kFnvOffset;
  uint64_t hash_ba = kFnvOffset;
  uint64_t pkts_ab = 0;
  uint64_t pkts_ba = 0;
  HashingTap tap_ab(topo.loop(topo.shard_of(pong)), hash_ab, pkts_ab);
  HashingTap tap_ba(topo.loop(topo.shard_of(ping)), hash_ba, pkts_ba);
  topo.splice_ab(l, tap_ab);
  topo.splice_ba(l, tap_ba);

  TransportConfig tc;
  tc.mptcp.scheduler = cfg.scheduler;
  tc.mptcp.tcp.seed = cfg.seed;
  SocketFactory server_factory(topo.host(pong), tc);
  SocketFactory client_factory(topo.host(ping), tc);
  HttpServer server(server_factory, 80);
  HttpClientPool client(client_factory, topo.addr(ping),
                        Endpoint{topo.addr(pong), 80}, /*clients=*/1,
                        /*response_size=*/20 * 1024);
  client.start();

  ShardedEngine engine(topo);
  engine.run_until(cfg.duration);

  uint64_t hash = kFnvOffset;
  for (uint64_t h : {hash_ab, hash_ba}) fnv_u64(hash, h);
  for (uint64_t p : {pkts_ab, pkts_ba}) fnv_u64(hash, p);
  out.packets_hashed = pkts_ab + pkts_ba;
  out.bytes_delivered = server.bytes_served();
  record_stats(out, topo);
  out.digest = hash;
  return out;
}

/// Fleet digest: a small heterogeneous population (middlebox gauntlet +
/// mobility events all enabled) with both directions of every island's
/// server wire tapped; the digest folds the per-tap hashes plus the
/// fleet's aggregate outcome counters. Islands are pinned whole to
/// shards, so the per-island packet streams, and therefore this digest,
/// must be identical for --shards 1, 2 and 4.
DigestResult run_fleet_digest(const DigestConfig& cfg) {
  DigestResult out;

  FleetSpec spec;
  spec.clients = 12;
  spec.seed = cfg.seed;
  spec.shards = cfg.shards == 0 ? 1 : cfg.shards;
  spec.duration = cfg.duration;
  spec.rate_max_bps = 20e6;  // keep the digest run cheap
  spec.p_stripper = 0.25;
  spec.p_nat = 0.3;
  spec.p_corrupter = 0.15;
  spec.p_handover = 0.3;
  spec.p_storm = 0.3;
  spec.p_rebind = 0.5;
  spec.arrival_rate_hz = 3.0;
  spec.mean_size = 20 * 1000;
  spec.persistent_per_client = 1;

  FleetEngine fleet(spec);
  Topology& topo = fleet.topo();

  const size_t n = fleet.island_count();
  std::vector<uint64_t> hashes(2 * n, kFnvOffset);
  std::vector<uint64_t> packets(2 * n, 0);
  std::vector<std::unique_ptr<HashingTap>> taps;
  taps.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    const size_t l = fleet.island_server_link(i);
    EventLoop& loop = topo.loop(fleet.island_shard(i));
    auto up = std::make_unique<HashingTap>(loop, hashes[2 * i],
                                           packets[2 * i]);
    topo.splice_ab(l, *up);
    taps.push_back(std::move(up));
    auto down = std::make_unique<HashingTap>(loop, hashes[2 * i + 1],
                                             packets[2 * i + 1]);
    topo.splice_ba(l, *down);
    taps.push_back(std::move(down));
  }

  fleet.run();

  uint64_t hash = kFnvOffset;
  for (size_t i = 0; i < hashes.size(); ++i) {
    fnv_u64(hash, hashes[i]);
    fnv_u64(hash, packets[i]);
    out.packets_hashed += packets[i];
  }
  const FleetMetrics m = fleet.metrics();
  for (uint64_t v :
       {m.flows_started, m.flows_completed, m.flows_errored,
        m.bytes_received, m.connections, m.fallbacks, m.m1_opportunistic_rtx,
        m.m2_penalizations, m.m3_autotune_resizes, m.m4_cap_activations,
        m.checksum_failures, m.subflow_resets, m.handovers, m.storm_removals,
        m.nat_rebinds, m.fct_samples, m.fct_p50_us, m.fct_p99_us}) {
    fnv_u64(hash, v);
  }

  out.bytes_delivered = m.bytes_received;
  record_stats(out, topo);
  out.digest = hash;
  return out;
}

/// Serving-stack digest: the capacity shape (2 dual-homed clients, 1
/// server, shared bottlenecks) under one kServing class -- open-loop
/// framed requests with Pareto sizes over connection pools against an
/// overload-aware ServerApp with a tight admission cap, so the reject
/// path is exercised too. Single-loop; both bottleneck directions are
/// tapped, and the class's request outcomes (rejects, request-FCT count
/// and sum) are folded with its flow outcomes.
DigestResult run_serving_digest(const DigestConfig& cfg) {
  DigestResult out;
  uint64_t hash = kFnvOffset;

  CapacitySpec spec;
  spec.clients = 2;
  spec.servers = 1;
  spec.bottleneck_rate_bps = 100e6;
  CapacityTopology cap = build_capacity_topology(spec, cfg.seed);
  Topology& topo = *cap.topo;

  std::vector<std::unique_ptr<HashingTap>> taps;
  for (size_t l : {cap.bottleneck_a, cap.bottleneck_b}) {
    for (bool ab : {true, false}) {
      auto tap = std::make_unique<HashingTap>(topo.loop(), hash,
                                              out.packets_hashed);
      if (ab) {
        topo.splice_ab(l, *tap);
      } else {
        topo.splice_ba(l, *tap);
      }
      taps.push_back(std::move(tap));
    }
  }

  WorkloadConfig wc;
  wc.clients = cap.clients;
  wc.servers = cap.servers;
  wc.seed = cfg.seed;
  FlowClass serving;
  serving.name = "serving";
  serving.app_mode = FlowClass::AppMode::kServing;
  serving.request_rate_hz = 80.0;
  serving.size_dist = FlowClass::SizeDist::kPareto;
  serving.mean_size = 40 * 1000;
  serving.min_size = 1000;
  serving.max_size = 2 * 1000 * 1000;
  serving.pool.connections = 2;
  serving.pool.max_mux = 4;
  serving.server.max_pipeline = 8;
  serving.server.max_inflight = 6;  // tight: the reject path must fire
  serving.server.service.kind = ServiceTimeModel::Kind::kExponential;
  serving.server.service.mean = 2 * kMillisecond;
  serving.transport.mptcp.scheduler = cfg.scheduler;
  serving.transport.with_buffers(64 * 1024, 64 * 1024);
  serving.transport.mptcp.tcp.snd_buf_max = 32 * 1024;
  serving.transport.mptcp.tcp.rcv_buf_max = 32 * 1024;
  serving.transport.mptcp.tcp.seed = cfg.seed;
  wc.classes.push_back(serving);

  WorkloadEngine engine(topo, wc);
  engine.start();
  topo.loop().run_until(cfg.duration);

  out.bytes_delivered = engine.bytes_received(0);
  record_stats(out, topo);
  fold_outcomes(hash, engine);

  out.digest = hash;
  return out;
}

}  // namespace

DigestResult run_digest_scenario(const DigestConfig& cfg) {
  switch (cfg.scenario) {
    case DigestScenario::kCapacity:
      return cfg.shards > 0 ? run_sharded_capacity_digest(cfg)
                            : run_capacity_digest(cfg);
    case DigestScenario::kPingPong:
      return run_pingpong_digest(cfg);
    case DigestScenario::kFleet:
      return run_fleet_digest(cfg);
    case DigestScenario::kServing:
      return run_serving_digest(cfg);
    case DigestScenario::kTwoHost:
      break;
  }
  return run_two_host_digest(cfg);
}

std::string canonical_key(std::string_view key) {
  const auto digits_end = [key](size_t i) {
    while (i < key.size() && key[i] >= '0' && key[i] <= '9') ++i;
    return i;
  };
  std::string out;
  for (size_t i = 0; i < key.size();) {
    // A run-picked number follows "#", "@s" or ".sf"; ".sf" itself stays.
    size_t mark = 0;
    for (const std::string_view m : {"#", "@s", ".sf"}) {
      if (key.compare(i, m.size(), m) == 0) mark = m.size();
    }
    const size_t end = mark > 0 ? digits_end(i + mark) : i;
    if (end == i + mark) {
      out += key[i++];
      continue;
    }
    if (mark == 3) out += ".sf";
    i = end;
  }
  return out;
}

CanonicalStats canonicalize(const std::map<std::string, double>& merged) {
  CanonicalStats c;
  for (const auto& [key, value] : merged) {
    if (key.starts_with("payload.pool.")) continue;
    if (key.starts_with("sim.") && !key.starts_with("sim.link.") &&
        !key.starts_with("sim.router.")) {
      continue;
    }
    if (key.starts_with("mptcp.client") || key.starts_with("mptcp.server")) {
      c.per_conn[canonical_key(key)].push_back(value);
    } else {
      c.exact[canonical_key(key)] = value;
    }
  }
  for (auto& [key, values] : c.per_conn) {
    std::sort(values.begin(), values.end());
  }
  return c;
}

std::string digest_hex(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return std::string(buf);
}

}  // namespace mptcp
