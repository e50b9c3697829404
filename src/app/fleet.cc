#include "app/fleet.h"

#include <algorithm>
#include <cmath>

#include "core/mptcp_connection.h"
#include "sim/placement.h"
#include "sim/shard.h"

namespace mptcp {

namespace {

/// Per-client stream derivation (same splitmix-style mixing the workload
/// engine uses for its per-slot streams): depends on the fleet seed and
/// the client index only, never on the shard count.
uint64_t client_stream_seed(uint64_t seed, uint64_t index) {
  return seed ^ (0x9e3779b97f4a7c15ULL * (index + 1)) ^ 0x5f1e37c0a11edULL;
}

double log_uniform(Rng& rng, double lo, double hi) {
  return lo * std::pow(hi / lo, rng.next_double());
}

std::string island_prefix(uint64_t index) {
  return "f" + std::to_string(index) + ".";
}

/// How long a handover keeps the old radio up after advertising
/// REMOVE_ADDR: in-flight data drains and the peer tears its subflows
/// down cleanly instead of blackholing a window into the meta RTO.
constexpr SimTime kHandoverGrace = 100 * kMillisecond;

}  // namespace

std::vector<ClientProfile> sample_fleet(const FleetSpec& spec) {
  std::vector<ClientProfile> out;
  out.reserve(spec.clients);
  const double w_total = spec.w_single + spec.w_dual + spec.w_triple;
  for (uint64_t i = 0; i < spec.clients; ++i) {
    Rng rng(client_stream_seed(spec.seed, i));
    ClientProfile p;
    p.index = i;

    // Draw order is part of the determinism contract: path count, then
    // per-path (rate, rtt, loss, bloat, stripper, nat, corrupter), then
    // the mobility events. Changing it re-draws every fleet.
    const double w = rng.next_double() * w_total;
    const size_t n_paths = w < spec.w_single                ? 1
                           : w < spec.w_single + spec.w_dual ? 2
                                                             : 3;
    p.paths.reserve(n_paths);
    for (size_t k = 0; k < n_paths; ++k) {
      PathProfile path;
      path.rate_bps = log_uniform(rng, spec.rate_min_bps, spec.rate_max_bps);
      path.rtt = static_cast<SimTime>(
          log_uniform(rng, static_cast<double>(spec.rtt_min),
                      static_cast<double>(spec.rtt_max)));
      path.loss = rng.next_double() * spec.loss_max;
      path.bloat = rng.next_double() < spec.p_bloat;
      path.stripper = rng.next_double() < spec.p_stripper;
      path.nat = rng.next_double() < spec.p_nat;
      path.corrupter = rng.next_double() < spec.p_corrupter;
      p.paths.push_back(path);
    }

    // Mobility: times are fractions of the run so a fleet resampled at a
    // different duration keeps the same event structure.
    const double d = static_cast<double>(spec.duration);
    if (p.paths.size() >= 2 && rng.next_double() < spec.p_handover) {
      p.handover_at =
          static_cast<SimTime>(d * (0.2 + 0.4 * rng.next_double()));
    }
    if (p.paths.size() >= 2 && rng.next_double() < spec.p_storm) {
      p.storm_at = static_cast<SimTime>(d * (0.2 + 0.2 * rng.next_double()));
      p.storm_rounds = 1 + rng.next_below(3);
    }
    bool any_nat = false;
    for (const PathProfile& path : p.paths) any_nat |= path.nat;
    if (p.paths.size() >= 2 && any_nat &&
        rng.next_double() < spec.p_rebind) {
      p.rebind_at =
          static_cast<SimTime>(d * (0.3 + 0.4 * rng.next_double()));
    }
    out.push_back(std::move(p));
  }
  return out;
}

FleetEngine::FleetEngine(const FleetSpec& spec)
    : spec_(spec), profiles_(sample_fleet(spec)) {
  if (spec_.shards == 0) spec_.shards = 1;
  accs_.resize(spec_.shards);

  ScenarioSpec scn;
  scn.seed(spec_.seed).shards(spec_.shards);

  FlowClass fc;
  fc.name = "fleet";
  fc.arrival_rate_hz = spec_.arrival_rate_hz;
  fc.size_dist = FlowClass::SizeDist::kExponential;
  fc.mean_size = spec_.mean_size;
  fc.max_size = spec_.mean_size * 20;
  fc.persistent_per_client = spec_.persistent_per_client;
  fc.transport.mptcp.meta_snd_buf_max = 128 * 1024;
  fc.transport.mptcp.meta_rcv_buf_max = 128 * 1024;
  fc.transport.mptcp.tcp.snd_buf_max = 64 * 1024;
  fc.transport.mptcp.tcp.rcv_buf_max = 64 * 1024;
  fc.transport.mptcp.tcp.seed = spec_.seed;
  fc.transport.mptcp.scheduler = spec_.scheduler;
  // All four safety mechanisms live: the fleet reports their trigger mix
  // (M1/M2 are always on; M3 autotune and M4 cwnd capping are opt-in).
  // Buffers start at 4 KiB and autotune toward the caps, so M3 resize
  // events actually happen; bufferbloated paths (p_bloat) let srtt
  // overshoot 2*min_rtt so M4's cap has something to bound.
  fc.transport.mptcp.meta_autotune = true;
  fc.transport.mptcp.tcp.autotune = true;
  fc.transport.mptcp.tcp.buf_initial = 4 * 1024;
  fc.transport.mptcp.cap_subflow_cwnd = true;

  if (spec_.serving_rate_hz > 0) {
    // Serving mode: the island's class becomes open-loop framed requests
    // over a pooled persistent connection to the island server.
    fc.app_mode = FlowClass::AppMode::kServing;
    fc.request_rate_hz = spec_.serving_rate_hz;
    fc.arrival_rate_hz = 0;
    fc.persistent_per_client = 0;
    fc.size_dist = FlowClass::SizeDist::kPareto;
    fc.server.max_inflight = spec_.serving_max_inflight;
    fc.server.service.kind = ServiceTimeModel::Kind::kExponential;
    fc.server.service.mean = kMillisecond;
  }

  // kGreedy placement: islands are independent units (no cross-island
  // links), so the partitioner degenerates to deterministic weighted
  // balancing -- weight 1 + path count approximates an island's event
  // load. Computed up front from the profiles alone, so placement stays
  // a pure function of (seed, knobs) like everything else here.
  std::vector<size_t> greedy_shard;
  if (spec_.placement == FleetSpec::Placement::kGreedy) {
    PlacementGraph pg;
    pg.shards = spec_.shards;
    pg.weights.reserve(profiles_.size());
    for (const ClientProfile& p : profiles_) {
      pg.weights.push_back(1.0 + static_cast<double>(p.paths.size()));
    }
    greedy_shard = greedy_edge_cut(pg).shard_of;
  }

  islands_.reserve(profiles_.size());
  for (const ClientProfile& p : profiles_) {
    const std::string prefix = island_prefix(p.index);
    Island isl;

    std::vector<PathSpec> paths;
    paths.reserve(p.paths.size());
    for (size_t k = 0; k < p.paths.size(); ++k) {
      const PathProfile& pp = p.paths[k];
      PathSpec ps;
      ps.name = prefix + "p" + std::to_string(k);
      ps.up.rate_bps = pp.rate_bps;
      ps.up.prop_delay = pp.rtt / 2;
      ps.up.loss_prob = pp.loss;
      // Bufferbloated links hold a wall-clock's worth of queue; sane
      // ones hold 2 BDP. The former is what makes srtt overshoot
      // 2*min_rtt and M4's cap fire.
      const SimTime q_delay =
          pp.bloat ? spec_.bloat_queue_delay : 2 * pp.rtt;
      ps.up.buffer_bytes = std::max<size_t>(
          LinkConfig::buffer_for_delay(pp.rate_bps, q_delay), 8 * 1024);
      ps.down = ps.up;
      paths.push_back(std::move(ps));
    }
    // kTokenHash pins the whole island to shard_for_token(prefix +
    // "client") -- client placement rides the topology's stable token
    // hash, so placement is deterministic and shard-count-local.
    // kGreedy pins it to the partitioner's balanced assignment instead.
    const size_t shard =
        spec_.placement == FleetSpec::Placement::kGreedy
            ? greedy_shard[islands_.size()]
            : scn.shard_for(prefix + "client");
    isl.shape = declare_two_host(scn, paths, prefix, shard);
    isl.shard = shard;

    isl.nat_handle.assign(p.paths.size(), static_cast<size_t>(-1));
    for (size_t k = 0; k < p.paths.size(); ++k) {
      const PathProfile& pp = p.paths[k];
      const size_t l = isl.shape.paths[k];
      if (pp.stripper) {
        // SYN-only stripping is the paper's observed failure mode: the
        // handshake loses MP_CAPABLE/MP_JOIN and the connection falls
        // back to (or joins as) plain TCP; established traffic passes.
        scn.via_up(l, MiddleboxDecl::option_stripper(
                          OptionStripper::Scope::kSynOnly,
                          OptionStripper::What::kAllMptcp));
      }
      if (pp.nat) {
        // Unique public /32 per (client, path); v stays below 2^16 for
        // any fleet under ~21k clients, so 172.16/12 never overflows.
        const uint64_t v = p.index * 3 + k;
        const IpAddr pub(172, static_cast<uint8_t>(16 + (v >> 8)),
                         static_cast<uint8_t>(v & 0xff), 1);
        isl.nat_handle[k] = scn.via(l, MiddleboxDecl::nat(pub));
      }
      if (pp.corrupter) {
        // Content-rewriting proxy on the download direction: DSS
        // checksum failures on data segments, the fallback trigger the
        // paper's checksumming exists to catch.
        scn.via_down(l, MiddleboxDecl::payload_modifier(
                            spec_.corrupt_interval));
      }
    }

    WorkloadConfig wc;
    wc.clients = {isl.shape.client};
    wc.servers = {isl.shape.server};
    wc.classes.push_back(fc);
    wc.seed = spec_.seed;
    wc.shard = isl.shard;
    wc.scope_prefix = prefix;
    wc.client_ids = {p.index};
    wc.on_flow_done = [this, shard = isl.shard](StreamSocket& s,
                                                const FlowReport& r) {
      record_flow(shard, s, r);
    };
    // Serving-mode islands complete *requests*, not one-shot flows, so
    // their outcomes arrive through the pool's request hook instead of
    // on_flow_done. Fold them into the same shard accumulator.
    wc.on_request_done = [this, shard = isl.shard](size_t,
                                                   const RequestOutcome& o) {
      ShardAcc& acc = accs_[shard];
      if (o.ok) {
        ++acc.completed;
        acc.fct_us.push_back(
            static_cast<uint64_t>((o.done_at - o.issued_at) / 1000));
      } else {
        ++acc.errored;
      }
    };
    // The server is the data sender, so M1-M4 mostly fire on *its*
    // connections; harvest their counters before the server closes them.
    wc.on_server_conn_done = [this, shard = isl.shard](StreamSocket& s) {
      if (auto* conn = dynamic_cast<MptcpConnection*>(&s)) {
        fold_sender(accs_[shard], *conn);
      }
    };
    isl.engine_idx = scn.workload(std::move(wc));
    islands_.push_back(std::move(isl));
  }

  scenario_ = std::make_unique<Scenario>(scn.build());
}

FleetEngine::~FleetEngine() = default;

Topology& FleetEngine::topo() { return scenario_->topo(); }

WorkloadEngine& FleetEngine::island_engine(size_t i) {
  return scenario_->engine(islands_[i].engine_idx);
}

Nat* FleetEngine::island_nat(size_t i, size_t k) {
  const size_t h = islands_[i].nat_handle[k];
  return h == static_cast<size_t>(-1) ? nullptr : scenario_->nat(h);
}

void FleetEngine::run() {
  Topology& t = topo();
  scenario_->start_workloads();

  // Mobility, scheduled up front on each island's own loop in island
  // order: same-timestamp events keep their scheduling order within a
  // loop, and islands never exchange packets, so every island's event
  // stream is identical at any shard count.
  for (size_t i = 0; i < islands_.size(); ++i) {
    const ClientProfile& p = profiles_[i];
    EventLoop& loop = t.loop(islands_[i].shard);
    if (p.handover_at > 0) {
      loop.schedule_in(p.handover_at, [this, i] { do_handover(i); });
    }
    for (size_t r = 0; r < p.storm_rounds; ++r) {
      const SimTime at = p.storm_at + r * (200 * kMillisecond);
      loop.schedule_in(at, [this, i] { do_storm_remove(i); });
      loop.schedule_in(at + 100 * kMillisecond,
                       [this, i] { do_storm_readd(i); });
    }
    if (p.rebind_at > 0) {
      loop.schedule_in(p.rebind_at, [this, i] { do_rebind(i); });
    }
  }

  ShardedEngine engine(t);
  engine.run_until(spec_.duration);
  scenario_->stop_workloads();
  finalize();
  ran_ = true;
}

void FleetEngine::record_flow(size_t shard, StreamSocket& s,
                              const FlowReport& r) {
  ShardAcc& acc = accs_[shard];
  if (r.ok) {
    ++acc.completed;
    if (!r.persistent) {
      acc.fct_us.push_back(static_cast<uint64_t>(
          (topo().loop(shard).now() - r.start) / 1000));
    }
  } else {
    ++acc.errored;
  }
  if (auto* conn = dynamic_cast<MptcpConnection*>(&s)) {
    fold_connection(acc, *conn);
  }
}

void FleetEngine::fold_connection(ShardAcc& acc, MptcpConnection& conn) {
  ++acc.connections;
  if (conn.mode() == MptcpMode::kFallbackTcp) ++acc.fallbacks;
  fold_sender(acc, conn);
}

void FleetEngine::fold_sender(ShardAcc& acc, MptcpConnection& conn) {
  // Mechanism counters are per-endpoint (they fire at whichever side is
  // sending), so both the client-side fold and the server-conn hook land
  // here; only the client side contributes to connections/fallbacks.
  const auto& ms = conn.meta_stats();
  acc.m1 += ms.opportunistic_retransmits;
  acc.m2 += ms.penalizations;
  acc.m3 += conn.autotune_resizes();
  acc.m4 += conn.cc_cap_activations();
  acc.checksum_failures += ms.checksum_failures;
  acc.subflow_resets += ms.subflow_resets;
}

void FleetEngine::do_handover(size_t island) {
  // WiFi -> 3G: advertise the loss (REMOVE_ADDR on a survivor) while
  // path 0 still works, then take the radio down only after a grace
  // period -- the old radio stays associated long enough for in-flight
  // data to drain and for the peer to abort its subflows cleanly.
  // Connections that already have a second subflow see zero app-visible
  // gap: make before break.
  Island& isl = islands_[island];
  Topology& t = topo();
  const IpAddr a0 = t.addr(isl.shape.client, 0);
  island_engine(island).for_each_open_socket(
      [&](StreamSocket& s, const FlowReport&) {
        auto* conn = dynamic_cast<MptcpConnection*>(&s);
        if (conn != nullptr && conn->mode() == MptcpMode::kMptcp &&
            conn->usable_subflow_count() >= 2) {
          conn->remove_local_address(a0);
        }
      });
  t.loop(isl.shard).schedule_in(kHandoverGrace, [this, island] {
    topo().set_link_up(islands_[island].shape.paths[0], false);
  });
  ++accs_[isl.shard].handovers;
}

void FleetEngine::do_storm_remove(size_t island) {
  Island& isl = islands_[island];
  const IpAddr a1 = topo().addr(isl.shape.client, 1);
  island_engine(island).for_each_open_socket(
      [&](StreamSocket& s, const FlowReport&) {
        auto* conn = dynamic_cast<MptcpConnection*>(&s);
        if (conn != nullptr && conn->mode() == MptcpMode::kMptcp &&
            conn->usable_subflow_count() >= 2) {
          conn->remove_local_address(a1);
        }
      });
  ++accs_[isl.shard].storm_removals;
}

void FleetEngine::do_storm_readd(size_t island) {
  Island& isl = islands_[island];
  Topology& t = topo();
  const IpAddr a1 = t.addr(isl.shape.client, 1);
  if (!t.host(isl.shape.client).interface_up(a1)) return;
  const Endpoint remote{t.addr(isl.shape.server, 0),
                        static_cast<Port>(8000)};
  island_engine(island).for_each_open_socket(
      [&](StreamSocket& s, const FlowReport&) {
        auto* conn = dynamic_cast<MptcpConnection*>(&s);
        if (conn == nullptr || conn->mode() != MptcpMode::kMptcp) return;
        for (size_t i = 0; i < conn->subflow_count(); ++i) {
          MptcpSubflow* sf = conn->subflow(i);
          if (sf->state() != TcpState::kClosed && sf->local().addr == a1) {
            return;  // still holds a live subflow on the readded address
          }
        }
        conn->open_subflow(a1, remote);
      });
}

void FleetEngine::do_rebind(size_t island) {
  // A NAT reboot forgets every mapping: the peer silently drops segments
  // arriving from the remapped (never-seen) public endpoints, so the
  // affected subflows are dead weight until explicitly re-established --
  // the deployability case for matching subflows by token, not 5-tuple.
  Island& isl = islands_[island];
  Topology& t = topo();
  for (size_t k = 0; k < isl.nat_handle.size(); ++k) {
    Nat* nat = island_nat(island, k);
    if (nat == nullptr) continue;
    nat->rebind();
    ++accs_[isl.shard].nat_rebinds;
    const IpAddr addr = t.addr(isl.shape.client, k);
    island_engine(island).for_each_open_socket(
        [&](StreamSocket& s, const FlowReport&) {
          auto* conn = dynamic_cast<MptcpConnection*>(&s);
          if (conn == nullptr || conn->mode() != MptcpMode::kMptcp ||
              conn->usable_subflow_count() < 2) {
            return;
          }
          // Collect first: abort() closes a subflow in place, and it
          // leaves the list only in a later event, so indices hold here.
          std::vector<std::pair<IpAddr, Endpoint>> reopen;
          for (size_t i = 0; i < conn->subflow_count(); ++i) {
            MptcpSubflow* sf = conn->subflow(i);
            if (sf->state() != TcpState::kClosed &&
                sf->local().addr == addr) {
              reopen.emplace_back(addr, sf->remote());
              sf->abort();
            }
          }
          for (const auto& [local, rem] : reopen) {
            conn->open_subflow(local, rem);
          }
        });
  }
}

void FleetEngine::finalize() {
  // Deterministic end-of-run sweep: persistent and still-open flows in
  // island order, launch order within each engine. Their connection
  // state (mode, mechanism counters) folds into the same accumulators
  // finished flows used.
  for (size_t i = 0; i < islands_.size(); ++i) {
    ShardAcc& acc = accs_[islands_[i].shard];
    island_engine(i).for_each_open_socket(
        [&](StreamSocket& s, const FlowReport&) {
          if (auto* conn = dynamic_cast<MptcpConnection*>(&s)) {
            fold_connection(acc, *conn);
          }
        });
    island_engine(i).for_each_open_server_conn([&](StreamSocket& s) {
      if (auto* conn = dynamic_cast<MptcpConnection*>(&s)) {
        fold_sender(acc, *conn);
      }
    });
  }
}

FleetMetrics FleetEngine::metrics() const {
  FleetMetrics m;
  auto* self = const_cast<FleetEngine*>(this);
  for (const Island& isl : islands_) {
    WorkloadEngine& e = self->scenario_->engine(isl.engine_idx);
    m.flows_started += e.started(0);
    m.bytes_received += e.bytes_received(0);
  }
  std::vector<uint64_t> fct;
  for (const ShardAcc& a : accs_) {
    m.flows_completed += a.completed;
    m.flows_errored += a.errored;
    m.connections += a.connections;
    m.fallbacks += a.fallbacks;
    m.m1_opportunistic_rtx += a.m1;
    m.m2_penalizations += a.m2;
    m.m3_autotune_resizes += a.m3;
    m.m4_cap_activations += a.m4;
    m.checksum_failures += a.checksum_failures;
    m.subflow_resets += a.subflow_resets;
    m.handovers += a.handovers;
    m.storm_removals += a.storm_removals;
    m.nat_rebinds += a.nat_rebinds;
    fct.insert(fct.end(), a.fct_us.begin(), a.fct_us.end());
  }
  std::sort(fct.begin(), fct.end());
  m.fct_samples = fct.size();
  if (!fct.empty()) {
    m.fct_p50_us = fct[fct.size() / 2];
    m.fct_p99_us = fct[std::min(fct.size() - 1, (fct.size() * 99) / 100)];
  }
  return m;
}

std::vector<size_t> FleetEngine::shard_occupancy() const {
  std::vector<size_t> occ(spec_.shards, 0);
  for (const Island& isl : islands_) ++occ[isl.shard];
  return occ;
}

bool FleetEngine::shards_balanced(double tolerance) const {
  if (spec_.shards <= 1) return true;
  const auto occ = shard_occupancy();
  const double mean =
      static_cast<double>(islands_.size()) / static_cast<double>(occ.size());
  for (size_t c : occ) {
    if (static_cast<double>(c) > mean * (1.0 + tolerance) ||
        static_cast<double>(c) < mean * (1.0 - tolerance)) {
      return false;
    }
  }
  return true;
}

}  // namespace mptcp
