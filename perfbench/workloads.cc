#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <ctime>

#include "app/fleet.h"
#include "app/workload.h"
#include "core/mptcp_connection.h"
#include "sim/shard.h"

namespace perfbench {

using mptcp::kMillisecond;
using mptcp::kSecond;
using mptcp::SimTime;
using Clock = std::chrono::steady_clock;

namespace {

/// Slice length for the traced and untraced runs alike: a multiple of
/// the ring links' 5 ms propagation delay, so slice ends land on the
/// sharded engine's epoch grid.
constexpr SimTime kSlice = 50 * kMillisecond;

/// A point on both clocks a slice is timed with.
struct Stamp {
  Clock::time_point wall;
  double cpu;

  static Stamp now() { return {Clock::now(), cpu_seconds()}; }
  SliceTime since(const Stamp& t0) const {
    return {std::chrono::duration<double>(wall - t0.wall).count(),
            cpu - t0.cpu};
  }
};

mptcp::TransportConfig capacity_transport(size_t meta_buf, size_t tcp_buf,
                                          uint64_t seed, bool checksum) {
  mptcp::TransportConfig tc;
  tc.mptcp.meta_snd_buf_max = tc.mptcp.meta_rcv_buf_max = meta_buf;
  tc.mptcp.tcp.snd_buf_max = tc.mptcp.tcp.rcv_buf_max = tcp_buf;
  tc.mptcp.dss_checksum = checksum;
  tc.mptcp.tcp.seed = seed;
  return tc;
}

/// Persistent connections plus exponential churn (mean 20 KB), the shape
/// bench_capacity uses for its concurrency load.
mptcp::FlowClass churn_class(const char* name, size_t persistent, double hz,
                             size_t meta_buf, size_t tcp_buf, uint64_t seed) {
  mptcp::FlowClass c;
  c.name = name;
  c.persistent_per_client = persistent;
  c.arrival_rate_hz = hz;
  c.size_dist = mptcp::FlowClass::SizeDist::kExponential;
  c.mean_size = 20 * 1000;
  c.min_size = 1000;
  c.max_size = 1000 * 1000;
  c.transport = capacity_transport(meta_buf, tcp_buf, seed, false);
  return c;
}

uint64_t count_pkt_hops(mptcp::Topology& t) {
  uint64_t n = 0;
  for (size_t l = 0; l < t.link_count(); ++l) {
    n += t.link_ab(l).stats().delivered_pkts +
         t.link_ba(l).stats().delivered_pkts;
  }
  return n;
}

/// Meta-level buffer occupancy (send queue plus reordering queues) of
/// every MPTCP connection an engine has open, both ends.
uint64_t live_buffer_bytes(mptcp::WorkloadEngine& e) {
  uint64_t mem = 0;
  const auto add = [&mem](mptcp::StreamSocket& s) {
    if (auto* c = dynamic_cast<mptcp::MptcpConnection*>(&s)) {
      mem += c->sender_memory() + c->receiver_memory();
    }
  };
  e.for_each_open_socket(
      [&](mptcp::StreamSocket& s, const mptcp::FlowReport&) { add(s); });
  e.for_each_open_server_conn(add);
  return mem;
}

/// Adds the counters of every MPTCP connection an engine still has open.
/// The scheduler, DSS and DATA_ACK counts are published only through each
/// connection's stats scope, so they are read from the registry.
void sweep_open(mptcp::WorkloadEngine& e, CoreCounters& c, bool mechanisms) {
  const auto fold = [&](mptcp::StreamSocket& s) {
    auto* conn = dynamic_cast<mptcp::MptcpConnection*>(&s);
    if (conn == nullptr) return;
    const mptcp::StatsRegistry& reg = conn->stack().loop().stats();
    const std::string& scope = conn->stats_scope();
    const auto read = [&](const char* key) {
      return static_cast<uint64_t>(reg.value(scope + key));
    };
    c.dss_mappings += read(".dss_mappings_emitted");
    c.scheduler_picks += read(".scheduler_picks");
    c.data_ack_advances += read(".data_ack_advances");
    if (!mechanisms) return;
    const auto& ms = conn->meta_stats();
    c.reinjected_bytes += ms.reinjected_bytes;
    c.m1 += ms.opportunistic_retransmits;
    c.m2 += ms.penalizations;
    c.m3 += conn->autotune_resizes();
    c.m4 += conn->cc_cap_activations();
    c.checksum_failures += ms.checksum_failures;
    c.subflow_resets += ms.subflow_resets;
  };
  e.for_each_open_socket(
      [&](mptcp::StreamSocket& s, const mptcp::FlowReport&) { fold(s); });
  e.for_each_open_server_conn(fold);
}

// ---------------------------------------------------------------------------
// bulk_5k and serving: one capacity cell on one shard.

struct CapacityShape {
  mptcp::CapacitySpec topo;
  std::vector<mptcp::FlowClass> classes;
  SimTime horizon = kSecond;
  size_t min_peak = 0;  ///< self-check floor on peak concurrency
};

class CapacityWorkload final : public Workload {
 public:
  CapacityWorkload(CapacityShape shape, uint64_t seed)
      : shape_(std::move(shape)), seed_(seed) {}

  void build() override {
    cap_ = mptcp::build_capacity_topology(shape_.topo, seed_);
  }
  void start() override {
    mptcp::WorkloadConfig wc;
    wc.clients = cap_.clients;
    wc.servers = cap_.servers;
    wc.classes = shape_.classes;
    wc.seed = seed_;
    engine_ = std::make_unique<mptcp::WorkloadEngine>(*cap_.topo, wc);
    engine_->start();
    sharded_ = std::make_unique<mptcp::ShardedEngine>(*cap_.topo);
  }
  void sample() override {
    meta_max_ = std::max(meta_max_, live_buffer_bytes(*engine_));
    if (serving()) {
      outstanding_max_ = std::max<uint64_t>(outstanding_max_,
                                            engine_->outstanding_requests(0));
    }
  }

  SimTime horizon() const override { return shape_.horizon; }
  mptcp::Topology& topo() override { return *cap_.topo; }

  Outcome outcome() override {
    Outcome o;
    mptcp::Histogram fct;
    for (size_t c = 0; c < engine_->class_count(); ++c) {
      o.bytes_delivered += engine_->bytes_received(c);
      if (shape_.classes[c].app_mode ==
          mptcp::FlowClass::AppMode::kServing) {
        o.requests_completed += engine_->completed(c);
      } else {
        o.flows_completed += engine_->completed(c);
        fct.merge_from(engine_->fct_us(c));
      }
    }
    if (serving()) {
      const mptcp::FineHistogram* h = engine_->request_fct_us(0);
      o.fct_p50_us = h->percentile(0.50);
      o.fct_p99_us = h->percentile(0.99);
    } else {
      o.fct_p50_us = fct.approx_percentile(0.50);
      o.fct_p99_us = fct.approx_percentile(0.99);
    }
    o.pkt_hops = count_pkt_hops(*cap_.topo);
    return o;
  }
  Ops ops() override {
    Ops x;
    for (size_t c = 0; c < engine_->class_count(); ++c) {
      x.attempted += engine_->started(c);
      x.failed += engine_->errors(c) + engine_->requests_rejected(c);
      x.rejected += engine_->requests_rejected(c);
    }
    return x;
  }
  CoreCounters core() override {
    CoreCounters c;
    c.connections = serving() ? open_connections() : ops().attempted;
    sweep_open(*engine_, c, /*mechanisms=*/true);
    return c;
  }
  uint64_t peak_connections() override {
    return serving() ? open_connections() : engine_->peak_concurrent();
  }
  uint64_t requests_outstanding_max() const override {
    return outstanding_max_;
  }
  std::string self_check() override {
    if (peak_connections() < shape_.min_peak) {
      return "peak concurrent connections " +
             std::to_string(peak_connections()) + " < " +
             std::to_string(shape_.min_peak);
    }
    if (serving() && engine_->completed(0) == 0) {
      return "serving completed no requests";
    }
    return "";
  }

  void destroy_engine() override {
    sharded_.reset();
    engine_.reset();
  }
  void destroy_topology() override { cap_.topo.reset(); }

 protected:
  void advance(SimTime t) override { sharded_->run_until(t); }

 private:
  bool serving() const {
    return shape_.classes[0].app_mode == mptcp::FlowClass::AppMode::kServing;
  }
  /// Serving pools keep their connections for the whole run; count the
  /// server ends that are open.
  uint64_t open_connections() {
    uint64_t n = 0;
    engine_->for_each_open_server_conn([&n](mptcp::StreamSocket&) { ++n; });
    return n;
  }

  CapacityShape shape_;
  uint64_t seed_;
  mptcp::CapacityTopology cap_;
  std::unique_ptr<mptcp::WorkloadEngine> engine_;
  std::unique_ptr<mptcp::ShardedEngine> sharded_;
  uint64_t outstanding_max_ = 0;
};

CapacityShape bulk_shape(const WorkloadOptions& o) {
  CapacityShape s;
  s.topo.clients = o.reduced ? 8 : 50;
  s.topo.servers = o.reduced ? 2 : 4;
  s.topo.bottleneck_rate_bps = o.reduced ? 500e6 : 2e9;
  const size_t persistent = o.reduced ? 20 : 100;
  // Small buffers: thousands of connections share each bottleneck, so
  // each gets a sliver of bandwidth (bench_capacity's sizing).
  s.classes.push_back(
      churn_class("bulk", persistent, 0.0, 16 * 1024, 8 * 1024, o.seed));
  s.classes.push_back(churn_class("churn", 0, 10.0, 64 * 1024, 32 * 1024,
                                  o.seed ^ 0x5bd1));
  s.horizon = o.reduced ? 500 * kMillisecond : kSecond;
  s.min_peak = o.reduced ? 0 : 5000;
  return s;
}

CapacityShape serving_shape(const WorkloadOptions& o) {
  CapacityShape s;
  s.topo.clients = o.reduced ? 4 : 32;
  s.topo.servers = 2;
  s.topo.bottleneck_rate_bps = 1e9;
  mptcp::FlowClass c;
  c.name = "serving";
  c.app_mode = mptcp::FlowClass::AppMode::kServing;
  c.request_rate_hz = 150.0;
  c.size_dist = mptcp::FlowClass::SizeDist::kPareto;
  c.pareto_alpha = 1.5;
  c.mean_size = 40 * 1000;
  c.min_size = 1000;
  c.max_size = 2 * 1000 * 1000;
  c.pool.connections = 4;
  c.pool.max_mux = 8;
  c.server.max_pipeline = 32;
  // Admission cap with headroom: at 96 a few heavy-tailed bursts were
  // rejected on some seeds, and the benchmark's workloads must not fail
  // operations.
  c.server.max_inflight = 128;
  c.server.service.kind = mptcp::ServiceTimeModel::Kind::kExponential;
  c.server.service.mean = 1 * kMillisecond;
  // Internet setting: DSS checksums on, unlike bulk_5k.
  c.transport = capacity_transport(64 * 1024, 32 * 1024, o.seed, true);
  s.classes.push_back(c);
  s.horizon = o.reduced ? kSecond : 4 * kSecond;
  return s;
}

// ---------------------------------------------------------------------------
// fleet: heterogeneous islands, each pinned whole to one shard.

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(const WorkloadOptions& o) {
    spec_.clients = o.reduced ? 60 : 400;
    spec_.seed = o.seed;
    // One shard: islands never exchange packets, so the shard count
    // changes execution only (test_shards.py checks the outcome is the
    // same on 2), and two unsynchronized threads made the wall time of
    // this workload far too noisy to bound on a shared 4-vCPU host.
    spec_.shards = o.shards != 0 ? o.shards : 1;
    spec_.duration = o.reduced ? kSecond : 1500 * kMillisecond;
    // bench_fleet's Internet-ish prevalences.
    spec_.p_stripper = 0.15;
    spec_.p_nat = 0.30;
    spec_.p_corrupter = 0.05;
    spec_.p_handover = 0.10;
    spec_.p_storm = 0.10;
    spec_.p_rebind = 0.25;
  }

  void build() override {
    fleet_ = std::make_unique<mptcp::FleetEngine>(spec_);
  }
  /// FleetEngine::run() starts the workloads itself, so the fleet's
  /// engine start is inside run_s.
  void start() override {}
  /// FleetEngine::run() cannot pause, so slice boundaries are marked from
  /// inside shard 0's loop: an event at each boundary stamps the wall
  /// and CPU clocks. The stamps fire before any other event at their instant and
  /// touch no simulation state, so the simulated outcome is unchanged;
  /// they add horizon / slice - 1 events to sim.events_fired.
  void run(std::vector<SliceTime>& slices,
           const std::function<void()>& at_boundary) override {
    std::vector<Stamp> stamps;
    stamps.push_back(Stamp::now());
    for (SimTime t = kSlice; t < spec_.duration; t += kSlice) {
      fleet_->topo().loop(0).schedule_at(
          t, [&stamps] { stamps.push_back(Stamp::now()); });
    }
    fleet_->run();
    stamps.push_back(Stamp::now());
    for (size_t i = 1; i < stamps.size(); ++i) {
      slices.push_back(stamps[i].since(stamps[i - 1]));
    }
    m_ = fleet_->metrics();
    at_boundary();
  }
  void sample() override {
    uint64_t mem = 0;
    for (size_t i = 0; i < fleet_->island_count(); ++i) {
      mem += live_buffer_bytes(fleet_->island_engine(i));
    }
    meta_max_ = std::max(meta_max_, mem);
  }

  SimTime horizon() const override { return spec_.duration; }
  mptcp::Topology& topo() override { return fleet_->topo(); }

  Outcome outcome() override {
    Outcome o;
    o.flows_completed = m_.flows_completed;
    o.bytes_delivered = m_.bytes_received;
    o.fallbacks = m_.fallbacks;
    o.fct_p50_us = m_.fct_p50_us;
    o.fct_p99_us = m_.fct_p99_us;
    o.pkt_hops = count_pkt_hops(fleet_->topo());
    return o;
  }
  Ops ops() override { return {m_.flows_started, m_.flows_errored, 0}; }
  CoreCounters core() override {
    CoreCounters c;
    for (size_t i = 0; i < fleet_->island_count(); ++i) {
      sweep_open(fleet_->island_engine(i), c, /*mechanisms=*/false);
    }
    c.connections = m_.connections;
    c.m1 = m_.m1_opportunistic_rtx;
    c.m2 = m_.m2_penalizations;
    c.m3 = m_.m3_autotune_resizes;
    c.m4 = m_.m4_cap_activations;
    c.checksum_failures = m_.checksum_failures;
    c.subflow_resets = m_.subflow_resets;
    return c;
  }
  uint64_t peak_connections() override {
    uint64_t n = 0;
    for (size_t i = 0; i < fleet_->island_count(); ++i) {
      n += fleet_->island_engine(i).peak_concurrent();
    }
    return n;
  }

  std::string self_check() override {
    if (!fleet_->shards_balanced()) return "islands unbalanced across shards";
    if (spec_.p_stripper > 0 && m_.fallbacks == 0) {
      return "no fallbacks despite option strippers";
    }
    return "";
  }

  /// FleetEngine owns its engines and topology together; the whole
  /// destruction is charged to the topology half.
  void destroy_engine() override {}
  void destroy_topology() override { fleet_.reset(); }

 private:
  mptcp::FleetSpec spec_;
  std::unique_ptr<mptcp::FleetEngine> fleet_;
  mptcp::FleetMetrics m_;
};

// ---------------------------------------------------------------------------
// cross_shard: a ring of capacity cells, half the traffic crossing cells.

class CrossShardWorkload final : public Workload {
 public:
  explicit CrossShardWorkload(const WorkloadOptions& o)
      : seed_(o.seed), shards_(o.shards != 0 ? o.shards : 2) {
    spec_.cells = 4;
    spec_.cell.clients = o.reduced ? 2 : 8;
    spec_.cell.servers = o.reduced ? 1 : 2;
    spec_.cell.bottleneck_rate_bps = 400e6;
    const size_t persistent = o.reduced ? 2 : 10;
    local_ = churn_class("local", persistent, 5.0, 16 * 1024, 8 * 1024, seed_);
    cross_ = churn_class("cross", persistent, 5.0, 16 * 1024, 8 * 1024,
                         seed_ ^ 0x2545f4914f6cdd1dULL);
    horizon_ = o.reduced ? kSecond : 1200 * kMillisecond;
  }

  void build() override {
    net_ = mptcp::build_sharded_capacity(spec_, seed_, shards_);
  }
  void start() override {
    workload_ = std::make_unique<mptcp::ShardedCapacityWorkload>(
        net_, local_, cross_, seed_);
    workload_->start();
    engine_ = std::make_unique<mptcp::ShardedEngine>(*net_.topo);
  }
  void sample() override {
    uint64_t mem = 0;
    for (size_t i = 0; i < workload_->engine_count(); ++i) {
      mem += live_buffer_bytes(workload_->engine(i));
    }
    meta_max_ = std::max(meta_max_, mem);
  }

  SimTime horizon() const override { return horizon_; }
  mptcp::Topology& topo() override { return *net_.topo; }

  Outcome outcome() override {
    Outcome o;
    o.flows_completed = workload_->total_completed();
    o.bytes_delivered = workload_->bytes_received();
    mptcp::Histogram fct;
    for (size_t i = 0; i < workload_->engine_count(); ++i) {
      fct.merge_from(workload_->engine(i).fct_us(0));
    }
    o.fct_p50_us = fct.approx_percentile(0.50);
    o.fct_p99_us = fct.approx_percentile(0.99);
    o.pkt_hops = count_pkt_hops(*net_.topo);
    return o;
  }
  Ops ops() override {
    Ops x;
    for (size_t i = 0; i < workload_->engine_count(); ++i) {
      x.attempted += workload_->engine(i).started(0);
    }
    x.failed = workload_->total_errors();
    return x;
  }
  CoreCounters core() override {
    CoreCounters c;
    c.connections = ops().attempted;
    for (size_t i = 0; i < workload_->engine_count(); ++i) {
      sweep_open(workload_->engine(i), c, /*mechanisms=*/true);
    }
    return c;
  }
  ShardCounters shard() override {
    return {engine_->epochs(), engine_->drain_skips(),
            engine_->handoff_packets(), engine_->handoff_spills(),
            engine_->ring_resizes()};
  }
  uint64_t peak_connections() override {
    return workload_->peak_concurrent_sum();
  }
  std::string self_check() override {
    if (shards_ > 1 && engine_->handoff_packets() == 0) {
      return "no packets crossed shards";
    }
    return "";
  }

  void destroy_engine() override {
    engine_.reset();
    workload_.reset();
  }
  void destroy_topology() override { net_.topo.reset(); }

 protected:
  void advance(SimTime t) override { engine_->run_until(t); }

 private:
  uint64_t seed_;
  size_t shards_;
  mptcp::ShardedCapacitySpec spec_;
  mptcp::FlowClass local_;
  mptcp::FlowClass cross_;
  SimTime horizon_;
  mptcp::ShardedCapacity net_;
  std::unique_ptr<mptcp::ShardedCapacityWorkload> workload_;
  std::unique_ptr<mptcp::ShardedEngine> engine_;
};

}  // namespace

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void Workload::run(std::vector<SliceTime>& slices,
                   const std::function<void()>& at_boundary) {
  for (SimTime t = 0; t < horizon();) {
    t = std::min(t + kSlice, horizon());
    const Stamp t0 = Stamp::now();
    advance(t);
    slices.push_back(Stamp::now().since(t0));
    at_boundary();
  }
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& opt) {
  if (name == "bulk_5k") {
    return std::make_unique<CapacityWorkload>(bulk_shape(opt), opt.seed);
  }
  if (name == "serving") {
    return std::make_unique<CapacityWorkload>(serving_shape(opt), opt.seed);
  }
  if (name == "fleet") return std::make_unique<FleetWorkload>(opt);
  if (name == "cross_shard") return std::make_unique<CrossShardWorkload>(opt);
  return nullptr;
}

}  // namespace perfbench
