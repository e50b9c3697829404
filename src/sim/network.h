// Hosts, routers and demultiplexing: the nodes a Topology (sim/topology.h)
// wires together.
//
// Each host owns one or more interfaces, each bound to a local address and
// an outgoing PacketSink (usually a Link, possibly with middleboxes chained
// behind it). Hosts route outgoing segments by their *source* address -- a
// segment sent from a given local address always leaves through that
// address's interface, which is how MPTCP subflows pin themselves to
// paths. Routers forward by *destination* address through the next-hop
// tables Topology::build_routes() fills.
//
// Hosts also carry an optional single-core CPU model (used by the Fig. 11
// HTTP experiment): each delivered segment occupies the CPU for a
// configurable time before the stack sees it, and protocol code can charge
// extra cycles (e.g. MPTCP key hashing) that delay subsequent segments.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/ip.h"
#include "net/rng.h"
#include "sim/event_loop.h"
#include "sim/node.h"

namespace mptcp {

/// A connection endpoint registered with a host's demux.
class SegmentHandler {
 public:
  virtual ~SegmentHandler() = default;
  virtual void on_segment(const TcpSegment& seg) = 0;
};

/// Receives SYNs for which no established connection matches.
class ListenHandler {
 public:
  virtual ~ListenHandler() = default;
  virtual void on_syn(const TcpSegment& seg) = 0;
};

class Host : public PacketSink {
 public:
  struct CpuConfig {
    SimTime per_segment = 0;  ///< base cost charged per delivered segment
    SimTime per_byte = 0;     ///< payload-proportional cost
  };

  Host(EventLoop& loop, std::string name);

  EventLoop& loop() { return loop_; }
  const std::string& name() const { return name_; }

  // --- interfaces -------------------------------------------------------
  /// Adds an interface with the given local address; outgoing segments
  /// whose source address matches leave via `out`.
  void add_interface(IpAddr addr, PacketSink* out);
  void set_interface_up(IpAddr addr, bool up);
  bool interface_up(IpAddr addr) const;
  std::vector<IpAddr> addresses() const;
  bool owns_address(IpAddr addr) const;

  // --- sending ----------------------------------------------------------
  /// Sends a segment out of the interface owning seg.tuple.src.addr.
  /// Segments from unknown or downed interfaces are dropped (counted).
  void send(TcpSegment seg);

  /// Sends a batch: contiguous runs of segments sharing a source address
  /// (the common case -- a cwnd's worth from one subflow) resolve the
  /// interface once and leave via one deliver_burst() call. Equivalent to
  /// calling send() on each segment in order. Empties `batch`.
  void send_burst(std::vector<TcpSegment>& batch);
  uint64_t send_drops() const { return send_drops_; }

  // --- receiving / demux -------------------------------------------------
  void deliver(TcpSegment seg) override;

  /// Registers a handler for segments addressed to `local` coming from
  /// `remote` (both exact).
  void bind(const Endpoint& local, const Endpoint& remote,
            SegmentHandler* handler);
  void unbind(const Endpoint& local, const Endpoint& remote);

  /// Registers a listener on a local port (any local address).
  void listen(Port port, ListenHandler* handler);
  void unlisten(Port port);

  Port alloc_ephemeral_port() {
    if (next_ephemeral_ < 1024) next_ephemeral_ = 1024;  // wrapped around
    return next_ephemeral_++;
  }

  // --- CPU model ---------------------------------------------------------
  void set_cpu(CpuConfig cfg) { cpu_ = cfg; }
  /// Charges extra CPU time from within segment processing; extends the
  /// busy period seen by subsequent segments.
  void charge_cpu(SimTime cost) { cpu_free_at_ += cost; }
  SimTime cpu_busy_total() const { return cpu_busy_total_; }

  uint64_t delivered_segments() const { return delivered_segments_; }
  uint64_t demux_misses() const { return demux_misses_; }

 private:
  void process(const TcpSegment& seg);
  void process_queued();

  struct Interface {
    IpAddr addr;
    PacketSink* out = nullptr;
    bool up = true;
  };

  EventLoop& loop_;
  std::string name_;
  std::vector<Interface> ifaces_;
  std::map<std::pair<Endpoint, Endpoint>, SegmentHandler*> conns_;
  std::unordered_map<Port, ListenHandler*> listeners_;
  Port next_ephemeral_ = 40000;

  CpuConfig cpu_;
  SimTime cpu_free_at_ = 0;
  SimTime cpu_busy_total_ = 0;
  /// Segments awaiting the modelled CPU. Completion times are scheduled in
  /// non-decreasing order (cpu_free_at_ is monotonic), so each completion
  /// event processes the front -- the queue keeps segments out of the event
  /// closures, which stay allocation-free.
  std::deque<TcpSegment> cpu_pending_;

  uint64_t send_drops_ = 0;
  uint64_t delivered_segments_ = 0;
  uint64_t demux_misses_ = 0;
};

/// A named store-and-forward node: routes segments by destination address
/// through a next-hop table, with an optional default route. Unlike Host a
/// router keeps no transport state; forwarded/dropped counts publish to
/// the stats registry under "sim.router.<name>". Topologies
/// (sim/topology.h) build graphs of hosts and routers and fill the tables
/// via build_routes().
class Router : public PacketSink {
 public:
  Router(EventLoop& loop, std::string name);
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  const std::string& name() const { return name_; }
  /// Registry scope ("sim.router.<name>", made collision-free).
  const std::string& stats_scope() const { return scope_; }

  void add_route(IpAddr dst, PacketSink* next) { routes_[dst] = next; }
  void set_default_route(PacketSink* next) { default_ = next; }
  void clear_routes() {
    routes_.clear();
    default_ = nullptr;
  }
  size_t route_count() const { return routes_.size(); }
  /// The installed next hop for `dst`, or null (scenario builders mirror
  /// an existing route under an alias address, e.g. a NAT's public side).
  PacketSink* next_hop(IpAddr dst) const {
    auto it = routes_.find(dst);
    return it != routes_.end() ? it->second : nullptr;
  }

  /// Forwards by destination address; segments with no matching route and
  /// no default are dropped (counted).
  void deliver(TcpSegment seg) override;

  uint64_t forwarded() const { return forwarded_; }
  uint64_t dropped_no_route() const { return dropped_no_route_; }

 private:
  EventLoop& loop_;
  std::string name_;
  std::string scope_;
  std::unordered_map<IpAddr, PacketSink*> routes_;
  PacketSink* default_ = nullptr;
  uint64_t forwarded_ = 0;
  uint64_t dropped_no_route_ = 0;
};

}  // namespace mptcp
