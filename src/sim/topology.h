// Declarative multi-host topologies: arbitrary graphs of hosts, routers
// and links built from a spec, with automatic addressing and routing.
//
// This is the one way the tree wires hosts, routers and links, directly or
// through ScenarioSpec (app/scenario.h): from the paper's client/server
// shape (TwoHostRig) to N clients and M servers sharing bottleneck links
// through routers. A Topology owns the event loop and every node:
//
//   Topology topo(seed);
//   NodeId c = topo.add_host("client0");
//   NodeId r = topo.add_router("core");
//   NodeId s = topo.add_host("server0");
//   topo.connect(c, r, access_cfg, access_cfg);   // c gains one address
//   topo.connect(r, s, core_cfg, core_cfg);       // s gains one address
//   topo.build_routes();                          // fills router tables
//
// Addressing: every connect() whose endpoint is a host assigns that host a
// fresh interface address in a per-link /24 (10.<l/256+1>.<l%256>.1 for
// side a, .2 for side b). Multihomed hosts simply connect() several times
// and gain one address per access link -- exactly the shape MPTCP subflow
// path-pinning expects, since hosts route outgoing traffic by source
// address.
//
// Routing: build_routes() computes, for every host address A, a shortest
// path (hop count, deterministic creation-order tie-break) from every
// router to A's access link, and installs per-address next hops in each
// Router. Per-address (not per-host) routing is what keeps a multihomed
// host's subflows on distinct paths end to end. Hosts never forward, so
// paths only traverse routers.
//
// Sharding: Topology(seed, shards) creates one EventLoop (and therefore
// one StatsRegistry partition) per shard; add_host()/add_router() pin
// each node to a shard, and every node's machinery (sockets, timers,
// link egress) lives in its shard's loop. A link whose endpoints sit in
// different shards sends through a ShardChannel (sim/shard.h) instead of
// a local propagation event; ShardedEngine drives the loops in lockstep
// epochs. Cross-shard links must have prop_delay > 0 -- the propagation
// delay is the conservative lookahead that makes barrier-drained handoff
// exact. Routing is shard-safe as-is: build_routes() only ever installs
// a router's own egress links, which live in that router's shard.
#pragma once

#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/link.h"
#include "sim/network.h"
#include "sim/shard.h"

namespace mptcp {

/// Index of a node (host or router) within one Topology.
using NodeId = size_t;

/// Stable token -> shard pinning (FNV-1a mod `shards`), the helper
/// scenario builders use to spread named entities across shards without
/// coordinating.
size_t shard_for_token(std::string_view token, size_t shards);

class Topology {
 public:
  explicit Topology(uint64_t seed = 1, size_t shards = 1);

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  // --- construction ------------------------------------------------------
  NodeId add_host(const std::string& name, size_t shard = 0);
  NodeId add_router(const std::string& name, size_t shard = 0);

  /// Connects `a` and `b` with a full-duplex link pair (`cfg_ab` shapes the
  /// a->b direction). Host endpoints gain a fresh interface address on this
  /// link. Returns the link index. Loss seeds are perturbed by the topology
  /// seed and link index so every link draws an independent stream.
  size_t connect(NodeId a, NodeId b, const LinkConfig& cfg_ab,
                 const LinkConfig& cfg_ba, std::string name = "");

  /// (Re)computes every router's next-hop table; call after the graph is
  /// complete (and again after adding links mid-experiment).
  void build_routes();

  /// Installs `alias` on every router that has a route for `like`,
  /// pointing at the same next hop. Traffic to the alias then follows the
  /// exact path traffic to `like` would -- how a NAT's public address is
  /// routed back to the link whose reverse splice untranslates it. Call
  /// after build_routes() (recomputing routes drops aliases).
  void alias_route(IpAddr alias, IpAddr like);

  // --- node access -------------------------------------------------------
  size_t node_count() const { return nodes_.size(); }
  bool is_router(NodeId n) const { return nodes_[n].router != nullptr; }
  const std::string& node_name(NodeId n) const { return nodes_[n].name; }
  Host& host(NodeId n) {
    assert(nodes_[n].host != nullptr);
    return *nodes_[n].host;
  }
  Router& router(NodeId n) {
    assert(nodes_[n].router != nullptr);
    return *nodes_[n].router;
  }

  /// The i-th address assigned to host `n`, in connect() order.
  IpAddr addr(NodeId n, size_t i = 0) const {
    return nodes_[n].addrs.at(i);
  }
  const std::vector<IpAddr>& addrs(NodeId n) const { return nodes_[n].addrs; }

  // --- link access -------------------------------------------------------
  size_t link_count() const { return links_.size(); }
  Link& link_ab(size_t l) { return *links_[l].ab; }
  Link& link_ba(size_t l) { return *links_[l].ba; }
  NodeId link_node_a(size_t l) const { return links_[l].a; }
  NodeId link_node_b(size_t l) const { return links_[l].b; }

  /// Splices a middlebox into one direction of link `l` (a->b or b->a).
  /// Repeated splices nest: each new element is inserted directly after
  /// the link, so the most recently spliced element sees packets first.
  void splice_ab(size_t l, Middlebox& element);
  void splice_ba(size_t l, Middlebox& element);

  /// Takes both directions of link `l` up/down, plus any host interface
  /// attached to it (mobility at scale).
  void set_link_up(size_t l, bool up);

  // --- sharding -----------------------------------------------------------
  size_t shard_count() const { return loops_.size(); }
  size_t shard_of(NodeId n) const { return nodes_[n].shard; }
  /// Every cross-shard channel, in creation order (ShardedEngine's
  /// deterministic drain order).
  const std::vector<std::unique_ptr<ShardChannel>>& channels() const {
    return channels_;
  }
  /// Smallest propagation delay over all cross-shard link directions (the
  /// conservative epoch-quantum bound); 0 when nothing crosses shards.
  SimTime min_cross_prop() const { return min_cross_prop_; }

  // --- observability ------------------------------------------------------
  EventLoop& loop(size_t shard = 0) { return *loops_[shard]; }
  StatsRegistry& stats(size_t shard = 0) { return loops_[shard]->stats(); }
  /// All shard registry partitions, in shard order.
  std::vector<const StatsRegistry*> shard_stats() const;
  /// The deterministic ordered merge of every shard partition
  /// (StatsRegistry::merged_to_json); one shard's is its loop's JSON.
  std::string dump_stats();
  /// The thread-local payload pool's counters, under "payload.pool"
  /// (published by shard 0 only).
  void publish_stats(StatsOut& out) const;

 private:
  struct Node {
    std::string name;
    std::unique_ptr<Host> host;      ///< exactly one of host/router is set
    std::unique_ptr<Router> router;
    std::vector<IpAddr> addrs;       ///< hosts only, in connect() order
    size_t shard = 0;
  };

  struct LinkRec {
    NodeId a;
    NodeId b;
    std::unique_ptr<Link> ab;  ///< direction a->b
    std::unique_ptr<Link> ba;  ///< direction b->a
    ShardChannel* ab_ch = nullptr;  ///< set when a and b sit in
    ShardChannel* ba_ch = nullptr;  ///< different shards
  };

  /// The address the host endpoint on `side` (0 = a, 1 = b) of link `l`
  /// gains: 10.<1 + l/256>.<l%256>.<1 + side>.
  static IpAddr link_addr(size_t l, int side) {
    return IpAddr(10, static_cast<uint8_t>(1 + (l >> 8)),
                  static_cast<uint8_t>(l & 0xff),
                  static_cast<uint8_t>(1 + side));
  }

  PacketSink* sink_of(NodeId n) {
    return is_router(n) ? static_cast<PacketSink*>(nodes_[n].router.get())
                        : static_cast<PacketSink*>(nodes_[n].host.get());
  }

  std::vector<std::unique_ptr<EventLoop>> loops_;  ///< one per shard
  std::optional<StatsHook> pool_hook_;  ///< payload.pool.*, on shard 0
  uint64_t seed_;
  SimTime min_cross_prop_ = 0;
  std::vector<Node> nodes_;
  std::vector<LinkRec> links_;
  std::vector<std::unique_ptr<ShardChannel>> channels_;
};

}  // namespace mptcp
