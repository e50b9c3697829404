// Declarative scenario construction: one fluent spec for hosts, paths,
// middleboxes and workloads, lowered onto the Topology engine.
//
// A ScenarioSpec *declares* the experiment; the capacity builders, the
// fleet, the fig* benches and TwoHostRig (below) all build through it:
//
//   ScenarioSpec spec;
//   spec.seed(7).shards(2);
//   NodeId c = spec.host("client");
//   NodeId r = spec.router("gw");
//   NodeId s = spec.host("server");
//   size_t wifi = spec.path(c, r, wifi_path());
//   spec.link(r, s, wire, wire, "backhaul");
//   spec.via_up(wifi, MiddleboxDecl::option_stripper(
//       OptionStripper::Scope::kSynOnly, OptionStripper::What::kMpCapable));
//   spec.workload(wc);           // optional: WorkloadEngine groups
//   Scenario scn = spec.build(); // topology + middleboxes + engines
//
// build() replays the declarations in order onto a fresh Topology, so
// node ids, link indices, addresses and loss seeds are exactly what the
// same sequence of add_host/connect calls would produce -- the capacity
// builders construct through this layer and their determinism digests are
// pinned unchanged. Middlebox chains are lowered to splice_ab/splice_ba
// (still the implementation detail); duplex elements (NAT) additionally
// get their public address routed like the private host side's address,
// so return traffic reaches the reverse sink on any router graph.
//
// Scenario owns everything it built: the Topology, every instantiated
// middlebox (reachable through typed accessors by declaration handle),
// and one WorkloadEngine per declared workload group.
#pragma once

#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "app/harness.h"
#include "app/workload.h"
#include "middlebox/nat.h"
#include "middlebox/option_stripper.h"
#include "middlebox/payload_modifier.h"
#include "sim/placement.h"
#include "sim/topology.h"

namespace mptcp {

/// One declared in-path element. Factories cover the catalogue the fleet
/// scenarios draw from; the struct is plain data so specs stay copyable
/// and comparable.
struct MiddleboxDecl {
  enum class Kind : uint8_t {
    kOptionStripper,   ///< one-directional, middlebox/option_stripper.h
    kPayloadModifier,  ///< one-directional DSS-checksum-corrupting ALG
    kHoleDropper,      ///< one-directional hole-refusing proxy
    kNat,              ///< duplex, middlebox/nat.h
  };

  Kind kind = Kind::kOptionStripper;
  // OptionStripper parameters.
  OptionStripper::Scope scope = OptionStripper::Scope::kAllSegments;
  OptionStripper::What what = OptionStripper::What::kAllMptcp;
  // Nat parameters.
  IpAddr nat_public{};
  Port nat_first_port = 20000;
  // PayloadModifier parameter.
  uint64_t modify_interval = 1;

  static MiddleboxDecl option_stripper(OptionStripper::Scope scope,
                                       OptionStripper::What what) {
    MiddleboxDecl d;
    d.kind = Kind::kOptionStripper;
    d.scope = scope;
    d.what = what;
    return d;
  }
  static MiddleboxDecl nat(IpAddr public_addr, Port first_port = 20000) {
    MiddleboxDecl d;
    d.kind = Kind::kNat;
    d.nat_public = public_addr;
    d.nat_first_port = first_port;
    return d;
  }
  static MiddleboxDecl payload_modifier(uint64_t interval = 1) {
    MiddleboxDecl d;
    d.kind = Kind::kPayloadModifier;
    d.modify_interval = interval;
    return d;
  }
  static MiddleboxDecl hole_dropper() {
    MiddleboxDecl d;
    d.kind = Kind::kHoleDropper;
    return d;
  }
};

class Scenario;

class ScenarioSpec {
 public:
  /// Shard sentinel: pin the node by shard_for_token(name) at build time
  /// instead of an explicit shard (population builders use this to spread
  /// islands without coordinating).
  static constexpr size_t kAutoShard = static_cast<size_t>(-1);

  ScenarioSpec& seed(uint64_t s) {
    seed_ = s;
    return *this;
  }
  ScenarioSpec& shards(size_t n) {
    shards_ = n == 0 ? 1 : n;
    return *this;
  }
  uint64_t seed() const { return seed_; }
  size_t shard_count() const { return shards_; }

  /// shard_for_token() for this spec's shard count. Available at
  /// declaration time so a group of related nodes ("f3.client",
  /// "f3.gw", ...) can be pinned to one shard derived from a shared
  /// token.
  size_t shard_for(std::string_view token) const {
    return shard_for_token(token, shards_);
  }

  /// Declares a host/router. Ids are assigned in declaration order and are
  /// identical to the built Topology's NodeIds.
  NodeId host(std::string name, size_t shard = 0);
  NodeId router(std::string name, size_t shard = 0);

  /// Declares a full-duplex link (`ab` shapes a->b); returns the link
  /// index, identical to the built Topology's.
  size_t link(NodeId a, NodeId b, const LinkConfig& ab, const LinkConfig& ba,
              std::string name = "");
  /// Same, from a PathSpec: `up` is a->b, so declare as (client, gateway).
  size_t path(NodeId a, NodeId b, const PathSpec& p) {
    return link(a, b, p.up, p.down, p.name);
  }

  /// Declares a one-directional middlebox in the a->b (`via_up`) or b->a
  /// (`via_down`) chain of link `l`, or a duplex element (`via`) whose
  /// forward side faces away from the link's host endpoint. Elements on
  /// the same direction nest in declaration order, most recent first
  /// (splice semantics). Returns a handle for Scenario's typed accessors.
  size_t via_up(size_t l, const MiddleboxDecl& mb);
  size_t via_down(size_t l, const MiddleboxDecl& mb);
  size_t via(size_t l, const MiddleboxDecl& mb);

  /// Declares a workload group; the built Scenario owns one WorkloadEngine
  /// per group, in declaration order.
  size_t workload(WorkloadConfig wc);

  /// Reassigns every declared node's shard with the greedy edge-cut
  /// partitioner (sim/placement.h), the quality-aware alternative to
  /// per-node pinning or shard_for() hashing: declared links become
  /// affinity edges, hosts weigh 1.0 and routers 0.25, and any link with
  /// a zero-propagation-delay direction welds its endpoints into one
  /// unit (cross-shard links need positive delay -- it is the engine's
  /// lookahead). Call after declaring all nodes and links, before
  /// build(); build() then exports `placement.cut_edges` and
  /// `placement.imbalance_permille` gauges on shard 0. Deterministic:
  /// the same declarations always place the same way.
  const PlacementResult& auto_place();
  /// The last auto_place() result, or nullptr if never called.
  const PlacementResult* placement() const {
    return placed_ ? &placement_ : nullptr;
  }

  /// Replays the declarations onto a fresh Topology, instantiates and
  /// splices middleboxes, computes routes (plus NAT public-address
  /// aliases) and constructs the workload engines.
  Scenario build() const;

 private:
  friend class Scenario;

  struct NodeDecl {
    std::string name;
    bool is_router = false;
    size_t shard = 0;
  };
  struct LinkDecl {
    NodeId a = 0;
    NodeId b = 0;
    LinkConfig ab;
    LinkConfig ba;
    std::string name;
  };
  struct MboxDecl {
    MiddleboxDecl mb;
    size_t link = 0;
    enum class Dir : uint8_t { kUp, kDown, kDuplex } dir = Dir::kUp;
  };

  uint64_t seed_ = 1;
  size_t shards_ = 1;
  std::vector<NodeDecl> nodes_;
  std::vector<LinkDecl> links_;
  std::vector<MboxDecl> mboxes_;
  std::vector<WorkloadConfig> workloads_;
  PlacementResult placement_;
  bool placed_ = false;
};

/// A built scenario: the Topology plus everything the spec declared on
/// top of it. Move-only; handles returned by the spec index into it.
class Scenario {
 public:
  Scenario(Scenario&&) = default;
  Scenario& operator=(Scenario&&) = default;

  Topology& topo() { return *topo_; }

  // --- middlebox access by declaration handle ------------------------------
  OptionStripper* option_stripper(size_t h) {
    return mboxes_[h].stripper.get();
  }
  PayloadModifier* payload_modifier(size_t h) {
    return mboxes_[h].modifier.get();
  }
  HoleDropper* hole_dropper(size_t h) { return mboxes_[h].dropper.get(); }
  Nat* nat(size_t h) { return mboxes_[h].nat.get(); }

  // --- workload groups -----------------------------------------------------
  size_t engine_count() const { return engines_.size(); }
  WorkloadEngine& engine(size_t i) { return *engines_[i]; }
  void start_workloads() {
    for (auto& e : engines_) e->start();
  }
  void stop_workloads() {
    for (auto& e : engines_) e->stop();
  }

  /// Hands the bare Topology to callers that predate Scenario ownership
  /// (the capacity builders). Only legal when the spec declared no
  /// middleboxes or workloads -- those hold references into the Topology.
  std::unique_ptr<Topology> take_topology() {
    assert(mboxes_.empty() && engines_.empty());
    return std::move(topo_);
  }

 private:
  friend class ScenarioSpec;
  Scenario() = default;

  struct MboxInstance {
    std::unique_ptr<OptionStripper> stripper;
    std::unique_ptr<PayloadModifier> modifier;
    std::unique_ptr<HoleDropper> dropper;
    std::unique_ptr<Nat> nat;
  };

  std::unique_ptr<Topology> topo_;
  std::vector<MboxInstance> mboxes_;
  std::vector<std::unique_ptr<WorkloadEngine>> engines_;
  std::vector<IpAddr> link_host_addr_;  ///< host-side address per link
};

/// The classic two-host shape, declared on a spec: a (possibly
/// multihomed) client whose paths all meet one gateway router, with the
/// server behind an effectively ideal wire. Paths are declared first, so
/// path i is link i and the wire is the last link.
struct TwoHostShape {
  NodeId client = 0;
  NodeId gw = 0;
  NodeId server = 0;
  std::vector<size_t> paths;  ///< link index per path, add order
  size_t server_link = 0;
};

/// Declares the shape above. `prefix` namespaces the node names (islands
/// in a population use "f<i>."), `shard` pins every node of the shape
/// (ScenarioSpec::kAutoShard derives it from the prefixed client name).
TwoHostShape declare_two_host(ScenarioSpec& spec,
                              const std::vector<PathSpec>& paths,
                              const std::string& prefix = "",
                              size_t shard = 0);

/// One client reaching one server over a few paths -- the shape of every
/// experiment in the paper's evaluation -- as a built declare_two_host
/// Scenario. The rig only hides node ids and link indices: path `i` is
/// the i-th PathSpec, the client's i-th address sits on it, and the
/// server's one address is behind the gateway.
class TwoHostRig {
 public:
  explicit TwoHostRig(const std::vector<PathSpec>& paths, uint64_t seed = 1);

  /// Splices a middlebox into the client->server (up) or server->client
  /// (down) direction of path `i`. Repeated splices nest: the most
  /// recently spliced element sees packets first.
  void splice_up(size_t i, Middlebox& element) {
    topo().splice_ab(shape_.paths[i], element);
  }
  void splice_down(size_t i, Middlebox& element) {
    topo().splice_ba(shape_.paths[i], element);
  }

  /// Takes path `i` and the client interface on it down or up (mobility).
  void set_path_up(size_t i, bool up) {
    topo().set_link_up(shape_.paths[i], up);
  }

  Topology& topo() { return scn_.topo(); }
  EventLoop& loop() { return topo().loop(); }
  Host& client() { return topo().host(shape_.client); }
  Host& server() { return topo().host(shape_.server); }
  IpAddr client_addr(size_t i) { return topo().addr(shape_.client, i); }
  IpAddr server_addr() { return topo().addr(shape_.server); }
  Link& up_link(size_t i) { return topo().link_ab(shape_.paths[i]); }
  Link& down_link(size_t i) { return topo().link_ba(shape_.paths[i]); }
  size_t path_count() const { return shape_.paths.size(); }

  /// The simulation-wide stats registry and its flat sorted-key JSON
  /// export; benches pass the export through to --stats files.
  StatsRegistry& stats() { return loop().stats(); }
  std::string dump_stats() { return topo().dump_stats(); }

 private:
  TwoHostRig(ScenarioSpec& spec, const std::vector<PathSpec>& paths);

  TwoHostShape shape_;  ///< declared on the spec before scn_ builds it
  Scenario scn_;
};

}  // namespace mptcp
