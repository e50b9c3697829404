#include "app/scenario.h"

namespace mptcp {

NodeId ScenarioSpec::host(std::string name, size_t shard) {
  nodes_.push_back({std::move(name), /*is_router=*/false, shard});
  return nodes_.size() - 1;
}

NodeId ScenarioSpec::router(std::string name, size_t shard) {
  nodes_.push_back({std::move(name), /*is_router=*/true, shard});
  return nodes_.size() - 1;
}

size_t ScenarioSpec::link(NodeId a, NodeId b, const LinkConfig& ab,
                          const LinkConfig& ba, std::string name) {
  assert(a < nodes_.size() && b < nodes_.size());
  links_.push_back({a, b, ab, ba, std::move(name)});
  return links_.size() - 1;
}

size_t ScenarioSpec::via_up(size_t l, const MiddleboxDecl& mb) {
  assert(l < links_.size());
  mboxes_.push_back({mb, l, MboxDecl::Dir::kUp});
  return mboxes_.size() - 1;
}

size_t ScenarioSpec::via_down(size_t l, const MiddleboxDecl& mb) {
  assert(l < links_.size());
  mboxes_.push_back({mb, l, MboxDecl::Dir::kDown});
  return mboxes_.size() - 1;
}

size_t ScenarioSpec::via(size_t l, const MiddleboxDecl& mb) {
  assert(l < links_.size());
  mboxes_.push_back({mb, l, MboxDecl::Dir::kDuplex});
  return mboxes_.size() - 1;
}

size_t ScenarioSpec::workload(WorkloadConfig wc) {
  workloads_.push_back(std::move(wc));
  return workloads_.size() - 1;
}

Scenario ScenarioSpec::build() const {
  Scenario scn;
  scn.topo_ = std::make_unique<Topology>(seed_, shards_);
  Topology& t = *scn.topo_;

  // Nodes and links replay in declaration order, so every id, address
  // and loss seed matches what imperative construction would produce --
  // the property that keeps pre-Scenario determinism digests pinned.
  for (const NodeDecl& n : nodes_) {
    if (n.is_router) {
      t.add_router(n.name, n.shard);
    } else {
      t.add_host(n.name, n.shard);
    }
  }
  scn.link_host_addr_.reserve(links_.size());
  for (const LinkDecl& l : links_) {
    t.connect(l.a, l.b, l.ab, l.ba, l.name);
    // The host-side interface address this connect just assigned (side a
    // preferred): what a NAT on this link translates, and what its public
    // address must route like.
    if (!t.is_router(l.a)) {
      scn.link_host_addr_.push_back(t.addrs(l.a).back());
    } else if (!t.is_router(l.b)) {
      scn.link_host_addr_.push_back(t.addrs(l.b).back());
    } else {
      scn.link_host_addr_.push_back(IpAddr{});
    }
  }

  // Middlebox chains: splice semantics, the most recently declared
  // element on a direction sees packets first.
  scn.mboxes_.reserve(mboxes_.size());
  for (const MboxDecl& d : mboxes_) {
    Scenario::MboxInstance inst;
    const LinkDecl& l = links_[d.link];
    switch (d.mb.kind) {
      case MiddleboxDecl::Kind::kOptionStripper:
        inst.stripper =
            std::make_unique<OptionStripper>(d.mb.scope, d.mb.what);
        break;
      case MiddleboxDecl::Kind::kPayloadModifier:
        inst.modifier =
            std::make_unique<PayloadModifier>(d.mb.modify_interval);
        break;
      case MiddleboxDecl::Kind::kNat:
        inst.nat = std::make_unique<Nat>(d.mb.nat_public, d.mb.nat_first_port);
        break;
    }
    Middlebox* one_way = inst.stripper != nullptr
                             ? static_cast<Middlebox*>(inst.stripper.get())
                             : inst.modifier.get();
    switch (d.dir) {
      case MboxDecl::Dir::kUp:
        assert(one_way != nullptr && "duplex elements use via()");
        t.splice_ab(d.link, *one_way);
        break;
      case MboxDecl::Dir::kDown:
        assert(one_way != nullptr && "duplex elements use via()");
        t.splice_ba(d.link, *one_way);
        break;
      case MboxDecl::Dir::kDuplex: {
        assert(inst.nat != nullptr && "one-way elements use via_up/via_down");
        // Forward faces away from the link's host (private) side: traffic
        // the host originates is translated, return traffic untranslated.
        const bool host_is_a = !t.is_router(l.a);
        assert((host_is_a || !t.is_router(l.b)) &&
               "duplex elements need a host endpoint on the link");
        if (host_is_a) {
          t.splice_ab(d.link, inst.nat->forward_sink());
          t.splice_ba(d.link, inst.nat->reverse_sink());
        } else {
          t.splice_ba(d.link, inst.nat->forward_sink());
          t.splice_ab(d.link, inst.nat->reverse_sink());
        }
        break;
      }
    }
    scn.mboxes_.push_back(std::move(inst));
  }

  t.build_routes();
  // NAT public addresses route exactly like the private host-side address
  // of their link, so return traffic reaches the reverse sink through any
  // router graph.
  for (size_t i = 0; i < mboxes_.size(); ++i) {
    if (scn.mboxes_[i].nat != nullptr) {
      t.alias_route(scn.mboxes_[i].nat->public_addr(),
                    scn.link_host_addr_[mboxes_[i].link]);
    }
  }

  scn.engines_.reserve(workloads_.size());
  for (const WorkloadConfig& wc : workloads_) {
    scn.engines_.push_back(std::make_unique<WorkloadEngine>(t, wc));
  }
  return scn;
}

TwoHostShape declare_two_host(ScenarioSpec& spec,
                              const std::vector<PathSpec>& paths,
                              const std::string& prefix, size_t shard) {
  TwoHostShape shape;
  shape.client = spec.host(prefix + "client", shard);
  shape.gw = spec.router(prefix + "gw", shard);
  shape.server = spec.host(prefix + "server", shard);
  shape.paths.reserve(paths.size());
  for (const PathSpec& p : paths) {
    shape.paths.push_back(spec.path(shape.client, shape.gw, p));
  }
  // Effectively ideal server access: fast enough that the paths stay the
  // experiment's bottleneck, buffered for their aggregate burst.
  LinkConfig wire;
  wire.rate_bps = 100e9;
  wire.prop_delay = 1 * kMicrosecond;
  wire.buffer_bytes = 16 * 1024 * 1024;
  shape.server_link =
      spec.link(shape.gw, shape.server, wire, wire, prefix + "wire");
  return shape;
}

TwoHostRig::TwoHostRig(const std::vector<PathSpec>& paths, uint64_t seed)
    : TwoHostRig(ScenarioSpec().seed(seed), paths) {}

TwoHostRig::TwoHostRig(ScenarioSpec& spec, const std::vector<PathSpec>& paths)
    : shape_(declare_two_host(spec, paths)), scn_(spec.build()) {}

}  // namespace mptcp
