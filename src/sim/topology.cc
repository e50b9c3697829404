#include "sim/topology.h"

#include <deque>
#include <utility>

namespace mptcp {

Topology::Topology(uint64_t seed, size_t shards) : seed_(seed) {
  if (shards == 0) shards = 1;
  loops_.reserve(shards);
  for (size_t s = 0; s < shards; ++s) {
    loops_.push_back(std::make_unique<EventLoop>());
    // Tag non-zero shards' per-instance scope names so partitions can
    // never alias in a merged export; shard 0 stays untagged to keep
    // single-shard exports byte-identical to the pre-sharding format.
    if (s > 0) loops_.back()->stats().set_scope_tag("@s" + std::to_string(s));
  }
}

NodeId Topology::add_host(const std::string& name, size_t shard) {
  assert(shard < loops_.size());
  const NodeId id = nodes_.size();
  Node n;
  n.name = name;
  n.host = std::make_unique<Host>(*loops_[shard], name);
  n.shard = shard;
  nodes_.push_back(std::move(n));
  return id;
}

NodeId Topology::add_router(const std::string& name, size_t shard) {
  assert(shard < loops_.size());
  const NodeId id = nodes_.size();
  Node n;
  n.name = name;
  n.router = std::make_unique<Router>(*loops_[shard], name);
  n.shard = shard;
  nodes_.push_back(std::move(n));
  return id;
}

size_t Topology::connect(NodeId a, NodeId b, const LinkConfig& cfg_ab,
                         const LinkConfig& cfg_ba, std::string name) {
  assert(a < nodes_.size() && b < nodes_.size() && a != b);
  const size_t idx = links_.size();
  if (name.empty()) name = nodes_[a].name + "-" + nodes_[b].name;

  LinkConfig ab = cfg_ab;
  LinkConfig ba = cfg_ba;
  ab.loss_seed ^= seed_ * 0x9e37 + idx * 0x632be59bd9b4e019ULL;
  ba.loss_seed ^= seed_ * 0x79b9 + idx * 0xd1342543de82ef95ULL;

  // Each direction's egress machinery (queue, serialization, loss) lives
  // in the *source* node's shard; a cross-shard direction delivers
  // through a ShardChannel whose target chain runs in the destination
  // shard. The channel carries the propagation delay in its arrival
  // timestamps, so prop_delay must be positive -- it is the lookahead
  // that keeps barrier-drained handoff exact.
  const size_t sa = nodes_[a].shard;
  const size_t sb = nodes_[b].shard;
  LinkRec rec;
  rec.a = a;
  rec.b = b;
  rec.ab = std::make_unique<Link>(*loops_[sa], ab, name + "-ab");
  rec.ba = std::make_unique<Link>(*loops_[sb], ba, name + "-ba");
  if (sa == sb) {
    rec.ab->set_target(sink_of(b));
    rec.ba->set_target(sink_of(a));
  } else {
    assert(ab.prop_delay > 0 && ba.prop_delay > 0 &&
           "cross-shard links need positive propagation delay");
    auto ab_ch = std::make_unique<ShardChannel>(sa, sb, *loops_[sb],
                                                ring_capacity_, ab.prop_delay);
    ab_ch->set_target(sink_of(b));
    rec.ab->set_handoff(ab_ch.get());
    rec.ab_ch = ab_ch.get();
    channels_.push_back(std::move(ab_ch));

    auto ba_ch = std::make_unique<ShardChannel>(sb, sa, *loops_[sa],
                                                ring_capacity_, ba.prop_delay);
    ba_ch->set_target(sink_of(a));
    rec.ba->set_handoff(ba_ch.get());
    rec.ba_ch = ba_ch.get();
    channels_.push_back(std::move(ba_ch));

    for (SimTime prop : {ab.prop_delay, ba.prop_delay}) {
      if (min_cross_prop_ == 0 || prop < min_cross_prop_) {
        min_cross_prop_ = prop;
      }
    }
  }

  // Host endpoints gain a fresh address in this link's /24 and send out of
  // it through the matching link direction.
  if (!is_router(a)) {
    nodes_[a].host->add_interface(link_addr(idx, 0), rec.ab.get());
    nodes_[a].addrs.push_back(link_addr(idx, 0));
  }
  if (!is_router(b)) {
    nodes_[b].host->add_interface(link_addr(idx, 1), rec.ba.get());
    nodes_[b].addrs.push_back(link_addr(idx, 1));
  }

  links_.push_back(std::move(rec));
  return idx;
}

void Topology::splice_ab(size_t l, Middlebox& element) {
  // On a cross-shard link the delivery chain hangs off the channel (and
  // runs on the destination shard's thread), so that is where middleboxes
  // nest.
  if (links_[l].ab_ch != nullptr) {
    element.set_downstream(links_[l].ab_ch->target());
    links_[l].ab_ch->set_target(&element);
    return;
  }
  element.set_downstream(links_[l].ab->target());
  links_[l].ab->set_target(&element);
}

void Topology::splice_ba(size_t l, Middlebox& element) {
  if (links_[l].ba_ch != nullptr) {
    element.set_downstream(links_[l].ba_ch->target());
    links_[l].ba_ch->set_target(&element);
    return;
  }
  element.set_downstream(links_[l].ba->target());
  links_[l].ba->set_target(&element);
}

void Topology::set_link_up(size_t l, bool up) {
  LinkRec& rec = links_[l];
  rec.ab->set_up(up);
  rec.ba->set_up(up);
  // The address a host gained from link `l` is the one whose interface
  // sends into it.
  if (!is_router(rec.a)) {
    nodes_[rec.a].host->set_interface_up(link_addr(l, 0), up);
  }
  if (!is_router(rec.b)) {
    nodes_[rec.b].host->set_interface_up(link_addr(l, 1), up);
  }
}

size_t shard_for_token(std::string_view token, size_t shards) {
  uint64_t h = 14695981039346656037ULL;
  for (char c : token) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return static_cast<size_t>(h % shards);
}

std::vector<const StatsRegistry*> Topology::shard_stats() const {
  std::vector<const StatsRegistry*> parts;
  parts.reserve(loops_.size());
  for (const auto& l : loops_) parts.push_back(&l->stats());
  return parts;
}

std::string Topology::dump_stats() {
  if (loops_.size() == 1) return loops_[0]->stats().to_json();
  const auto parts = shard_stats();
  return StatsRegistry::merged_to_json(parts);
}

void Topology::build_routes() {
  for (Node& n : nodes_) {
    if (n.router != nullptr) n.router->clear_routes();
  }

  // Adjacency in creation order; `back` is the reverse direction of the
  // same link (the out-link of `peer` toward this node), which is exactly
  // the next hop a BFS predecessor needs.
  struct Edge {
    NodeId peer;
    Link* out;   ///< direction node -> peer
    Link* back;  ///< direction peer -> node
  };
  std::vector<std::vector<Edge>> adj(nodes_.size());
  for (LinkRec& l : links_) {
    adj[l.a].push_back(Edge{l.b, l.ab.get(), l.ba.get()});
    adj[l.b].push_back(Edge{l.a, l.ba.get(), l.ab.get()});
  }

  // Scratch state for the per-address BFS below, reused across addresses.
  std::vector<int> visited(nodes_.size(), 0);
  std::vector<Link*> via(nodes_.size(), nullptr);  // next hop toward source
  int epoch = 0;

  for (size_t li = 0; li < links_.size(); ++li) {
    LinkRec& lrec = links_[li];
    // Each host endpoint contributes one routable address; seed a BFS at
    // the far end of its access link.
    for (int side = 0; side < 2; ++side) {
      const NodeId h = side == 0 ? lrec.a : lrec.b;
      const NodeId u = side == 0 ? lrec.b : lrec.a;
      if (is_router(h)) continue;
      const IpAddr addr = link_addr(li, side);
      Link* toward_h = side == 0 ? lrec.ba.get() : lrec.ab.get();

      if (!is_router(u)) continue;  // host-to-host link: direct, no routing
      nodes_[u].router->add_route(addr, toward_h);

      // BFS over the router mesh from `u`; hosts are leaves (they never
      // forward), so only routers are expanded. First-discovered wins on
      // equal hop counts -- deterministic by construction order.
      ++epoch;
      std::deque<NodeId> queue;
      visited[u] = epoch;
      queue.push_back(u);
      while (!queue.empty()) {
        const NodeId n = queue.front();
        queue.pop_front();
        for (const Edge& e : adj[n]) {
          if (visited[e.peer] == epoch) continue;
          visited[e.peer] = epoch;
          via[e.peer] = e.back;
          if (!is_router(e.peer)) continue;
          nodes_[e.peer].router->add_route(addr, via[e.peer]);
          queue.push_back(e.peer);
        }
      }
    }
  }
}

void Topology::alias_route(IpAddr alias, IpAddr like) {
  for (Node& n : nodes_) {
    if (n.router == nullptr) continue;
    if (PacketSink* next = n.router->next_hop(like)) {
      n.router->add_route(alias, next);
    }
  }
}

}  // namespace mptcp
