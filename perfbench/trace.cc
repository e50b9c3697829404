#include "trace.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "sim/network.h"
#include "sim/node.h"

namespace perfbench {

namespace {

uint64_t now_ns() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

/// Pass-through timing element: forwards every segment (or burst) to its
/// downstream sink unchanged and charges the call's self time to `kind`.
class LayerTrace::Tap final : public mptcp::Middlebox {
 public:
  Tap(ShardTrace& buf, SpanKind kind, bool first_hop)
      : buf_(buf), kind_(kind), first_hop_(first_hop) {}

  void deliver(mptcp::TcpSegment seg) override {
    if (downstream() == nullptr) return;
    if (first_hop_) buf_.payload_sent += seg.payload.size();
    const Span span(buf_, kind_, 1);
    downstream()->deliver(std::move(seg));
  }

  void deliver_burst(mptcp::TcpSegment* segs, size_t n) override {
    if (downstream() == nullptr || n == 0) return;
    if (first_hop_) {
      for (size_t i = 0; i < n; ++i) {
        buf_.payload_sent += segs[i].payload.size();
      }
    }
    const Span span(buf_, kind_, n);
    downstream()->deliver_burst(segs, n);
  }

 private:
  /// One timed call. Self time (duration minus nested spans) is recorded
  /// once per segment, so a burst of n counts as n hops of 1/n each.
  class Span {
   public:
    Span(ShardTrace& buf, SpanKind kind, size_t n)
        : buf_(buf), kind_(kind), n_(n), parent_(buf.child_ns),
          start_(now_ns()) {
      buf_.child_ns = &child_;
    }
    ~Span() {
      const uint64_t dt = now_ns() - start_;
      buf_.child_ns = parent_;
      if (parent_ != nullptr) *parent_ += dt;
      const uint64_t self = dt > child_ ? dt - child_ : 0;
      const size_t k = static_cast<size_t>(kind_);
      buf_.total_ns[k] += self;
      const auto per = static_cast<uint32_t>(std::min<uint64_t>(
          self / n_, std::numeric_limits<uint32_t>::max()));
      buf_.ns[k].insert(buf_.ns[k].end(), n_, per);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    ShardTrace& buf_;
    SpanKind kind_;
    size_t n_;
    uint64_t* parent_;
    uint64_t child_ = 0;
    uint64_t start_;
  };

  ShardTrace& buf_;
  SpanKind kind_;
  bool first_hop_;
};

LayerTrace::LayerTrace(mptcp::Topology& topo) : shards_(topo.shard_count()) {
  using mptcp::Middlebox;
  using mptcp::PacketSink;
  const auto kind_of = [](PacketSink* node) {
    return dynamic_cast<mptcp::Router*>(node) != nullptr ? SpanKind::kRouter
                                                         : SpanKind::kHost;
  };
  for (size_t l = 0; l < topo.link_count(); ++l) {
    for (bool ab : {true, false}) {
      const mptcp::NodeId src = ab ? topo.link_node_a(l) : topo.link_node_b(l);
      const mptcp::NodeId dst = ab ? topo.link_node_b(l) : topo.link_node_a(l);
      ShardTrace& buf = shards_[topo.shard_of(dst)];
      auto egress = std::make_unique<Tap>(buf, SpanKind::kMiddlebox,
                                          !topo.is_router(src));
      if (ab) {
        topo.splice_ab(l, *egress);
      } else {
        topo.splice_ba(l, *egress);
      }
      // Walk the chain the link already had and put a second tap just
      // before the node, so the chain's own time separates out. Links
      // without a chain get one too: their "middlebox" self time is then
      // the cost of one pass-through tap, the floor of this measurement.
      Middlebox* last = egress.get();
      PacketSink* next = egress->downstream();
      while (auto* mb = dynamic_cast<Middlebox*>(next)) {
        last = mb;
        next = mb->downstream();
      }
      auto pre = std::make_unique<Tap>(buf, kind_of(next), false);
      pre->set_downstream(last->downstream());
      last->set_downstream(pre.get());
      taps_.push_back(std::move(pre));
      taps_.push_back(std::move(egress));
    }
  }
}

LayerTrace::~LayerTrace() = default;

SpanSummary LayerTrace::summary(SpanKind k) const {
  const size_t ki = static_cast<size_t>(k);
  SpanSummary out;
  std::vector<uint32_t> v;
  for (const ShardTrace& s : shards_) {
    v.insert(v.end(), s.ns[ki].begin(), s.ns[ki].end());
    out.total_ns += s.total_ns[ki];
  }
  if (v.empty()) return out;
  const auto at = [&v](size_t rank) {
    std::nth_element(v.begin(), v.begin() + rank, v.end());
    return v[rank];
  };
  out.p50 = at(v.size() / 2);
  out.tail = at(v.size() <= 10 ? v.size() - 1 : v.size() - 11);
  return out;
}

uint64_t LayerTrace::payload_sent() const {
  uint64_t b = 0;
  for (const ShardTrace& s : shards_) b += s.payload_sent;
  return b;
}

}  // namespace perfbench
