#include "sim/network.h"

#include <utility>

namespace mptcp {

Host::Host(EventLoop& loop, std::string name)
    : loop_(loop), name_(std::move(name)) {}

void Host::add_interface(IpAddr addr, PacketSink* out) {
  ifaces_.push_back(Interface{addr, out, true});
}

void Host::set_interface_up(IpAddr addr, bool up) {
  for (auto& i : ifaces_) {
    if (i.addr == addr) i.up = up;
  }
}

bool Host::interface_up(IpAddr addr) const {
  for (const auto& i : ifaces_) {
    if (i.addr == addr) return i.up;
  }
  return false;
}

std::vector<IpAddr> Host::addresses() const {
  std::vector<IpAddr> out;
  out.reserve(ifaces_.size());
  for (const auto& i : ifaces_) out.push_back(i.addr);
  return out;
}

bool Host::owns_address(IpAddr addr) const {
  for (const auto& i : ifaces_) {
    if (i.addr == addr) return true;
  }
  return false;
}

void Host::send(TcpSegment seg) {
  for (auto& i : ifaces_) {
    if (i.addr == seg.tuple.src.addr) {
      if (!i.up || i.out == nullptr) {
        ++send_drops_;
        return;
      }
      i.out->deliver(std::move(seg));
      return;
    }
  }
  ++send_drops_;
}

void Host::send_burst(std::vector<TcpSegment>& batch) {
  size_t i = 0;
  const size_t n = batch.size();
  while (i < n) {
    // Extend the run while the source address repeats; one interface
    // lookup and one sink dispatch then cover the whole run. Merging only
    // adjacent segments keeps the call sequence identical to per-segment
    // send(), so event ordering (and digests) cannot shift.
    const IpAddr src = batch[i].tuple.src.addr;
    size_t j = i + 1;
    while (j < n && batch[j].tuple.src.addr == src) ++j;
    Interface* iface = nullptr;
    for (auto& cand : ifaces_) {
      if (cand.addr == src) {
        iface = &cand;
        break;
      }
    }
    if (iface == nullptr || !iface->up || iface->out == nullptr) {
      send_drops_ += j - i;
    } else {
      iface->out->deliver_burst(batch.data() + i, j - i);
    }
    i = j;
  }
  batch.clear();
}

void Host::deliver(TcpSegment seg) {
  const SimTime cost =
      cpu_.per_segment +
      cpu_.per_byte * static_cast<SimTime>(seg.payload_size());
  if (cost == 0) {
    process(seg);
    return;
  }
  // Single-core FIFO CPU: the segment is handled once the core has worked
  // through its backlog plus this segment's own cost.
  const SimTime start = std::max(loop_.now(), cpu_free_at_);
  cpu_free_at_ = start + cost;
  cpu_pending_.push_back(std::move(seg));
  loop_.schedule_at(cpu_free_at_, [this] { process_queued(); });
}

void Host::process_queued() {
  TcpSegment seg = std::move(cpu_pending_.front());
  cpu_pending_.pop_front();
  process(seg);
}

void Host::process(const TcpSegment& seg) {
  auto it = conns_.find(seg.tuple.reversed());
  if (it != conns_.end()) {
    it->second->on_segment(seg);
    return;
  }
  if (seg.syn && !seg.ack_flag) {
    auto lit = listeners_.find(seg.tuple.dst.port);
    if (lit != listeners_.end()) {
      lit->second->on_syn(seg);
      return;
    }
  }
  ++demux_misses_;
}

void Host::bind(const Endpoint& local, const Endpoint& remote,
                SegmentHandler* handler) {
  conns_[FourTuple{local, remote}] = handler;
}

void Host::unbind(const Endpoint& local, const Endpoint& remote) {
  conns_.erase(FourTuple{local, remote});
}

Router::Router(EventLoop& loop, std::string name)
    : name_(std::move(name)), stats_hook_(loop.stats(), *this) {}

void Router::publish_stats(StatsOut& out) const {
  if (!out.open("sim.router.", name_)) return;
  out.emit("forwarded", static_cast<double>(forwarded_));
  out.emit("dropped_no_route", static_cast<double>(dropped_no_route_));
}

void Router::deliver(TcpSegment seg) {
  auto it = routes_.find(seg.tuple.dst.addr);
  PacketSink* next = it != routes_.end() ? it->second : default_;
  if (next == nullptr) {
    ++dropped_no_route_;
    return;
  }
  ++forwarded_;
  next->deliver(std::move(seg));
}

void Host::listen(Port port, ListenHandler* handler) {
  listeners_[port] = handler;
}

void Host::unlisten(Port port) { listeners_.erase(port); }

}  // namespace mptcp
