#include "sim/link.h"

#include <utility>

#include "sim/shard.h"

namespace mptcp {

Link::Link(EventLoop& loop, LinkConfig config, std::string name)
    : loop_(loop),
      config_(config),
      name_(std::move(name)),
      rng_(config.loss_seed) {}

void Link::publish_stats(StatsOut& out) const {
  if (!out.open("sim.link.", name_)) return;
  out.emit("enqueued_pkts", static_cast<double>(stats_.enqueued_pkts));
  out.emit("delivered_pkts", static_cast<double>(stats_.delivered_pkts));
  out.emit("delivered_bytes", static_cast<double>(stats_.delivered_bytes));
  out.emit("dropped_overflow", static_cast<double>(stats_.dropped_overflow));
  out.emit("dropped_loss", static_cast<double>(stats_.dropped_loss));
  out.emit("dropped_down", static_cast<double>(stats_.dropped_down));
  out.emit("queued_bytes", static_cast<double>(queued_bytes_));
  out.emit_histogram("occupancy_bytes", occupancy_);
}

void Link::deliver(TcpSegment seg) {
  if (!up_) {
    ++stats_.dropped_down;
    return;
  }
  // An empty queue always admits one packet even if it exceeds the
  // configured buffer; otherwise a buffer smaller than one MTU would
  // black-hole the link entirely.
  const size_t size = seg.wire_size();
  if (queued_bytes_ + size > config_.buffer_bytes &&
      ring_.size() != departed_) {
    ++stats_.dropped_overflow;
    return;
  }
  ++stats_.enqueued_pkts;
  queued_bytes_ += size;
  occupancy_.record(queued_bytes_);
  ring_.emplace_back(std::move(seg), size);
  if (!transmitting_) start_transmission();
}

void Link::deliver_burst(TcpSegment* segs, size_t n) {
  if (!up_) {
    stats_.dropped_down += n;
    return;
  }
  size_t admitted = 0;
  size_t qb = queued_bytes_;
  for (size_t i = 0; i < n; ++i) {
    const size_t size = segs[i].wire_size();
    if (qb + size > config_.buffer_bytes && ring_.size() != departed_) {
      ++stats_.dropped_overflow;
      continue;
    }
    ++admitted;
    qb += size;
    // The occupancy histogram is defined per enqueue: it samples the depth
    // after every individual segment, so it cannot be batched.
    occupancy_.record(qb);
    ring_.emplace_back(std::move(segs[i]), size);
  }
  stats_.enqueued_pkts += admitted;
  queued_bytes_ = qb;
  if (!transmitting_ && admitted != 0) start_transmission();
}

void Link::start_transmission() {
  if (ring_.size() == departed_) {
    transmitting_ = false;
    return;
  }
  transmitting_ = true;
  const size_t size = ring_[departed_].wire_size;
  const double tx_seconds = static_cast<double>(size) * 8.0 / config_.rate_bps;
  const SimTime tx_time =
      static_cast<SimTime>(tx_seconds * static_cast<double>(kSecond));
  loop_.schedule_in(tx_time, [this] { finish_transmission(); });
}

void Link::finish_transmission() {
  // The departing slot is decided in place. Nothing below pushes into or
  // pops from ring_ while `slot` is in use: the shard channel is another
  // object, and release_departing() comes last.
  Slot& slot = ring_[departed_];
  const size_t size = slot.wire_size;
  queued_bytes_ -= size;

  if (!up_) {
    ++stats_.dropped_down;
    release_departing();
  } else if (config_.loss_prob > 0.0 && rng_.chance(config_.loss_prob)) {
    ++stats_.dropped_loss;
    release_departing();
  } else if (handoff_ != nullptr) {
    ++stats_.delivered_pkts;
    stats_.delivered_bytes += size;
    handoff_->send(loop_.now() + config_.prop_delay, std::move(slot.seg));
    release_departing();
  } else if (target_ != nullptr) {
    ++stats_.delivered_pkts;
    stats_.delivered_bytes += size;
    slot.target = target_;
    if (departed_ == 0) {
      loop_.schedule_in(config_.prop_delay, [this] { deliver_in_flight(); });
    } else {
      // Behind a propagating segment: its arrival event is filed when the
      // one ahead arrives, at the seq a schedule now would take.
      slot.arrival = loop_.now() + config_.prop_delay;
      slot.arrival_seq = loop_.reserve_seq();
    }
    ++departed_;
  } else {
    release_departing();
  }
  start_transmission();
}

void Link::release_departing() {
  if (departed_ == 0) {
    ring_.pop_front();
    return;
  }
  // Behind a propagating segment: free the bytes now and leave the empty
  // slot for deliver_in_flight() to pop after the one ahead arrives.
  ring_[departed_].seg = TcpSegment();
  ++departed_;
}

void Link::deliver_in_flight() {
  // The target may send on this very link (a reflecting middlebox, a
  // routing loop), which pushes into ring_ and may move every slot, so
  // the segment leaves its slot -- moved into deliver()'s parameter --
  // before the call, and the slot is popped by position after it.
  PacketSink* target = ring_.front().target;
  target->deliver(std::move(ring_.front().seg));
  do {
    ring_.pop_front();
    --departed_;
  } while (departed_ != 0 && ring_.front().target == nullptr);
  if (departed_ != 0) {
    loop_.schedule_at_seq(ring_.front().arrival, ring_.front().arrival_seq,
                          [this] { deliver_in_flight(); });
  }
}

}  // namespace mptcp
