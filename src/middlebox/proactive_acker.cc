#include "middlebox/proactive_acker.h"

#include "tcp/tcp_types.h"

namespace mptcp {

void ProactiveAcker::on_forward(TcpSegment seg) {
  FlowState& st = flows_[seg.tuple];
  if (seg.syn) {
    st.synced = true;
    st.highest_end = seg.seq + 1;
  } else if (st.synced && !seg.payload.empty()) {
    // Only contiguous data is acknowledged (a real PEP tracks holes; an
    // out-of-order arrival produces a duplicate of the previous ACK,
    // which correctly triggers the sender's fast retransmit).
    const uint32_t end = seg.seq + static_cast<uint32_t>(seg.payload.size());
    if (seq32_leq(seg.seq, st.highest_end) &&
        seq32_lt(st.highest_end, end)) {
      st.highest_end = end;
    }
    // Forge an immediate ACK back toward the sender. A middlebox does not
    // understand MPTCP, so the forged ACK carries no MPTCP options: the
    // sender sees a subflow-level ACK with no DATA_ACK, exactly the
    // hazard the explicit DATA_ACK design defends against.
    TcpSegment ack;
    ack.tuple = seg.tuple.reversed();
    ack.seq = seg.ack;  // plausible; the box mirrors what it saw
    ack.ack = st.highest_end;
    ack.ack_flag = true;
    ack.window = st.last_window != 0 ? st.last_window : seg.window;
    ++forged_;
    emit_reverse(std::move(ack));
  }
  emit_forward(std::move(seg));
}

void ProactiveAcker::on_reverse(TcpSegment seg) {
  auto it = flows_.find(seg.tuple.reversed());
  if (it != flows_.end()) {
    FlowState& st = it->second;
    st.last_window = seg.window;
    if (seg.ack_flag && st.synced && policy_ != AckPolicy::kPassThrough &&
        seq32_lt(st.highest_end, seg.ack)) {
      if (policy_ == AckPolicy::kDropUnseen) return;
      seg.ack = st.highest_end;  // kCorrectUnseen
    }
  }
  emit_reverse(std::move(seg));
}

}  // namespace mptcp
