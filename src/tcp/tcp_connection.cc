#include "tcp/tcp_connection.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>

namespace mptcp {

namespace {

/// Chooses a window-scale shift so that `buf_max` is representable.
uint8_t choose_wscale(size_t buf_max) {
  uint8_t shift = 0;
  while (shift < 14 && (uint64_t{65535} << shift) < buf_max) ++shift;
  return shift;
}

}  // namespace

/// One loop's "tcp" group: each key sums a Stats field over the live
/// connections plus what destroyed ones folded in, so no key goes
/// backwards. The cwnd and ssthresh samples go to registry histograms,
/// which merge bucket by bucket across shards.
class TcpConnection::Totals final : public OwnedGroup {
 public:
  explicit Totals(StatsRegistry& reg)
      : cwnd(reg.histogram("tcp.cwnd_bytes")),
        ssthresh(reg.histogram("tcp.ssthresh_bytes")) {}

  void link(TcpConnection& c) {
    c.live_next_ = head_;
    if (head_ != nullptr) head_->live_prev_ = &c;
    head_ = &c;
  }

  void retire(TcpConnection& c) {
    for (size_t i = 0; i < kKeys.size(); ++i) {
      retired_[i] += c.stats_.*kKeys[i].second;
    }
    (c.live_prev_ != nullptr ? c.live_prev_->live_next_ : head_) = c.live_next_;
    if (c.live_next_ != nullptr) c.live_next_->live_prev_ = c.live_prev_;
  }

  void sample(StatsOut& out) const override {
    for (size_t i = 0; i < kKeys.size(); ++i) {
      uint64_t sum = retired_[i];
      for (const TcpConnection* c = head_; c != nullptr; c = c->live_next_) {
        sum += c->stats_.*kKeys[i].second;
      }
      out.emit(kKeys[i].first, static_cast<double>(sum));
    }
  }

  Histogram& cwnd;      ///< sampled once per RTT measurement
  Histogram& ssthresh;  ///< sampled on every reduction

 private:
  static constexpr std::array<std::pair<const char*, uint64_t Stats::*>, 7>
      kKeys{{{"segments_sent", &Stats::segments_sent},
             {"segments_received", &Stats::segments_received},
             {"retransmits", &Stats::retransmits},
             {"fast_retransmits", &Stats::fast_retransmits},
             {"rto_firings", &Stats::timeouts},
             {"persist_probes", &Stats::persist_probes},
             {"rwnd_stalls", &Stats::rwnd_stalls}}};
  TcpConnection* head_ = nullptr;
  std::array<uint64_t, kKeys.size()> retired_{};
};

std::string_view to_string(TcpState s) {
  switch (s) {
    case TcpState::kClosed: return "CLOSED";
    case TcpState::kListen: return "LISTEN";
    case TcpState::kSynSent: return "SYN_SENT";
    case TcpState::kSynReceived: return "SYN_RCVD";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait1: return "FIN_WAIT_1";
    case TcpState::kFinWait2: return "FIN_WAIT_2";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kClosing: return "CLOSING";
    case TcpState::kLastAck: return "LAST_ACK";
    case TcpState::kTimeWait: return "TIME_WAIT";
  }
  return "?";
}

TcpConnection::TcpConnection(Host& host, TcpConfig config, Endpoint local,
                             Endpoint remote,
                             std::unique_ptr<CongestionControl> cc)
    : host_(host),
      config_(config),
      local_(local),
      remote_(remote),
      rng_(config.seed ^ std::hash<FourTuple>{}(FourTuple{local, remote})),
      cc_(cc ? std::move(cc) : std::make_unique<NewRenoCc>()),
      rtt_(config.initial_rto, config.min_rto, config.max_rto),
      rto_timer_(host.loop(), [this] { on_rto(); }),
      persist_timer_(host.loop(), [this] { on_persist(); }),
      time_wait_timer_(host.loop(), [this] { finish_close(false); }),
      delack_timer_(host.loop(), [this] {
        if (delack_pending_ > 0) send_ack();
      }),
      totals_(host.loop().stats().owned<Totals>("tcp")) {
  cc_->init(config_.mss, config_.initial_cwnd_segments);
  snd_buf_capacity_ = config_.autotune ? config_.buf_initial
                                       : config_.snd_buf_max;
  rcv_buf_capacity_ = config_.autotune ? config_.buf_initial
                                       : config_.rcv_buf_max;
  totals_.link(*this);
}

TcpConnection::~TcpConnection() {
  totals_.retire(*this);
  if (bound_) host_.unbind(local_, remote_);
}

// --------------------------------------------------------------------------
// Opening.
// --------------------------------------------------------------------------

void TcpConnection::connect() {
  assert(state_ == TcpState::kClosed);
  active_open_ = true;
  iss_ = rng_.next_u32();
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;  // SYN occupies one
  snd_max_ = snd_nxt_;
  snd_buf_.reset(iss_ + 1);
  host_.bind(local_, remote_, this);
  bound_ = true;
  enter_state(TcpState::kSynSent);
  rtt_sample_pending_ = true;
  rtt_sample_end_seq_ = snd_nxt_;
  rtt_sample_sent_at_ = loop().now();
  send_syn(/*with_options=*/true);
  rto_timer_.arm_in(rtt_.rto());
}

void TcpConnection::accept_syn(const TcpSegment& syn) {
  assert(state_ == TcpState::kClosed);
  assert(syn.syn && !syn.ack_flag);
  active_open_ = false;
  host_.charge_cpu(syn_processing_cost());
  irs_ = syn.seq;  // epoch 0 of the unwrapped space
  rcv_nxt_ = irs_ + 1;
  iss_ = rng_.next_u32();
  snd_una_ = iss_;
  snd_nxt_ = iss_ + 1;
  snd_max_ = snd_nxt_;
  snd_buf_.reset(iss_ + 1);
  snd_wnd_ = syn.window;  // unscaled on SYN

  if (const auto* mss = find_option<MssOption>(syn.options)) {
    config_.mss = std::min(config_.mss, uint32_t{mss->mss});
    cc_->init(config_.mss, config_.initial_cwnd_segments);
  }
  if (const auto* ws = find_option<WindowScaleOption>(syn.options);
      ws != nullptr && config_.window_scale) {
    snd_wscale_ = ws->shift;
    rcv_wscale_ = choose_wscale(config_.rcv_buf_max);
    ws_negotiated_ = true;
  }
  if (const auto* ts = find_option<TimestampOption>(syn.options)) {
    ts_recent_ = ts->tsval;
  }
  sack_ok_ = config_.sack &&
             find_option<SackPermittedOption>(syn.options) != nullptr;

  host_.bind(local_, remote_, this);
  bound_ = true;
  enter_state(TcpState::kSynReceived);
  process_incoming_options(syn);
  send_synack();
  rto_timer_.arm_in(rtt_.rto());
}

void TcpConnection::send_syn(bool with_options) {
  TcpSegment seg;
  seg.tuple = {local_, remote_};
  seg.seq = seq_wrap(iss_);
  seg.syn = true;
  seg.window = static_cast<uint16_t>(
      std::min<uint64_t>(65535, rcv_buf_capacity_));
  seg.options.push_back(MssOption{static_cast<uint16_t>(config_.mss)});
  if (config_.window_scale) {
    rcv_wscale_ = choose_wscale(config_.rcv_buf_max);
    seg.options.push_back(WindowScaleOption{rcv_wscale_});
  }
  if (config_.sack) seg.options.push_back(SackPermittedOption{});
  if (config_.timestamps) {
    seg.options.push_back(TimestampOption{current_tsval(), 0});
  }
  if (with_options) build_syn_options(seg.options);
  send_segment(std::move(seg));
}

void TcpConnection::send_synack() {
  TcpSegment seg;
  seg.tuple = {local_, remote_};
  seg.seq = seq_wrap(iss_);
  seg.ack = seq_wrap(rcv_nxt_);
  seg.syn = true;
  seg.ack_flag = true;
  seg.window = static_cast<uint16_t>(
      std::min<uint64_t>(65535, rcv_buf_capacity_));
  seg.options.push_back(MssOption{static_cast<uint16_t>(config_.mss)});
  if (ws_negotiated_) {
    seg.options.push_back(WindowScaleOption{rcv_wscale_});
  }
  if (sack_ok_) seg.options.push_back(SackPermittedOption{});
  if (config_.timestamps) {
    seg.options.push_back(TimestampOption{current_tsval(), ts_recent_});
  }
  // Subclasses see the original SYN via the stash made in accept_syn's
  // process_incoming_options; they only need to append their options here.
  build_synack_options(seg.options, TcpSegment{});
  send_segment(std::move(seg));
}

// --------------------------------------------------------------------------
// Application API.
// --------------------------------------------------------------------------

size_t TcpConnection::write_shared(Payload bytes) {
  if (fin_pending_ || fin_sent_ || state_ == TcpState::kClosed) return 0;
  const size_t n = snd_buf_.append_shared(std::move(bytes), snd_buf_capacity_);
  try_send();
  return n;
}

size_t TcpConnection::read(std::span<uint8_t> out) {
  const size_t n = app_rx_.read(out);
  if (n > 0) maybe_send_window_update();
  return n;
}

void TcpConnection::consume(size_t n) {
  n = std::min(n, app_rx_.size());
  if (n == 0) return;
  app_rx_.consume(n);
  maybe_send_window_update();
}

void TcpConnection::close() {
  if (fin_pending_ || fin_sent_) return;
  if (state_ == TcpState::kClosed || state_ == TcpState::kSynSent) {
    finish_close(false);
    return;
  }
  fin_pending_ = true;
  try_send();
}

void TcpConnection::abort() {
  if (state_ == TcpState::kClosed) return;
  send_rst();
  finish_close(true);
}

void TcpConnection::send_rst() {
  TcpSegment seg;
  seg.tuple = {local_, remote_};
  seg.seq = seq_wrap(snd_nxt_);
  seg.ack = seq_wrap(rcv_nxt_);
  seg.ack_flag = true;
  seg.rst = true;
  send_segment(std::move(seg));
}

// --------------------------------------------------------------------------
// Segment arrival.
// --------------------------------------------------------------------------

void TcpConnection::on_segment(const TcpSegment& seg) {
  ++stats_.segments_received;
  if (state_ == TcpState::kClosed) return;

  if (const auto* ts = find_option<TimestampOption>(seg.options)) {
    ts_recent_ = ts->tsval;
    if (ts->tsecr != 0 && !seg.payload.empty()) {
      // Receiver-side RTT: our tsval came back on a data segment.
      const SimTime sample =
          loop().now() - static_cast<SimTime>(ts->tsecr - 1) * kMicrosecond;
      if (sample > 0 && sample < 10 * kSecond) {
        rcv_rtt_ = rcv_rtt_ == 0 ? sample : (3 * rcv_rtt_ + sample) / 4;
      }
    }
  }

  switch (state_) {
    case TcpState::kSynSent:
      handle_syn_sent(seg);
      return;
    case TcpState::kSynReceived:
      handle_syn_received(seg);
      return;
    default:
      handle_synchronized(seg);
      return;
  }
}

void TcpConnection::handle_syn_sent(const TcpSegment& seg) {
  if (seg.rst) {
    if (seg.ack_flag && seq_unwrap(snd_nxt_, seg.ack) == snd_nxt_) {
      finish_close(true);
    }
    return;
  }
  if (!seg.syn || !seg.ack_flag) return;
  if (seq_unwrap(snd_nxt_, seg.ack) != snd_nxt_) return;  // bogus ack

  irs_ = seg.seq;
  rcv_nxt_ = irs_ + 1;
  snd_una_ = snd_nxt_;
  snd_wnd_ = seg.window;  // unscaled on SYN/ACK
  snd_wl1_ = irs_;
  snd_wl2_ = snd_una_;

  if (const auto* mss = find_option<MssOption>(seg.options)) {
    config_.mss = std::min(config_.mss, uint32_t{mss->mss});
    cc_->init(config_.mss, config_.initial_cwnd_segments);
  }
  if (const auto* ws = find_option<WindowScaleOption>(seg.options);
      ws != nullptr && config_.window_scale) {
    snd_wscale_ = ws->shift;
    // rcv_wscale_ already chosen when the SYN was built.
  } else {
    snd_wscale_ = 0;
    rcv_wscale_ = 0;
  }
  sack_ok_ = config_.sack &&
             find_option<SackPermittedOption>(seg.options) != nullptr;

  rto_timer_.cancel();
  if (rtt_sample_pending_) {
    rtt_.add_sample(loop().now() - rtt_sample_sent_at_);  // handshake RTT
    rtt_sample_pending_ = false;
  }

  enter_state(TcpState::kEstablished);
  process_incoming_options(seg);  // MP_CAPABLE on the SYN/ACK
  if (state_ == TcpState::kClosed) return;  // options handler aborted us
  send_ack();                     // third ACK (carries subclass options)
  on_established();
  if (on_connected) on_connected();
  try_send();
}

void TcpConnection::handle_syn_received(const TcpSegment& seg) {
  if (seg.rst) {
    finish_close(true);
    return;
  }
  if (seg.syn && !seg.ack_flag) {
    // Retransmitted SYN: our SYN/ACK was lost.
    send_synack();
    return;
  }
  if (!seg.ack_flag) return;
  if (seq_unwrap(snd_nxt_, seg.ack) != snd_nxt_) return;

  snd_una_ = snd_nxt_;
  snd_wnd_ = uint64_t{seg.window} << snd_wscale_;
  snd_wl1_ = seq_unwrap(rcv_nxt_, seg.seq);
  snd_wl2_ = snd_una_;
  rto_timer_.cancel();

  enter_state(TcpState::kEstablished);
  process_incoming_options(seg);  // third-ACK options
  if (state_ == TcpState::kClosed) return;  // options handler aborted us
  on_established();
  if (on_connected) on_connected();

  // The third ACK may carry data; process it through the normal path
  // (options were already consumed above, so bypass double-processing by
  // handling payload/FIN directly).
  if (!seg.payload.empty() || seg.fin) {
    process_payload(seg);
  }
  try_send();
}

void TcpConnection::handle_synchronized(const TcpSegment& seg) {
  if (seg.rst) {
    reset_from_peer();
    return;
  }
  if (seg.syn && seg.ack_flag && state_ == TcpState::kEstablished &&
      !active_open_) {
    // Our third-ACK was lost and the peer retransmitted the SYN/ACK
    // (passive side never does this) -- or, on the active side, the
    // SYN/ACK was duplicated. Re-ack it.
    send_ack();
    return;
  }

  process_incoming_options(seg);
  if (state_ == TcpState::kClosed) return;  // options handler aborted us
  if (seg.ack_flag) process_ack(seg);
  if (state_ == TcpState::kClosed) return;
  if (!seg.payload.empty() || seg.fin) {
    process_payload(seg);
  }
}

uint64_t TcpConnection::merge_sack_blocks(const SackOption& sack) {
  uint64_t newly = 0;
  for (const auto& blk : sack.blocks) {
    uint64_t b = seq_unwrap(snd_una_, blk.begin);
    uint64_t e = seq_unwrap(snd_una_, blk.end);
    if (e <= b) continue;
    b = std::max(b, snd_una_);
    e = std::min(e, snd_max_);
    if (e <= b) continue;
    // Insert [b, e), merging with existing ranges.
    uint64_t absorbed = 0;
    auto it = sacked_.upper_bound(b);
    if (it != sacked_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= b) {
        b = prev->first;
        e = std::max(e, prev->second);
        absorbed += prev->second - prev->first;
        sacked_.erase(prev);
      }
    }
    it = sacked_.lower_bound(b);
    while (it != sacked_.end() && it->first <= e) {
      e = std::max(e, it->second);
      absorbed += it->second - it->first;
      it = sacked_.erase(it);
    }
    sacked_.emplace(b, e);
    sacked_bytes_ += (e - b) - absorbed;
    newly += (e - b) - absorbed;
    high_sacked_ = std::max(high_sacked_, e);
  }
  return newly;
}

void TcpConnection::sack_retransmit() {
  // RFC 6675-style hole filling: retransmit unsacked runs below the
  // highest sacked sequence while the pipe has room. At least one
  // retransmission is always attempted per invocation so recovery keeps
  // making progress even when the window has been squeezed (e.g. by
  // MPTCP's penalization mechanism).
  int guard = 1024;
  bool first = true;
  while ((first || cc_flight() < cc_->cwnd()) && --guard > 0) {
    first = false;
    uint64_t hole = std::max(snd_una_, rtx_next_hint_);
    // Skip over sacked ranges.
    for (;;) {
      auto it = sacked_.upper_bound(hole);
      if (it == sacked_.begin()) break;
      auto prev = std::prev(it);
      if (prev->second > hole) {
        hole = prev->second;
      } else {
        break;
      }
    }
    if (hole >= high_sacked_ || hole >= snd_buf_.end_seq()) return;
    // Hole extends to the next sacked range (or high_sacked_).
    auto next = sacked_.lower_bound(hole);
    const uint64_t hole_end =
        next != sacked_.end() ? next->first : high_sacked_;
    size_t len = static_cast<size_t>(std::min<uint64_t>(
        {config_.mss, hole_end - hole, snd_buf_.end_seq() - hole}));
    len = clamp_segment_len(hole, len);
    if (len == 0) return;
    send_data_segment(hole, len, /*retransmission=*/true);
    rtx_next_hint_ = hole + len;
  }
}

void TcpConnection::process_ack(const TcpSegment& seg) {
  const uint64_t ack64 = seq_unwrap(snd_una_, seg.ack);
  // Validate against the highest sequence ever sent (snd_max), not
  // snd_nxt: after a timeout's go-back-N rollback, ACKs for data sent
  // before the rollback are still perfectly valid.
  if (ack64 > snd_max_) {
    send_ack();  // acks data we never sent; re-synchronize
    return;
  }
  if (ack64 > snd_nxt_) snd_nxt_ = ack64;

  // Congestion-window validation (RFC 7661 / Linux tcp_is_cwnd_limited):
  // cwnd may only grow off ACKs for flights that actually used it --
  // otherwise a flow whose sending is limited elsewhere (the application,
  // or MPTCP's connection-level allocation) inflates cwnd without bound.
  const uint64_t pipe_at_ack = cc_flight();
  const bool was_cwnd_limited =
      cc_->in_slow_start() ? 2 * pipe_at_ack >= cc_->cwnd()
                           : pipe_at_ack + config_.mss >= cc_->cwnd();

  uint64_t new_sacked = 0;
  if (sack_ok_) {
    if (const auto* sack = find_option<SackOption>(seg.options)) {
      new_sacked = merge_sack_blocks(*sack);
    }
  }

  // Window update check (RFC 793).
  const uint64_t seg_seq = seq_unwrap(rcv_nxt_, seg.seq);
  const uint64_t new_wnd = uint64_t{seg.window} << snd_wscale_;
  bool window_changed = false;
  if (snd_wl1_ < seg_seq || (snd_wl1_ == seg_seq && snd_wl2_ <= ack64)) {
    window_changed = new_wnd != snd_wnd_;
    snd_wnd_ = new_wnd;
    snd_wl1_ = seg_seq;
    snd_wl2_ = ack64;
  }

  if (ack64 > snd_una_) {
    // Payload bytes newly acked (exclude SYN/FIN sequence slots).
    uint64_t span = ack64 - snd_una_;
    if (fin_sent_ && ack64 > fin_seq_) span -= 1;
    stats_.bytes_acked += span;

    take_rtt_sample_if_valid(ack64);
    snd_buf_.free_through(std::min(ack64, snd_buf_.end_seq()));
    dupack_count_ = 0;
    consecutive_timeouts_ = 0;
    // Retransmitted bytes are assumed to be what the cumulative ACK just
    // covered (a standard pipe approximation). The estimate can only
    // over-count (a range retransmitted twice is acked once), so clamp it
    // to the true outstanding span -- otherwise phantom pipe could block
    // transmission with nothing actually in flight.
    const uint64_t advanced = ack64 - snd_una_;
    rtx_out_ = rtx_out_ > advanced ? rtx_out_ - advanced : 0;
    rtx_out_ = std::min(rtx_out_, snd_nxt_ > ack64 ? snd_nxt_ - ack64 : 0);

    // Scrub scoreboard entries now cumulatively acknowledged.
    for (auto it = sacked_.begin(); it != sacked_.end();) {
      if (it->second <= ack64) {
        sacked_bytes_ -= it->second - it->first;
        it = sacked_.erase(it);
      } else if (it->first < ack64) {
        const uint64_t e = it->second;
        sacked_bytes_ -= ack64 - it->first;
        sacked_.erase(it);
        it = sacked_.emplace(ack64, e).first;
        break;
      } else {
        break;
      }
    }
    rtx_next_hint_ = std::max(rtx_next_hint_, ack64);

    if (in_recovery_) {
      if (ack64 >= recovery_point_) {
        cc_->on_exit_recovery();
        in_recovery_ = false;
      } else if (sack_ok_) {
        // SACK recovery: the scoreboard drives retransmissions; no
        // NewReno inflation/deflation games.
        snd_una_ = ack64;
        sack_retransmit();
      } else {
        cc_->on_partial_ack(span);
        // NewReno: retransmit the segment right after the partial ack.
        snd_una_ = ack64;
        const uint64_t data_end = snd_buf_.end_seq();
        if (ack64 < data_end) {
          size_t len = static_cast<size_t>(
              std::min<uint64_t>(config_.mss, data_end - ack64));
          len = clamp_segment_len(ack64, len);
          if (len > 0) send_data_segment(ack64, len, /*retransmission=*/true);
        }
      }
    } else if (was_cwnd_limited) {
      cc_->on_ack(span, rtt_.srtt(), rtt_.min_rtt());
    }

    snd_una_ = ack64;

    if (config_.autotune) {
      const size_t target = std::min<size_t>(
          config_.snd_buf_max, static_cast<size_t>(2 * cc_->cwnd()));
      if (target > snd_buf_capacity_) snd_buf_capacity_ = target;
    }

    if (fin_sent_ && ack64 > fin_seq_) {
      // Our FIN is acknowledged.
      if (state_ == TcpState::kFinWait1) {
        enter_state(TcpState::kFinWait2);
      } else if (state_ == TcpState::kClosing) {
        enter_time_wait();
      } else if (state_ == TcpState::kLastAck) {
        finish_close(false);
        return;
      }
    }

    if (flight_size() > 0 || (fin_sent_ && snd_una_ <= fin_seq_)) {
      rto_timer_.arm_in(rtt_.rto());
    } else {
      rto_timer_.cancel();
    }

    on_bytes_acked(snd_una_);
    if (on_send_space && snd_buf_space() > 0) on_send_space();
  } else if (ack64 == snd_una_ && seg.is_pure_ack() && flight_size() > 0) {
    // A duplicate ACK signals reordering or loss; fresh SACK information
    // counts even when the window field moved.
    const bool dup_signal = new_sacked > 0 || !window_changed;
    if (dup_signal) {
      ++dupack_count_;
      ++stats_.dupacks_received;
      if (!in_recovery_ &&
          (dupack_count_ >= 3 ||
           (sack_ok_ && sacked_bytes_ > 3ull * config_.mss))) {
        in_recovery_ = true;
        recovery_point_ = snd_nxt_;
        cc_->on_enter_recovery(cc_flight());
        ++stats_.fast_retransmits;
        totals_.ssthresh.record(cc_->ssthresh());
        rtx_next_hint_ = snd_una_;
        const uint64_t data_end = snd_buf_.end_seq();
        if (snd_una_ < data_end) {
          size_t len = static_cast<size_t>(
              std::min<uint64_t>(config_.mss, data_end - snd_una_));
          len = clamp_segment_len(snd_una_, len);
          if (len > 0) {
            send_data_segment(snd_una_, len, /*retransmission=*/true);
            rtx_next_hint_ = snd_una_ + len;
          }
          if (sack_ok_) sack_retransmit();
        } else if (fin_sent_ && snd_una_ == fin_seq_) {
          maybe_send_fin();  // retransmit FIN
        }
      } else if (in_recovery_) {
        if (sack_ok_) {
          sack_retransmit();
        } else {
          cc_->on_dupack_in_recovery();
        }
      }
    }
  }

  try_send();
}

void TcpConnection::process_payload(const TcpSegment& seg) {
  uint64_t seq64 = seq_unwrap(rcv_nxt_, seg.seq);
  Payload payload = seg.payload;  // shares the buffer; trims below are views
  // Anything other than clean in-order data is ACKed immediately: gaps
  // need dupacks, duplicates need re-acks, FINs need prompt answers.
  bool ack_now = !config_.delayed_ack || seg.fin || !reassembly_.empty() ||
                 seq64 != rcv_nxt_;

  if (seg.fin) {
    fin_received_ = true;
    peer_fin_seq_ = seq64 + payload.size();
  }

  const uint64_t end = seq64 + payload.size();
  if (!payload.empty()) {
    if (end <= rcv_nxt_) {
      send_ack();  // complete duplicate
      return;
    }
    // Enforce our advertised buffer: trim anything beyond what we can hold.
    const uint64_t max_accept = rcv_nxt_ + advertised_window_bytes() +
                                config_.mss;  // slack for in-flight updates
    if (seq64 >= max_accept) {
      send_ack();
      return;
    }
    if (end > max_accept) {
      payload.truncate(static_cast<size_t>(max_accept - seq64));
    }

    if (seq64 <= rcv_nxt_) {
      if (seq64 < rcv_nxt_) {
        payload.remove_prefix(static_cast<size_t>(rcv_nxt_ - seq64));
        seq64 = rcv_nxt_;
      }
      rcv_nxt_ += payload.size();
      rate_window_bytes_ += payload.size();
      deliver_data(seq64, std::move(payload));
      // Drain anything now in order, unless a delivery callback closed
      // us: a closed connection delivers nothing more.
      while (state_ != TcpState::kClosed) {
        auto ready = reassembly_.pop_ready(rcv_nxt_);
        if (!ready) break;
        rcv_nxt_ += ready->second.size();
        rate_window_bytes_ += ready->second.size();
        deliver_data(ready->first, std::move(ready->second));
      }
    } else {
      reassembly_.insert(seq64, std::move(payload));
    }
  }

  if (state_ != TcpState::kClosed && fin_received_ && !fin_delivered_ &&
      rcv_nxt_ == peer_fin_seq_) {
    rcv_nxt_ = peer_fin_seq_ + 1;
    fin_delivered_ = true;
    on_peer_fin();
    if (state_ == TcpState::kEstablished) {
      enter_state(TcpState::kCloseWait);
    } else if (state_ == TcpState::kFinWait1) {
      // Our FIN not yet acked: simultaneous close.
      enter_state(TcpState::kClosing);
    } else if (state_ == TcpState::kFinWait2) {
      enter_time_wait();
    }
    if (on_readable) on_readable();  // EOF is readable
  }

  if (config_.autotune) autotune_rcv_buf();
  // A delivery or FIN callback may have closed us: a closed connection
  // sends nothing, not even the ACK for what it just took in.
  if (state_ == TcpState::kClosed) return;

  if (!ack_now && ++delack_pending_ < 2) {
    if (!delack_timer_.armed()) delack_timer_.arm_in(config_.delack_timeout);
    return;
  }
  send_ack();
}

// --------------------------------------------------------------------------
// Sending.
// --------------------------------------------------------------------------

void TcpConnection::try_send() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kCloseWait &&
      state_ != TcpState::kFinWait1 && state_ != TcpState::kClosing &&
      state_ != TcpState::kLastAck) {
    return;
  }

  const uint64_t data_end = snd_buf_.end_seq();
  const uint64_t fc = flow_control_limit();
  // Saturating: MPTCP subflows report an unlimited window (flow control is
  // enforced at the connection level, section 3.3.1).
  const uint64_t fc_limit =
      fc > UINT64_MAX - snd_una_ ? UINT64_MAX : snd_una_ + fc;
  const uint64_t limit = std::min(data_end, fc_limit);

  // Collect the whole send opportunity (up to a cwnd of segments) and hand
  // it to the host as one burst: one interface lookup and one sink dispatch
  // instead of one per segment. Nothing in segment construction reads link
  // state, so deferring the enqueues to the flush is order-equivalent.
  bursting_ = true;
  while (snd_nxt_ < limit && cc_flight() < cc_->cwnd()) {
    size_t len = static_cast<size_t>(
        std::min<uint64_t>(config_.mss, limit - snd_nxt_));
    len = clamp_segment_len(snd_nxt_, len);
    if (len == 0) break;
    send_data_segment(snd_nxt_, len, /*retransmission=*/false);
    snd_nxt_ += len;
  }
  bursting_ = false;
  if (!egress_burst_.empty()) host_.send_burst(egress_burst_);

  maybe_send_fin();

  // Persist: flow control has us fully blocked with nothing in flight --
  // probe so a lost window update cannot deadlock the connection.
  if (snd_nxt_ < data_end && snd_nxt_ >= fc_limit && flight_size() == 0 &&
      !persist_timer_.armed() && flow_control_limit() != UINT64_MAX) {
    // The peer's advertised window (not cwnd) is what is stopping us.
    ++stats_.rwnd_stalls;
    persist_timer_.arm_in(rtt_.rto());
  }
}

void TcpConnection::maybe_send_fin() {
  if (!fin_pending_ || fin_sent_) return;
  if (snd_nxt_ < snd_buf_.end_seq()) return;  // data still unsent
  // FIN consumes one sequence number.
  fin_seq_ = snd_buf_.end_seq();
  fin_sent_ = true;
  fin_pending_ = false;
  TcpSegment seg;
  seg.tuple = {local_, remote_};
  seg.seq = seq_wrap(fin_seq_);
  seg.ack = seq_wrap(rcv_nxt_);
  seg.ack_flag = true;
  seg.fin = true;
  seg.window = static_cast<uint16_t>(
      std::min<uint64_t>(65535, advertised_window_bytes() >> rcv_wscale_));
  if (config_.timestamps) {
    seg.options.push_back(TimestampOption{current_tsval(), ts_recent_});
  }
  build_segment_options(seg.options, fin_seq_, 0);
  snd_nxt_ = fin_seq_ + 1;
  snd_max_ = std::max(snd_max_, snd_nxt_);
  send_segment(std::move(seg));
  if (state_ == TcpState::kEstablished) {
    enter_state(TcpState::kFinWait1);
  } else if (state_ == TcpState::kCloseWait) {
    enter_state(TcpState::kLastAck);
  }
  rto_timer_.arm_in(rtt_.rto());
}

void TcpConnection::send_data_segment(uint64_t seq, size_t len,
                                      bool retransmission) {
  TcpSegment seg;
  seg.tuple = {local_, remote_};
  seg.seq = seq_wrap(seq);
  seg.ack = seq_wrap(rcv_nxt_);
  seg.ack_flag = true;
  seg.psh = true;
  seg.window = static_cast<uint16_t>(
      std::min<uint64_t>(65535, advertised_window_bytes() >> rcv_wscale_));
  seg.payload = snd_buf_.slice_out(seq, len);
  if (config_.timestamps) {
    seg.options.push_back(TimestampOption{current_tsval(), ts_recent_});
  }
  build_segment_options(seg.options, seq, len);

  if (retransmission) {
    ++stats_.retransmits;
    rtx_out_ += len;
    // Karn: invalidate any RTT sample overlapping this range.
    if (rtt_sample_pending_ && rtt_sample_end_seq_ > seq) {
      rtt_sample_pending_ = false;
    }
  } else if (!rtt_sample_pending_ && seq + len > snd_max_) {
    // Only genuinely new data is sampled (post-timeout go-back-N resends
    // travel through the "new data" path but must not be timed).
    rtt_sample_pending_ = true;
    rtt_sample_end_seq_ = seq + len;
    rtt_sample_sent_at_ = loop().now();
  }
  snd_max_ = std::max(snd_max_, seq + len);

  stats_.bytes_sent += len;
  delack_pending_ = 0;  // the piggybacked ACK field covers pending data
  delack_timer_.cancel();
  send_segment(std::move(seg));
  if (!rto_timer_.armed()) rto_timer_.arm_in(rtt_.rto());
  last_advertised_window_ = advertised_window_bytes();
}

void TcpConnection::send_ack() {
  TcpSegment seg;
  seg.tuple = {local_, remote_};
  seg.seq = seq_wrap(snd_nxt_);
  seg.ack = seq_wrap(rcv_nxt_);
  seg.ack_flag = true;
  seg.window = static_cast<uint16_t>(
      std::min<uint64_t>(65535, advertised_window_bytes() >> rcv_wscale_));
  if (config_.timestamps) {
    seg.options.push_back(TimestampOption{current_tsval(), ts_recent_});
  }
  if (sack_ok_ && !reassembly_.empty()) {
    // At most two blocks: pure ACKs also carry MPTCP DSS options, and the
    // 40-byte option budget is tight (the same compromise real MPTCP
    // stacks make).
    auto& sack = std::get<SackOption>(seg.options.emplace_back(SackOption{}));
    for (const auto& [b, e] : reassembly_.sack_ranges(2)) {
      sack.blocks.push_back({seq_wrap(b), seq_wrap(e)});
    }
  }
  build_segment_options(seg.options, snd_nxt_, 0);
  last_advertised_window_ = advertised_window_bytes();
  delack_pending_ = 0;
  delack_timer_.cancel();
  send_segment(std::move(seg));
}

void TcpConnection::send_segment(TcpSegment seg) {
  // Enforce the 40-byte TCP option budget. Drop the least critical
  // options first: SACK blocks are advisory, timestamps are next; the
  // handshake and MPTCP signalling options must survive.
  while (seg.options_wire_size() > kMaxTcpOptionSpace) {
    if (auto* sack = find_option<SackOption>(seg.options)) {
      if (sack->blocks.size() > 1) {
        sack->blocks.pop_back();
      } else {
        remove_options<SackOption>(seg.options);
      }
      continue;
    }
    if (remove_options<TimestampOption>(seg.options) > 0) continue;
    break;  // nothing droppable left; carry the oversized set in-sim
  }
  ++stats_.segments_sent;
  if (bursting_) {
    egress_burst_.push_back(std::move(seg));
  } else {
    host_.send(std::move(seg));
  }
}

void TcpConnection::maybe_send_window_update() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kFinWait1 &&
      state_ != TcpState::kFinWait2) {
    return;
  }
  const uint64_t wnd = advertised_window_bytes();
  if (wnd > last_advertised_window_ &&
      wnd - last_advertised_window_ >= config_.mss) {
    send_ack();
  }
}

// --------------------------------------------------------------------------
// Timers.
// --------------------------------------------------------------------------

void TcpConnection::on_rto() {
  if (state_ == TcpState::kSynSent) {
    if (++syn_retries_ > config_.max_syn_retries) {
      finish_close(false);
      return;
    }
    // Section 3.1: after repeated losses, retry without the new options in
    // case a middlebox is dropping SYNs that carry them.
    const bool with_options =
        syn_retries_ < config_.syn_option_fallback_after;
    rtt_.on_timeout();
    rtt_sample_pending_ = false;  // Karn: retransmitted SYN is not sampled
    ++stats_.timeouts;
    send_syn(with_options);
    rto_timer_.arm_in(rtt_.rto());
    return;
  }
  if (state_ == TcpState::kSynReceived) {
    if (++syn_retries_ > config_.max_syn_retries) {
      finish_close(false);
      return;
    }
    rtt_.on_timeout();
    ++stats_.timeouts;
    send_synack();
    rto_timer_.arm_in(rtt_.rto());
    return;
  }

  const bool data_outstanding = snd_una_ < snd_buf_.end_seq();
  const bool fin_outstanding = fin_sent_ && snd_una_ <= fin_seq_;
  if (!data_outstanding && !fin_outstanding) return;

  if (++consecutive_timeouts_ > config_.max_data_retries) {
    // The path is dead; give up so upper layers can fail over.
    finish_close(true);
    return;
  }

  ++stats_.timeouts;
  rtt_.on_timeout();
  cc_->on_timeout(flight_size());
  totals_.ssthresh.record(cc_->ssthresh());
  in_recovery_ = false;
  dupack_count_ = 0;
  rtt_sample_pending_ = false;
  // RFC 6675: discard the scoreboard on RTO (the SACK info may be stale).
  sacked_.clear();
  sacked_bytes_ = 0;
  high_sacked_ = 0;
  rtx_next_hint_ = snd_una_;
  rtx_out_ = 0;

  // Go-back-N restart: everything past snd_una is presumed lost and will
  // be retransmitted as cwnd allows.
  snd_nxt_ = snd_una_;
  if (fin_sent_ && snd_nxt_ <= fin_seq_) {
    // The FIN must be retransmitted through the normal path again.
    fin_sent_ = false;
    fin_pending_ = true;
  }

  if (data_outstanding) {
    size_t len = static_cast<size_t>(std::min<uint64_t>(
        config_.mss, snd_buf_.end_seq() - snd_una_));
    len = std::max<size_t>(clamp_segment_len(snd_una_, len), 1);
    send_data_segment(snd_una_, len, /*retransmission=*/true);
    snd_nxt_ = snd_una_ + len;
  } else {
    // Only the FIN is outstanding: resend it through the normal path.
    ++stats_.retransmits;
    maybe_send_fin();
  }
  rto_timer_.arm_in(rtt_.rto());
}

void TcpConnection::on_persist() {
  if (snd_nxt_ >= snd_buf_.end_seq()) return;  // nothing left to probe with
  if (snd_nxt_ < snd_una_ + flow_control_limit()) {
    try_send();  // window opened meanwhile
    return;
  }
  ++stats_.persist_probes;
  // Send one byte beyond the window; the peer will re-ack with its
  // current window.
  send_data_segment(snd_nxt_, 1, /*retransmission=*/false);
  snd_nxt_ += 1;
  persist_timer_.arm_in(std::min(2 * rtt_.rto(), config_.max_rto));
}

// --------------------------------------------------------------------------
// State management.
// --------------------------------------------------------------------------

void TcpConnection::enter_state(TcpState s) { state_ = s; }

void TcpConnection::enter_time_wait() {
  enter_state(TcpState::kTimeWait);
  rto_timer_.cancel();
  persist_timer_.cancel();
  time_wait_timer_.arm_in(config_.time_wait);
}

void TcpConnection::reset_from_peer() { finish_close(true); }

void TcpConnection::finish_close(bool reset) {
  rto_timer_.cancel();
  persist_timer_.cancel();
  time_wait_timer_.cancel();
  delack_timer_.cancel();
  enter_state(TcpState::kClosed);
  if (bound_) {
    host_.unbind(local_, remote_);
    bound_ = false;
  }
  if (!closed_notified_) {
    closed_notified_ = true;
    on_connection_closed(reset);
    if (on_closed) on_closed();
  }
}

// --------------------------------------------------------------------------
// Hooks (default implementations).
// --------------------------------------------------------------------------

void TcpConnection::build_syn_options(OptionList&) {}
void TcpConnection::build_synack_options(OptionList&,
                                         const TcpSegment&) {}
void TcpConnection::build_segment_options(OptionList&, uint64_t,
                                          size_t) {}
void TcpConnection::process_incoming_options(const TcpSegment&) {}
void TcpConnection::on_established() {}

void TcpConnection::deliver_data(uint64_t, Payload bytes) {
  stats_.bytes_delivered += bytes.size();
  app_rx_.push(std::move(bytes));
  if (on_readable) on_readable();
}

void TcpConnection::on_bytes_acked(uint64_t) {}
void TcpConnection::on_peer_fin() {}
void TcpConnection::on_connection_closed(bool) {}

uint64_t TcpConnection::advertised_window_bytes() const {
  // Only unread *in-order* data consumes window: out-of-order chunks sit
  // within the window already granted (counting them would shrink the
  // window's right edge, which RFC 793 forbids and which would turn
  // legitimate dupacks into apparent window updates).
  const size_t used = app_rx_.size();
  return rcv_buf_capacity_ > used ? rcv_buf_capacity_ - used : 0;
}

uint64_t TcpConnection::flow_control_limit() const { return snd_wnd_; }

// --------------------------------------------------------------------------
// Misc.
// --------------------------------------------------------------------------

void TcpConnection::take_rtt_sample_if_valid(uint64_t acked_through) {
  if (rtt_sample_pending_ && acked_through >= rtt_sample_end_seq_) {
    rtt_.add_sample(loop().now() - rtt_sample_sent_at_);
    rtt_sample_pending_ = false;
    // One cwnd sample per successful RTT measurement: frequent enough to
    // trace window dynamics, rare enough to stay off the per-ACK path.
    totals_.cwnd.record(cc_->cwnd());
  }
}

uint32_t TcpConnection::current_tsval() const {
  // Microsecond timestamp clock, offset so 0 means "no echo".
  return static_cast<uint32_t>(host_.loop().now() / kMicrosecond) + 1;
}

void TcpConnection::autotune_rcv_buf() {
  // Dynamic right-sizing: measure delivered bytes over one receiver-RTT
  // window and size the buffer at twice that (Linux-style DRS).
  const SimTime rtt = rcv_rtt_ > 0 ? rcv_rtt_ : 100 * kMillisecond;
  const SimTime now = loop().now();
  if (rate_window_start_ == 0) {
    rate_window_start_ = now;
    rate_window_bytes_ = 0;
    return;
  }
  const SimTime elapsed = now - rate_window_start_;
  if (elapsed < rtt) return;
  const size_t target = std::min<size_t>(
      config_.rcv_buf_max, 2 * static_cast<size_t>(rate_window_bytes_ *
                                                   rtt / elapsed));
  if (target > rcv_buf_capacity_) set_rcv_buf_capacity(target);
  rate_window_start_ = now;
  rate_window_bytes_ = 0;
}

void TcpConnection::set_rcv_buf_capacity(size_t bytes) {
  rcv_buf_capacity_ = std::max(rcv_buf_capacity_, bytes);
}

}  // namespace mptcp
