// A userspace TCP endpoint running over the simulated network.
//
// Implements the five mechanisms the paper lists as TCP's core (section
// 3): connection setup (3-way handshake + state machine), reliable
// transmission and acknowledgment (cumulative ACKs, RTO with backoff, fast
// retransmit / NewReno recovery), congestion control (pluggable, NewReno
// by default), flow control (advertised window with window scaling,
// persist probing, receive-buffer autotuning), and teardown
// (FIN/FIN-ACK/ACK with TIME_WAIT, RST).
//
// MPTCP subflows subclass this and override the protected hooks: option
// construction, option processing, data delivery, window interpretation.
// The base class knows nothing about MPTCP.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/rng.h"
#include "net/segment.h"
#include "sim/network.h"
#include "tcp/cc.h"
#include "tcp/rtt.h"
#include "tcp/tcp_buffers.h"
#include "tcp/tcp_socket.h"
#include "tcp/tcp_types.h"

namespace mptcp {

class TcpConnection : public SegmentHandler, public StreamSocket {
 public:
  struct Stats {
    uint64_t segments_sent = 0;
    uint64_t segments_received = 0;
    uint64_t bytes_sent = 0;        ///< payload bytes incl. retransmissions
    uint64_t bytes_acked = 0;       ///< payload bytes cumulatively acked
    uint64_t bytes_delivered = 0;   ///< payload bytes handed up in order
    uint64_t retransmits = 0;
    uint64_t fast_retransmits = 0;
    uint64_t timeouts = 0;
    uint64_t dupacks_received = 0;
    uint64_t persist_probes = 0;
    uint64_t rwnd_stalls = 0;  ///< sends blocked by the peer's window alone
  };

  TcpConnection(Host& host, TcpConfig config, Endpoint local, Endpoint remote,
                std::unique_ptr<CongestionControl> cc = nullptr);
  ~TcpConnection() override;

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // --- application API ----------------------------------------------------
  /// Active open: sends the SYN.
  void connect();

  /// Passive open from a listener-delivered SYN.
  void accept_syn(const TcpSegment& syn);

  /// Send-buffer space, or 0 once close() has queued the FIN or the
  /// connection has closed (reset, or given up on retransmitting).
  size_t send_space() const override {
    return fin_pending_ || fin_sent_ || state_ == TcpState::kClosed
               ? 0
               : snd_buf_space();
  }

  /// Appends (a prefix of) `bytes` to the send buffer as one shared chunk
  /// and pushes what the windows allow. MPTCP pushes mapped data down to
  /// its subflows through this too.
  size_t write_shared(Payload bytes) override;

  /// Reads up to out.size() in-order bytes; returns bytes read.
  size_t read(std::span<uint8_t> out) override;
  /// Zero-copy scatter read over the receive queue's chunks.
  size_t peek_views(std::span<std::span<const uint8_t>> out) const override {
    return app_rx_.peek_views(out);
  }
  size_t peek_copy(size_t offset, std::span<uint8_t> out) const override {
    return app_rx_.copy_out(offset, out);
  }
  void consume(size_t n) override;
  size_t readable_bytes() const override { return app_rx_.size(); }
  /// True once the peer's FIN has been delivered and the queue is drained.
  bool at_eof() const override { return fin_delivered_ && app_rx_.empty(); }

  /// Graceful close of the send direction (FIN after queued data).
  void close() override;
  /// Abortive close (RST).
  void abort() override;

  // --- introspection ----------------------------------------------------------
  TcpState state() const { return state_; }
  bool established() const override {
    return state_ == TcpState::kEstablished;
  }
  /// True while this end may still transmit data (the peer's FIN only
  /// closes its direction).
  bool can_send_data() const {
    return state_ == TcpState::kEstablished ||
           state_ == TcpState::kCloseWait;
  }
  /// True in any synchronized state where emitting an ACK is legal.
  bool can_send_ack() const {
    switch (state_) {
      case TcpState::kEstablished:
      case TcpState::kFinWait1:
      case TcpState::kFinWait2:
      case TcpState::kCloseWait:
      case TcpState::kClosing:
      case TcpState::kLastAck:
        return true;
      default:
        return false;
    }
  }
  const Stats& stats() const { return stats_; }
  const TcpConfig& config() const { return config_; }
  Endpoint local() const { return local_; }
  Endpoint remote() const { return remote_; }
  Host& host() { return host_; }

  SimTime srtt() const { return rtt_.srtt(); }
  SimTime min_rtt() const { return rtt_.min_rtt(); }
  SimTime rto() const { return rtt_.rto(); }
  uint64_t cwnd() const { return cc_->cwnd(); }
  CongestionControl& congestion_control() { return *cc_; }
  uint64_t flight_size() const { return snd_nxt_ - snd_una_; }
  uint64_t snd_una() const { return snd_una_; }
  uint64_t snd_nxt() const { return snd_nxt_; }
  uint64_t rcv_nxt() const { return rcv_nxt_; }
  uint64_t iss() const { return iss_; }
  uint64_t irs() const { return irs_; }
  /// Peer's current receive window as interpreted by this class.
  uint64_t peer_window() const { return snd_wnd_; }

  /// Send-buffer occupancy in bytes (memory accounting, Fig. 5).
  size_t snd_buf_in_use() const { return snd_buf_.size(); }
  /// Receive-side memory: out-of-order chunks + unread in-order data.
  size_t rcv_buf_in_use() const {
    return reassembly_.ooo_bytes() + app_rx_.size();
  }
  size_t rcv_buf_capacity() const { return rcv_buf_capacity_; }
  size_t snd_buf_space() const { return snd_buf_.space(snd_buf_capacity_); }

  /// Receiver-side RTT estimate (from echoed timestamps), used by
  /// receive-buffer autotuning.
  SimTime receiver_rtt() const { return rcv_rtt_; }

  // --- SegmentHandler -----------------------------------------------------
  void on_segment(const TcpSegment& seg) override;

  /// Pushes any sendable data/control segments (called internally after
  /// every state change; public so schedulers can kick the connection).
  void try_send();

 protected:
  // --- hooks for MPTCP subflows -------------------------------------------
  /// Adds options to an outgoing SYN (active open).
  virtual void build_syn_options(OptionList& opts);
  /// Adds options to an outgoing SYN/ACK; `syn` is the SYN being answered.
  virtual void build_synack_options(OptionList& opts,
                                    const TcpSegment& syn);
  /// Adds options to every outgoing non-SYN segment. `payload_seq` is the
  /// unwrapped sequence of the first payload byte (snd_nxt for pure ACKs),
  /// `payload_len` the payload length.
  virtual void build_segment_options(OptionList& opts,
                                     uint64_t payload_seq,
                                     size_t payload_len);
  /// Called for every acceptable incoming segment, before data processing.
  virtual void process_incoming_options(const TcpSegment& seg);
  /// Called when the connection reaches ESTABLISHED (both roles).
  virtual void on_established();
  /// Delivers in-order payload. `seq` is the unwrapped subflow sequence of
  /// bytes[0]. Default: append to the application receive queue.
  virtual void deliver_data(uint64_t seq, Payload bytes);
  /// Called when snd_una advances (subflow-level acknowledgment).
  virtual void on_bytes_acked(uint64_t new_snd_una);
  /// Called when the peer's FIN is consumed (end of subflow stream).
  virtual void on_peer_fin();
  /// Called on RST or on reaching CLOSED.
  virtual void on_connection_closed(bool reset);
  /// The receive window in bytes this endpoint advertises. Default: local
  /// receive-buffer headroom. MPTCP subflows return the meta window.
  virtual uint64_t advertised_window_bytes() const;
  /// Upper bound, in bytes beyond snd_una, that flow control permits us to
  /// send. Default: the peer's advertised window. MPTCP subflows return
  /// "unlimited" because allocation is governed at the meta level.
  virtual uint64_t flow_control_limit() const;
  /// Extra CPU charged at the host per received SYN (connection-setup cost
  /// model for Fig. 10/11); default none, MPTCP overrides.
  virtual SimTime syn_processing_cost() const { return 0; }
  /// Lets subclasses shorten an outgoing segment so it does not straddle
  /// an MPTCP mapping boundary (a packet can carry only one DSS option).
  virtual size_t clamp_segment_len(uint64_t /*seq*/, size_t len) const {
    return len;
  }

  // Internals available to subclasses.
  void enter_state(TcpState s);
  void send_segment(TcpSegment seg);
  /// Emits a pure ACK now (used by subflows to push DATA_ACK updates).
  void send_ack();
  void send_rst();
  void reset_from_peer();
  /// Scale shift applied to incoming raw window fields (peer's wscale).
  uint8_t incoming_window_scale() const { return snd_wscale_; }
  EventLoop& loop() { return host_.loop(); }
  Rng& rng() { return rng_; }

  /// Grows the receive buffer (autotuning); never shrinks.
  void set_rcv_buf_capacity(size_t bytes);

 private:
  void handle_syn_sent(const TcpSegment& seg);
  void handle_syn_received(const TcpSegment& seg);
  void handle_synchronized(const TcpSegment& seg);
  void process_ack(const TcpSegment& seg);
  void process_payload(const TcpSegment& seg);
  void maybe_send_window_update();
  void send_syn(bool with_options);
  void send_synack();
  void send_data_segment(uint64_t seq, size_t len, bool retransmission);
  void maybe_send_fin();
  void on_rto();
  void on_persist();
  /// Merges SACK blocks into the scoreboard; returns newly-sacked bytes.
  uint64_t merge_sack_blocks(const SackOption& sack);
  /// The RFC 6675 "pipe" estimate: bytes believed in flight. Sacked bytes
  /// were delivered; unsacked holes below the highest SACK are presumed
  /// lost (they have >= 3 SACKed segments above them). Both leave the
  /// pipe; retransmissions re-enter it. Without SACK this degenerates to
  /// the plain flight size.
  uint64_t cc_flight() const {
    const uint64_t lower =
        std::max(snd_una_, std::min(high_sacked_, snd_nxt_));
    return (snd_nxt_ - lower) + rtx_out_;
  }
  /// Retransmits scoreboard holes while the window allows (SACK recovery).
  void sack_retransmit();
  void enter_time_wait();
  void finish_close(bool reset);
  void take_rtt_sample_if_valid(uint64_t acked_through);
  void autotune_rcv_buf();
  uint32_t current_tsval() const;

  Host& host_;
  /// try_send() collects the segments of one send opportunity here and
  /// flushes them through Host::send_burst in a single call; reused across
  /// calls so steady-state sending never reallocates. Only filled while
  /// `bursting_` is set (the try_send window loop).
  std::vector<TcpSegment> egress_burst_;
  bool bursting_ = false;
  TcpConfig config_;
  Endpoint local_;
  Endpoint remote_;
  Rng rng_;
  std::unique_ptr<CongestionControl> cc_;
  RttEstimator rtt_;
  Timer rto_timer_;
  Timer persist_timer_;
  Timer time_wait_timer_;
  Timer delack_timer_;
  int delack_pending_ = 0;  ///< in-order data segments not yet ACKed

  TcpState state_ = TcpState::kClosed;
  bool active_open_ = false;

  // Send side (unwrapped 64-bit sequence space).
  uint64_t iss_ = 0;
  uint64_t snd_una_ = 0;
  uint64_t snd_nxt_ = 0;
  uint64_t snd_max_ = 0;  ///< highest sequence ever sent (BSD snd_max)
  uint64_t snd_wnd_ = 0;       ///< peer window in bytes (scaled)
  uint64_t snd_wl1_ = 0;       ///< seq of segment used for last window update
  uint64_t snd_wl2_ = 0;       ///< ack of segment used for last window update
  uint8_t snd_wscale_ = 0;     ///< shift to apply to incoming window fields
  bool ws_negotiated_ = false;
  SendBuffer snd_buf_;
  size_t snd_buf_capacity_ = 0;
  bool fin_pending_ = false;   ///< close() called; FIN after buffered data
  bool fin_sent_ = false;
  uint64_t fin_seq_ = 0;       ///< sequence occupied by our FIN
  int syn_retries_ = 0;
  int consecutive_timeouts_ = 0;

  // Loss recovery.
  int dupack_count_ = 0;
  bool in_recovery_ = false;
  uint64_t recovery_point_ = 0;
  uint64_t last_ack_for_dupack_ = 0;

  // SACK scoreboard (RFC 2018 / simplified RFC 6675).
  bool sack_ok_ = false;
  std::map<uint64_t, uint64_t> sacked_;  ///< begin -> end, disjoint
  uint64_t sacked_bytes_ = 0;
  uint64_t high_sacked_ = 0;
  uint64_t rtx_next_hint_ = 0;  ///< next hole to probe during recovery
  uint64_t rtx_out_ = 0;        ///< retransmitted bytes still unaccounted

  // RTT sampling (Karn): one outstanding timed segment.
  bool rtt_sample_pending_ = false;
  uint64_t rtt_sample_end_seq_ = 0;
  SimTime rtt_sample_sent_at_ = 0;

  // Receive side.
  uint64_t irs_ = 0;
  uint64_t rcv_nxt_ = 0;
  uint8_t rcv_wscale_ = 0;  ///< shift peer applies; we advertise >> this
  ReassemblyQueue reassembly_;
  RecvQueue app_rx_;
  size_t rcv_buf_capacity_ = 0;
  bool fin_received_ = false;
  bool fin_delivered_ = false;
  uint64_t peer_fin_seq_ = 0;
  uint64_t last_advertised_window_ = 0;

  // Timestamps (RFC 7323): we echo the peer's latest tsval; receiver-side
  // RTT estimation uses our own echoed tsvals.
  uint32_t ts_recent_ = 0;
  SimTime rcv_rtt_ = 0;

  // Receiver-side delivery-rate estimation for autotuning.
  SimTime rate_window_start_ = 0;
  uint64_t rate_window_bytes_ = 0;

  Stats stats_;
  bool bound_ = false;
  bool closed_notified_ = false;

  // The loop's tcp.* keys (net/stats.h) are read from stats_ at export:
  // Totals sums its live connections, linked through these two pointers,
  // plus what destroyed ones folded in. stats_ is the only store.
  class Totals;
  Totals& totals_;
  TcpConnection* live_prev_ = nullptr;
  TcpConnection* live_next_ = nullptr;
};

/// Accepts incoming SYNs on a port and spawns connections via a factory.
class TcpListener : public ListenHandler {
 public:
  /// The factory builds (and owns or registers) a connection for the SYN;
  /// it must call accept_syn() on the new connection.
  using AcceptFactory = std::function<void(const TcpSegment& syn)>;

  TcpListener(Host& host, Port port, AcceptFactory factory)
      : host_(host), port_(port), factory_(std::move(factory)) {
    host_.listen(port_, this);
  }
  ~TcpListener() override { host_.unlisten(port_); }

  void on_syn(const TcpSegment& seg) override { factory_(seg); }

 private:
  Host& host_;
  Port port_;
  AcceptFactory factory_;
};

}  // namespace mptcp
