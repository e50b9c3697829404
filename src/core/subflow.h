// An MPTCP subflow: a full TCP connection extended with MPTCP option
// processing, data-sequence mappings, and connection-level ("meta")
// window semantics.
//
// On the wire a subflow is indistinguishable from ordinary TCP apart from
// its options -- that is the deployability core of the design (section 3):
// per-subflow contiguous sequence spaces keep NATs, firewalls and proxies
// happy, while DSS options carry the connection-level metadata.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/dss.h"
#include "core/mptcp_types.h"
#include "tcp/tcp_connection.h"

namespace mptcp {

class MptcpConnection;

enum class SubflowKind : uint8_t {
  kInitialActive,   ///< client side of the MP_CAPABLE handshake
  kInitialPassive,  ///< server side of the MP_CAPABLE handshake
  kJoinActive,      ///< client side of an MP_JOIN handshake
  kJoinPassive,     ///< server side of an MP_JOIN handshake
};

class MptcpSubflow final : public TcpConnection {
 public:
  MptcpSubflow(MptcpConnection& meta, size_t id, SubflowKind kind,
               uint8_t addr_id, Host& host, TcpConfig config, Endpoint local,
               Endpoint remote, std::unique_ptr<CongestionControl> cc);

  size_t id() const { return id_; }
  SubflowKind kind() const { return kind_; }
  uint8_t addr_id() const { return addr_id_; }
  /// The peer's address id for this subflow (from its MP_JOIN), used to
  /// honour REMOVE_ADDR.
  uint8_t peer_addr_id() const { return peer_addr_id_; }
  bool is_initial() const {
    return kind_ == SubflowKind::kInitialActive ||
           kind_ == SubflowKind::kInitialPassive;
  }
  bool backup() const { return backup_; }
  void set_backup(bool b) { backup_ = b; }

  /// True once the subflow may carry MPTCP data (handshake complete and
  /// MPTCP confirmed end to end). A peer's subflow FIN only closes its
  /// direction; we may keep sending (section 3.4).
  bool mptcp_usable() const { return can_send_data() && mptcp_confirmed_; }

  // --- meta-side sending interface -----------------------------------------
  /// Queues `bytes` mapped at data sequence `dsn` for transmission on this
  /// subflow. Creates the mapping record (and DSS checksum, reusing the
  /// payload's cached folded sum) and hands the shared bytes to the TCP
  /// send path without copying.
  void push_mapped(uint64_t dsn, Payload bytes);

  /// Bytes queued but not yet put on the wire.
  uint64_t unsent_bytes() const { return snd_buf_end() - snd_nxt(); }

  /// How many more bytes the congestion window would accept right now,
  /// rounded up to whole segments: like TCP, a subflow with any window
  /// room sends a full MSS (otherwise fractional cwnd growth would shave
  /// allocations into dust-sized mappings and segments).
  uint64_t cwnd_space() const {
    const uint64_t used = flight_size() + unsent_bytes();
    const uint64_t w = cwnd();
    if (used >= w) return 0;
    const uint64_t mss = config().mss;
    return (w - used + mss - 1) / mss * mss;
  }

  /// Announces a DATA_FIN at `dsn` on this subflow: an explicit DSS
  /// carrying only the DATA_FIN is emitted (and re-emitted by the meta
  /// retransmit timer until DATA_ACKed).
  void send_data_fin(uint64_t dsn);

  /// Emits a pure ACK so the peer sees our latest DATA_ACK / window.
  void push_meta_ack() { send_ack(); }

  /// Queues a control option (ADD_ADDR, REMOVE_ADDR, MP_PRIO) to ride on
  /// the next outgoing segment.
  void queue_control_option(TcpOption opt) {
    pending_control_options_.push_back(std::move(opt));
  }
  /// Emits any queued control options immediately on a pure ACK.
  void flush_control_options() {
    if (!pending_control_options_.empty()) send_ack();
  }

  uint64_t snd_buf_end() const { return snd_una() + snd_buf_in_use(); }

  /// MP_JOIN handshake nonces/macs (exposed for tests).
  uint32_t local_nonce() const { return local_nonce_; }

  /// Emits this subflow's export values as "sf<id>.<name>", through its
  /// connection's stats hook (a subflow publishes nothing of its own).
  void sample_stats(StatsOut& out) const;

  /// The meta scheduler chose this subflow for a chunk of data.
  void note_scheduler_pick() { ++n_picks_; }

  /// What the connection level keeps per subflow. It lives and dies with
  /// the subflow, so a closed path leaves nothing behind to erase.
  struct MetaState {
    SimTime next_penalty_at = 0;  ///< M2: no penalization before this
    uint64_t acked_mark = 0;      ///< M3: bytes_acked at the last tick
    uint64_t rx_bytes = 0;        ///< M3: mapped bytes handed to the meta
    uint64_t rx_mark = 0;         ///< M3: rx_bytes at the last tick
    double tx_rate_bps = 0;       ///< M3: EMA of the acked rate
    double rx_rate_bps = 0;       ///< M3: EMA of the delivered rate
    uint64_t stream_cursor = 0;   ///< redundant policy: next dsn to copy
  };
  MetaState& meta_state() { return meta_state_; }

 protected:
  // --- TcpConnection hooks --------------------------------------------------
  void build_syn_options(OptionList& opts) override;
  void build_synack_options(OptionList& opts,
                            const TcpSegment& syn) override;
  void build_segment_options(OptionList& opts,
                             uint64_t payload_seq, size_t payload_len) override;
  void process_incoming_options(const TcpSegment& seg) override;
  void on_established() override;
  void deliver_data(uint64_t seq, Payload bytes) override;
  void on_bytes_acked(uint64_t new_snd_una) override;
  void on_peer_fin() override;
  void on_connection_closed(bool reset) override;
  uint64_t advertised_window_bytes() const override;
  uint64_t flow_control_limit() const override;
  SimTime syn_processing_cost() const override;
  size_t clamp_segment_len(uint64_t seq, size_t len) const override;

 private:
  void handle_mp_capable(const MpCapableOption& mpc, const TcpSegment& seg);
  void handle_mp_join(const MpJoinOption& mpj, const TcpSegment& seg);
  void handle_dss(const DssOption& dss, const TcpSegment& seg);
  void arm_fallback_check();
  void check_peer_speaks_mptcp();

  MptcpConnection& meta_;
  size_t id_;
  SubflowKind kind_;
  uint8_t addr_id_;
  uint8_t peer_addr_id_ = 0;
  bool backup_ = false;

  bool mptcp_confirmed_ = false;   ///< MPTCP active end-to-end on this subflow
  bool peer_dss_seen_ = false;     ///< peer demonstrably speaks MPTCP
  bool echo_capable_ = false;      ///< keep attaching MP_CAPABLE(A,B)
  bool echo_join_ack_ = false;     ///< keep attaching MP_JOIN ack MAC
  bool first_non_syn_checked_ = false;

  uint32_t local_nonce_ = 0;
  uint32_t remote_nonce_ = 0;

  SenderMappings tx_mappings_;
  ReceiverMappings rx_mappings_;

  std::optional<uint64_t> announce_data_fin_;
  OptionList pending_control_options_;
  Timer fallback_check_timer_;

  uint64_t n_mappings_ = 0;  ///< DSS mappings created on this subflow
  uint64_t n_picks_ = 0;     ///< times the scheduler chose us
  MetaState meta_state_;
};

}  // namespace mptcp
