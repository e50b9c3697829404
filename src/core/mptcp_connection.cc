#include "core/mptcp_connection.h"

#include <algorithm>
#include <cassert>

#include "core/mptcp_stack.h"

namespace mptcp {

namespace {
constexpr size_t kSubflowSendBufCap = size_t{1} << 40;  // meta governs
constexpr SimTime kAutotunePeriod = 50 * kMillisecond;
}  // namespace

MptcpConnection::MptcpConnection(MptcpStack& stack, Endpoint local,
                                 Endpoint remote)
    : stack_(stack),
      config_(stack.config()),
      role_(Role::kClient),
      reap_timer_(stack.loop(), [this] { reap_closed_subflows(); }),
      meta_rto_timer_(stack.loop(), [this] { on_meta_rto(); }),
      meta_recv_(config_.recv_algo),
      autotune_timer_(stack.loop(), [this] { autotune_tick(); }),
      stats_instance_(stack.loop().stats().next_instance(stats_head())),
      stats_hook_(stack.loop().stats(), *this) {
  checksum_in_use_ = config_.dss_checksum;
  meta_snd_capacity_ = config_.meta_autotune
                           ? std::min<size_t>(config_.meta_snd_buf_max,
                                              4 * config_.tcp.buf_initial)
                           : config_.meta_snd_buf_max;
  meta_rcv_capacity_ = config_.meta_autotune
                           ? std::min<size_t>(config_.meta_rcv_buf_max,
                                              4 * config_.tcp.buf_initial)
                           : config_.meta_rcv_buf_max;
  // Prime the subflow creation endpoint; connect() does the rest.
  pending_local_ = local;
  pending_remote_ = remote;
  scheduler_ = Scheduler::make(config_.scheduler);
}

MptcpConnection::MptcpConnection(MptcpStack& stack, const TcpSegment& syn)
    : stack_(stack),
      config_(stack.config()),
      role_(Role::kServer),
      reap_timer_(stack.loop(), [this] { reap_closed_subflows(); }),
      meta_rto_timer_(stack.loop(), [this] { on_meta_rto(); }),
      meta_recv_(config_.recv_algo),
      autotune_timer_(stack.loop(), [this] { autotune_tick(); }),
      stats_instance_(stack.loop().stats().next_instance(stats_head())),
      stats_hook_(stack.loop().stats(), *this) {
  checksum_in_use_ = config_.dss_checksum;
  meta_snd_capacity_ = config_.meta_autotune
                           ? std::min<size_t>(config_.meta_snd_buf_max,
                                              4 * config_.tcp.buf_initial)
                           : config_.meta_snd_buf_max;
  meta_rcv_capacity_ = config_.meta_autotune
                           ? std::min<size_t>(config_.meta_rcv_buf_max,
                                              4 * config_.tcp.buf_initial)
                           : config_.meta_rcv_buf_max;
  pending_local_ = syn.tuple.dst;
  pending_remote_ = syn.tuple.src;
  scheduler_ = Scheduler::make(config_.scheduler);
}

MptcpConnection::~MptcpConnection() {
  if (token_registered_) stack_.tokens().unregister(local_token_);
}

std::string MptcpConnection::stats_scope() const {
  return stack_.loop().stats().instance_scope(stats_head(), stats_instance_);
}

void MptcpConnection::publish_stats(StatsOut& out) const {
  if (!out.open_instance(stats_head(), stats_instance_)) return;
  out.emit("scheduler_picks", static_cast<double>(n_scheduler_picks_));
  out.emit("dss_mappings_emitted", static_cast<double>(n_dss_mappings_));
  out.emit("data_ack_advances", static_cast<double>(n_data_ack_advances_));
  out.emit("data_acked_bytes", static_cast<double>(n_data_acked_bytes_));
  out.emit("window_stalls", static_cast<double>(n_window_stalls_));
  out.emit("m3_autotune_resizes", static_cast<double>(n_autotune_resizes_));
  out.emit("m1_opportunistic_rtx",
           static_cast<double>(meta_stats_.opportunistic_retransmits));
  out.emit("m2_penalizations", static_cast<double>(meta_stats_.penalizations));
  out.emit("m4_cap_activations", static_cast<double>(cc_cap_activations()));
  out.emit("meta_rtx_timeouts",
           static_cast<double>(meta_stats_.meta_rtx_timeouts));
  out.emit("reinjected_bytes",
           static_cast<double>(meta_stats_.reinjected_bytes));
  out.emit("checksum_failures",
           static_cast<double>(meta_stats_.checksum_failures));
  out.emit("subflow_resets", static_cast<double>(meta_stats_.subflow_resets));
  out.emit("fallbacks", static_cast<double>(meta_stats_.fallbacks));
  out.emit("rx_duplicate_bytes",
           static_cast<double>(meta_stats_.rx_duplicate_bytes));
  out.emit("delivered_bytes", static_cast<double>(delivered_bytes_));
  out.emit("snd_mem_bytes", static_cast<double>(meta_snd_.size()));
  out.emit("rcv_mem_bytes", static_cast<double>(receiver_memory()));
  out.emit("rx_app_queue_bytes", static_cast<double>(app_rx_.size()));
  out.emit("subflows", static_cast<double>(subflows_.size()));
  out.emit("mode", static_cast<double>(mode_));
  const std::string sched =
      "sched." + std::string(to_string(scheduler_->policy()));
  out.emit(sched + ".allocs", static_cast<double>(scheduler_->allocs()));
  for (const auto& sf : subflows_) sf->sample_stats(out);
}

// ---------------------------------------------------------------------------
// Opening.
// ---------------------------------------------------------------------------

std::unique_ptr<CongestionControl> MptcpConnection::make_cc() {
  NewRenoCc::Options opts;
  opts.cap_inflight = config_.cap_subflow_cwnd;
  return make_congestion_control(config_.cc_algo, cc_group_, opts);
}

MptcpSubflow* MptcpConnection::create_subflow(SubflowKind kind,
                                              uint8_t addr_id, Endpoint local,
                                              Endpoint remote) {
  TcpConfig cfg = config_.tcp;
  // The subflow's own buffers must never be the bottleneck: flow control
  // lives at the connection level. Window scaling is chosen from the meta
  // receive buffer.
  cfg.snd_buf_max = kSubflowSendBufCap;
  cfg.rcv_buf_max = std::max(cfg.rcv_buf_max, config_.meta_rcv_buf_max);
  cfg.autotune = false;
  cfg.seed = config_.tcp.seed ^ (next_subflow_id_ * 0x9e3779b9u) ^
             (role_ == Role::kClient ? 0x5u : 0xAu);
  auto sf = std::make_unique<MptcpSubflow>(*this, next_subflow_id_++, kind,
                                           addr_id, host_for_subflows(),
                                           cfg, local, remote, make_cc());
  MptcpSubflow* raw = sf.get();
  subflows_.push_back(std::move(sf));
  return raw;
}

Host& MptcpConnection::host_for_subflows() { return stack_.host(); }

void MptcpConnection::init_client_keys() {
  auto kt = stack_.tokens().generate_and_register(this);
  token_registered_ = true;
  local_key_ = kt.key;
  local_token_ = kt.token;
  idsn_local_ = kt.idsn;
  snd_base_d_ = idsn_local_ + 1;
  meta_snd_.reset(snd_base_d_);
  snd_una_d_ = snd_nxt_d_ = snd_base_d_;
}

void MptcpConnection::connect() {
  assert(role_ == Role::kClient);
  if (config_.enabled) {
    init_client_keys();
    mode_ = MptcpMode::kNegotiating;
  } else {
    mode_ = MptcpMode::kFallbackTcp;
  }
  MptcpSubflow* sf = create_subflow(SubflowKind::kInitialActive, 0,
                                    pending_local_, pending_remote_);
  if (config_.meta_autotune) autotune_timer_.arm_in(kAutotunePeriod);
  if (mode_ == MptcpMode::kFallbackTcp) wire_fallback_send_space();
  sf->connect();
}

void MptcpConnection::accept(const TcpSegment& syn) {
  assert(role_ == Role::kServer);
  const auto* mpc = find_option<MpCapableOption>(syn.options);
  if (mpc != nullptr && mpc->sender_key && config_.enabled) {
    mode_ = MptcpMode::kNegotiating;
    remote_key_ = *mpc->sender_key;
    remote_token_ = mptcp_token_from_key(remote_key_);
    idsn_remote_ = mptcp_idsn_from_key(remote_key_);
    rcv_nxt_d_ = idsn_remote_ + 1;
    checksum_in_use_ = config_.dss_checksum || mpc->checksum_required;

    auto kt = stack_.tokens().generate_and_register(this);
    token_registered_ = true;
    local_key_ = kt.key;
    local_token_ = kt.token;
    idsn_local_ = kt.idsn;
    snd_base_d_ = idsn_local_ + 1;
    meta_snd_.reset(snd_base_d_);
    snd_una_d_ = snd_nxt_d_ = snd_base_d_;
  } else {
    // Plain TCP client (or MPTCP disabled here): serve it as TCP.
    mode_ = MptcpMode::kFallbackTcp;
  }
  MptcpSubflow* sf = create_subflow(SubflowKind::kInitialPassive, 0,
                                    pending_local_, pending_remote_);
  if (config_.meta_autotune) autotune_timer_.arm_in(kAutotunePeriod);
  if (mode_ == MptcpMode::kFallbackTcp) wire_fallback_send_space();
  sf->accept_syn(syn);
}

void MptcpConnection::accept_join(const TcpSegment& syn) {
  // A join may race the initial subflow's third ACK on an equal-RTT path:
  // accept while still negotiating (both keys are known from the
  // MP_CAPABLE SYN); if negotiation later falls back, fallback_to_tcp()
  // aborts all non-initial subflows.
  if (mode_ == MptcpMode::kFallbackTcp || no_new_subflows_) return;
  // Refuse duplicate joins for a 4-tuple we already track.
  for (const auto& sf : subflows_) {
    if (sf->local() == syn.tuple.dst && sf->remote() == syn.tuple.src) return;
  }
  MptcpSubflow* sf = create_subflow(SubflowKind::kJoinPassive, 0,
                                    syn.tuple.dst, syn.tuple.src);
  sf->accept_syn(syn);
}

MptcpSubflow* MptcpConnection::open_subflow(IpAddr local_addr,
                                            Endpoint remote) {
  if (mode_ != MptcpMode::kMptcp || no_new_subflows_) return nullptr;
  // Address ids index the local address list.
  const uint8_t addr_id = path_manager_.local_addr_id(local_addr);
  MptcpSubflow* sf = create_subflow(
      SubflowKind::kJoinActive, addr_id,
      Endpoint{local_addr, stack_.host().alloc_ephemeral_port()}, remote);
  sf->connect();
  return sf;
}

// ---------------------------------------------------------------------------
// StreamSocket.
// ---------------------------------------------------------------------------

bool MptcpConnection::established() const {
  if (subflows_.empty()) return false;
  if (mode_ == MptcpMode::kFallbackTcp) return subflows_[0]->established();
  for (const auto& sf : subflows_) {
    if (sf->mptcp_usable()) return true;
  }
  return false;
}

size_t MptcpConnection::usable_subflow_count() const {
  size_t n = 0;
  for (const auto& sf : subflows_) n += sf->mptcp_usable() ? 1 : 0;
  return n;
}

size_t MptcpConnection::fallback_room() const {
  // The subflow's own send buffer is sized "never the bottleneck"
  // (kSubflowSendBufCap) because the meta level normally governs; with
  // the meta bypassed, impose the plain-TCP buffer limit here or the
  // application sees a sink that accepts terabytes without backpressure.
  const size_t used = subflows_[0]->snd_buf_in_use();
  return config_.tcp.snd_buf_max > used ? config_.tcp.snd_buf_max - used : 0;
}

size_t MptcpConnection::send_space() const {
  if (data_fin_pending_ || data_fin_allocated_) return 0;
  if (mode_ == MptcpMode::kFallbackTcp) {
    if (subflows_.empty()) return 0;
    return std::min(fallback_room(), subflows_[0]->send_space());
  }
  return meta_snd_.space(meta_snd_capacity_);
}

size_t MptcpConnection::write_shared(Payload bytes) {
  if (data_fin_pending_ || data_fin_allocated_) return 0;
  if (mode_ == MptcpMode::kFallbackTcp) {
    if (subflows_.empty()) return 0;
    bytes.truncate(fallback_room());
    return subflows_[0]->write_shared(std::move(bytes));
  }
  const size_t n =
      meta_snd_.append_shared(std::move(bytes), meta_snd_capacity_);
  if (n > 0) schedule();
  return n;
}

size_t MptcpConnection::read(std::span<uint8_t> out) {
  const size_t n = app_rx_.read(out);
  if (n > 0) maybe_send_meta_window_update();
  return n;
}

void MptcpConnection::consume(size_t n) {
  n = std::min(n, app_rx_.size());
  if (n == 0) return;
  app_rx_.consume(n);
  maybe_send_meta_window_update();
}

void MptcpConnection::close() {
  if (mode_ == MptcpMode::kFallbackTcp) {
    if (!subflows_.empty()) subflows_[0]->close();
    return;
  }
  if (data_fin_pending_ || data_fin_allocated_) return;
  data_fin_pending_ = true;
  schedule();
}

void MptcpConnection::abort() {
  if (!fastclose_sent_ && mode_ == MptcpMode::kMptcp) {
    fastclose_sent_ = true;
    if (MptcpSubflow* sf = best_usable_subflow()) {
      sf->queue_control_option(MpFastcloseOption{remote_key_});
      sf->flush_control_options();
    }
  }
  for (auto& sf : subflows_) {
    if (sf->state() != TcpState::kClosed) sf->abort();
  }
  notify_closed_once();
}

// ---------------------------------------------------------------------------
// Subflow event handlers.
// ---------------------------------------------------------------------------

void MptcpConnection::sf_capable_synack(uint64_t peer_key,
                                        bool csum_required) {
  if (role_ != Role::kClient || mode_ != MptcpMode::kNegotiating) return;
  remote_key_ = peer_key;
  remote_token_ = mptcp_token_from_key(peer_key);
  idsn_remote_ = mptcp_idsn_from_key(peer_key);
  rcv_nxt_d_ = idsn_remote_ + 1;
  checksum_in_use_ = config_.dss_checksum || csum_required;
  mode_ = MptcpMode::kMptcp;
}

void MptcpConnection::sf_capable_confirmed(MptcpSubflow* sf) {
  if (role_ != Role::kServer || mode_ != MptcpMode::kNegotiating) return;
  mode_ = MptcpMode::kMptcp;
  path_manager_.on_peer_confirmed(sf);
}

void MptcpConnection::sf_no_mptcp_in_handshake() {
  if (mode_ == MptcpMode::kNegotiating) fallback_to_tcp("synack-stripped");
}

void MptcpConnection::sf_first_packet_lacks_mptcp() {
  if (mode_ == MptcpMode::kNegotiating || mode_ == MptcpMode::kMptcp) {
    fallback_to_tcp("first-data-stripped");
  }
}

void MptcpConnection::sf_peer_dss_seen() {
  if (role_ == Role::kServer && mode_ == MptcpMode::kNegotiating) {
    // A DSS is as conclusive as the MP_CAPABLE echo.
    mode_ = MptcpMode::kMptcp;
  }
}

void MptcpConnection::fallback_to_tcp(const char* reason) {
  (void)reason;
  if (mode_ == MptcpMode::kFallbackTcp) return;
  mode_ = MptcpMode::kFallbackTcp;
  ++meta_stats_.fallbacks;
  no_new_subflows_ = true;
  meta_rto_timer_.cancel();
  // Kill everything except the initial subflow, which carries on as TCP.
  for (size_t i = 1; i < subflows_.size(); ++i) {
    if (subflows_[i]->state() != TcpState::kClosed) subflows_[i]->abort();
  }
  // Drain unallocated connection-level data straight through. Bytes up to
  // snd_nxt_d were already handed to the initial subflow (fallback only
  // happens on the first packets, before any join could carry data) and
  // will be delivered as the plain subflow stream.
  if (!subflows_.empty() && meta_snd_.end_seq() > snd_nxt_d_) {
    Payload pending = meta_snd_.slice_out(
        snd_nxt_d_, static_cast<size_t>(meta_snd_.end_seq() - snd_nxt_d_));
    meta_snd_.free_through(meta_snd_.end_seq());
    subflows_[0]->write_shared(std::move(pending));
  } else {
    meta_snd_.free_through(meta_snd_.end_seq());
  }
  if (data_fin_pending_ && !subflows_.empty()) subflows_[0]->close();
  wire_fallback_send_space();
}

void MptcpConnection::wire_fallback_send_space() {
  // Backpressure in fallback runs through the surviving subflow's buffer
  // (see write_shared()): surface its ACK-driven frees as application
  // send space, gated by the same plain-TCP limit.
  if (subflows_.empty()) return;
  subflows_[0]->on_send_space = [this] {
    if (on_send_space != nullptr && !subflows_.empty() &&
        fallback_room() > 0) {
      on_send_space();
    }
  };
}

void MptcpConnection::sf_established(MptcpSubflow* sf) {
  // Until the first DSS DATA_ACK arrives, the peer's connection-level
  // window is unknown; seed it from the handshake's TCP window so the
  // first flight can leave (it is refined by every DSS thereafter).
  if (mode_ != MptcpMode::kFallbackTcp) {
    const uint64_t seed_window = std::max<uint64_t>(sf->peer_window(), 65535);
    meta_right_edge_ = std::max(meta_right_edge_, snd_una_d_ + seed_window);
  }
  if (!connected_notified_ && sf->is_initial()) {
    connected_notified_ = true;
    if (on_connected) on_connected();
  }
  path_manager_.on_subflow_established(sf);
  // A server's join subflows only learn their usability from the third
  // ACK; in all cases newly usable capacity should be fed.
  schedule();
}

void MptcpConnection::sf_closed(MptcpSubflow* sf) {
  cc_group_.remove(&sf->congestion_control());
  // Re-inject everything this subflow still owed (section 3.3: data is
  // freed only by DATA_ACK, so it is still in the connection-level buffer).
  for (Alloc& a : alloc_) {
    if (a.subflow_id != sf->id()) continue;
    const uint64_t begin = std::max(a.dsn, snd_una_d_);
    const uint64_t end = a.dsn + a.len;
    if (end > begin) reinject_range(begin, end - begin);
    a.subflow_id = SIZE_MAX;
  }
  // The subflow is still on the stack (and callers may hold indices into
  // subflows_), so it is destroyed in a fresh event. Armed before the
  // callbacks below, which may destroy this connection.
  if (!reap_timer_.armed()) reap_timer_.arm_in(0);
  bool any_open = false;
  for (const auto& s : subflows_) {
    if (s->state() != TcpState::kClosed) any_open = true;
  }
  if (!any_open) {
    notify_closed_once();
  } else {
    schedule();
  }
}

void MptcpConnection::sf_peer_fin(MptcpSubflow* sf) {
  (void)sf;
  if (mode_ == MptcpMode::kFallbackTcp && !data_fin_delivered_) {
    // In fallback the subflow FIN *is* the end of the data stream.
    data_fin_delivered_ = true;
    if (on_readable) on_readable();
  }
}

void MptcpConnection::sf_acked(MptcpSubflow* sf) {
  (void)sf;
  schedule();
}

void MptcpConnection::sf_dss_ack(uint64_t data_ack, uint64_t window_bytes) {
  const uint64_t edge = data_ack + window_bytes;
  if (edge > meta_right_edge_) meta_right_edge_ = edge;

  if (data_ack > snd_una_d_ && data_ack <= snd_nxt_d_ + 1) {
    ++n_data_ack_advances_;
    n_data_acked_bytes_ += data_ack - snd_una_d_;
    meta_snd_.free_through(std::min(data_ack, meta_snd_.end_seq()));
    snd_una_d_ = data_ack;
    while (!alloc_.empty() &&
           alloc_.front().dsn + alloc_.front().len <= snd_una_d_) {
      alloc_.pop_front();
    }
    if (alloc_.empty()) alloc_.clear();
    meta_rto_backoff_ = 1;
    meta_rto_timer_.cancel();  // restart relative to this progress
    arm_meta_rto();
    if (data_fin_allocated_ && !data_fin_acked_ &&
        data_ack > data_fin_dsn_) {
      data_fin_acked_ = true;
      meta_rto_timer_.cancel();
      // Section 3.4: once the DATA_FIN is DATA_ACKed, close each subflow
      // with a regular FIN. A subflow still mid-handshake cannot FIN;
      // abort it so the peer's half does not linger retransmitting.
      for (auto& s : subflows_) {
        if (s->state() == TcpState::kClosed) continue;
        if (s->can_send_data() || s->can_send_ack()) {
          s->close();
        } else {
          s->abort();
        }
      }
    }
    if (on_send_space && meta_snd_.size() < meta_snd_capacity_) {
      on_send_space();
    }
  }
  schedule();
}

void MptcpConnection::sf_mapped_data(MptcpSubflow* sf, uint64_t dsn,
                                     Payload bytes) {
  if (bytes.empty()) return;
  const uint64_t end = dsn + bytes.size();
  if (end <= rcv_nxt_d_) {
    meta_stats_.rx_duplicate_bytes += bytes.size();  // re-injection copy
    return;
  }
  if (dsn < rcv_nxt_d_) {
    meta_stats_.rx_duplicate_bytes += static_cast<size_t>(rcv_nxt_d_ - dsn);
    bytes.remove_prefix(static_cast<size_t>(rcv_nxt_d_ - dsn));
    dsn = rcv_nxt_d_;
  }
  // Connection-level window enforcement: data beyond the advertised
  // window is dropped here even though it was in-window at the subflow
  // level (section 3.3.5).
  const uint64_t max_accept =
      rcv_nxt_d_ + meta_receive_window() + config_.tcp.mss;
  if (dsn >= max_accept) return;
  if (end > max_accept) {
    bytes.truncate(static_cast<size_t>(max_accept - dsn));
  }

  sf->meta_state().rx_bytes += bytes.size();
  if (dsn == rcv_nxt_d_) {
    rcv_nxt_d_ += bytes.size();
    deliver_in_order(std::move(bytes));
    drain_meta_ooo();
  } else {
    meta_recv_.insert(dsn, std::move(bytes), sf->id(), rcv_nxt_d_);
  }
  // A delivery callback may have closed the connection: then it reads
  // nothing more, not even the DATA_FIN.
  if (!closed_notified_) check_data_fin_consumption();
}

void MptcpConnection::sf_fallback_data(Payload bytes) {
  rcv_nxt_d_ += bytes.size();  // keeps DATA_ACK bookkeeping harmless
  deliver_in_order(std::move(bytes));
}

void MptcpConnection::deliver_in_order(Payload bytes) {
  delivered_bytes_ += bytes.size();
  app_rx_.push(std::move(bytes));
  if (on_readable) on_readable();
}

void MptcpConnection::drain_meta_ooo() {
  // Stops once a delivery callback closes the connection.
  while (!closed_notified_) {
    auto chunk = meta_recv_.pop_ready(rcv_nxt_d_);
    if (!chunk) break;
    rcv_nxt_d_ += chunk->bytes.size();
    deliver_in_order(std::move(chunk->bytes));
  }
}

void MptcpConnection::check_data_fin_consumption() {
  if (remote_data_fin_seen_ && !data_fin_delivered_ &&
      rcv_nxt_d_ == remote_data_fin_dsn_) {
    rcv_nxt_d_ += 1;  // the DATA_FIN occupies one data octet
    data_fin_delivered_ = true;
    // The DATA_FIN may ride a pure ACK, which generates no subflow-level
    // acknowledgment of its own -- emit the DATA_ACK explicitly so the
    // peer can finish its teardown (section 3.4).
    for (auto& sf : subflows_) {
      if (sf->can_send_ack()) {
        sf->push_meta_ack();
        break;
      }
    }
    if (on_readable) on_readable();
  }
}

void MptcpConnection::sf_data_fin(uint64_t dsn) {
  if (mode_ != MptcpMode::kMptcp) return;
  remote_data_fin_seen_ = true;
  remote_data_fin_dsn_ = dsn;
  check_data_fin_consumption();
}

void MptcpConnection::sf_checksum_failure(MptcpSubflow* sf,
                                          const MappingRecord& rec,
                                          Payload data) {
  ++meta_stats_.checksum_failures;
  if (usable_subflow_count() > 1) {
    // Section 3.3.6: reject the modified segment and terminate the
    // subflow; the transfer continues on the others (the data is still
    // held at the connection level and will be re-injected).
    ++meta_stats_.subflow_resets;
    no_new_subflows_ = true;
    sf->abort();
    return;
  }
  // Only one subflow: fall back to TCP-like behaviour for the remainder,
  // letting the middlebox rewrite as it wishes. The modified bytes are
  // delivered and verification is disabled from here on.
  ++meta_stats_.fallbacks;
  checksum_in_use_ = false;
  no_new_subflows_ = true;
  sf_mapped_data(sf, rec.dsn, std::move(data));
}

void MptcpConnection::sf_add_addr(MptcpSubflow* sf,
                                  const AddAddrOption& opt) {
  path_manager_.on_add_addr(sf, opt);
}

void MptcpConnection::sf_remove_addr(uint8_t addr_id) {
  path_manager_.on_remove_addr(addr_id);
}

void MptcpConnection::sf_mp_prio(MptcpSubflow* sf, const MpPrioOption& opt) {
  path_manager_.on_mp_prio(sf, opt);
}

void MptcpConnection::sf_fastclose() {
  for (auto& sf : subflows_) {
    if (sf->state() != TcpState::kClosed) sf->abort();
  }
  notify_closed_once();
}

// ---------------------------------------------------------------------------
// Receive window / DATA_ACK.
// ---------------------------------------------------------------------------

uint64_t MptcpConnection::meta_data_ack_value() const { return rcv_nxt_d_; }

uint64_t MptcpConnection::meta_receive_window() const {
  const size_t used = app_rx_.size();
  return meta_rcv_capacity_ > used ? meta_rcv_capacity_ - used : 0;
}

void MptcpConnection::maybe_send_meta_window_update() {
  const uint64_t wnd = meta_receive_window();
  if (wnd > last_advertised_meta_window_ &&
      wnd - last_advertised_meta_window_ >= config_.tcp.mss) {
    last_advertised_meta_window_ = wnd;
    for (auto& sf : subflows_) {
      if (sf->established()) sf->push_meta_ack();
    }
  }
}

size_t MptcpConnection::receiver_memory() const {
  size_t n = meta_recv_.ooo_bytes();
  for (const auto& sf : subflows_) n += sf->rcv_buf_in_use();
  return n;
}

uint64_t MptcpConnection::cc_cap_activations() const {
  uint64_t caps = retired_cap_activations_;
  for (const auto& sf : subflows_) {
    caps += sf->congestion_control().cap_activations();
  }
  return caps;
}

// ---------------------------------------------------------------------------
// Scheduler (sender side). Policies live in core/scheduler.cc; this
// file keeps only the host hooks and the shared epilogue.
// ---------------------------------------------------------------------------

MptcpSubflow* MptcpConnection::best_usable_subflow() {
  // Prefer subflows that can actually transmit right now: a silently dead
  // path keeps a deceptively low srtt while its window is jammed shut.
  MptcpSubflow* best = nullptr;
  MptcpSubflow* fallback = nullptr;
  for (auto& sf : subflows_) {
    if (!sf->mptcp_usable()) continue;
    if (fallback == nullptr || sf->srtt() < fallback->srtt()) {
      fallback = sf.get();
    }
    if (sf->cwnd_space() == 0) continue;
    if (best == nullptr || sf->srtt() < best->srtt()) best = sf.get();
  }
  return best != nullptr ? best : fallback;
}

void MptcpConnection::schedule() {
  if (mode_ != MptcpMode::kMptcp) return;

  scheduler_->run(*this);

  // DATA_FIN once everything is allocated (section 3.4: it can be sent
  // immediately when the application closes, independent of subflow FINs).
  if (data_fin_pending_ && !data_fin_allocated_ &&
      snd_nxt_d_ == meta_snd_.end_seq()) {
    data_fin_allocated_ = true;
    data_fin_dsn_ = snd_nxt_d_;
    if (MptcpSubflow* sf = best_usable_subflow()) {
      sf->send_data_fin(data_fin_dsn_);
    }
  }

  arm_meta_rto();
}

void MptcpConnection::window_blocked(MptcpSubflow* fast) {
  if (alloc_.empty()) return;
  ++n_window_stalls_;
  const Alloc rec0 = alloc_.front();

  // Only act when the trailing edge is held by a genuinely *slower*
  // subflow (the reference implementation's guard): the fast path briefly
  // holding its own in-flight data is not a stall.
  MptcpSubflow* slow = nullptr;
  for (auto& sf : subflows_) {
    if (sf->id() == rec0.subflow_id) slow = sf.get();
  }
  if (slow != nullptr && slow->srtt() <= fast->srtt()) return;

  // Mechanism 1 -- opportunistic retransmission: the fast subflow has
  // congestion window to spare but the shared window is full; resend the
  // data holding up the trailing edge on the fast path so the window can
  // advance at the fast path's pace (section 4.2). Ranges are reinjected
  // at most once (reinjected_until_ is monotonic); the fast path's spare
  // window bounds how much head-of-line data each stall rescues.
  if (config_.opportunistic_retransmit && rec0.subflow_id != fast->id()) {
    uint64_t start = std::max(snd_una_d_, reinjected_until_);
    uint64_t budget = fast->cwnd_space();
    bool any = false;
    // Indices into alloc_ hold across push_mapped: nothing in it pops a
    // record, and a record appended meanwhile lands behind.
    auto it = std::upper_bound(
        alloc_.begin(), alloc_.end(), start,
        [](uint64_t dsn, const Alloc& a) { return dsn < a.dsn; });
    if (it != alloc_.begin()) --it;
    while (budget > 0 && it != alloc_.end()) {
      const uint64_t b = std::max(it->dsn, start);
      const uint64_t e = it->dsn + it->len;
      if (b >= e) {
        ++it;
        continue;
      }
      if (it->subflow_id == fast->id()) break;  // fast path's own
      const uint64_t n = std::min(e - b, budget);
      Payload bytes = meta_snd_.slice_out(b, static_cast<size_t>(n));
      fast->push_mapped(b, std::move(bytes));
      meta_stats_.reinjected_bytes += n;
      budget -= n;
      start = b + n;
      any = true;
      if (b + n < e) break;
      ++it;
    }
    if (any) {
      fast->try_send();
      ++meta_stats_.opportunistic_retransmits;
      reinjected_until_ = start;
    }
  }

  // Mechanism 2 -- penalization: halve the cwnd of the subflow that is
  // holding up the window so this does not immediately repeat, at most
  // once per that subflow's RTT (section 4.2).
  if (config_.penalize_slow_subflows && slow != nullptr && slow != fast &&
      slow->mptcp_usable()) {
    const SimTime now = stack_.loop().now();
    SimTime& next_penalty_at = slow->meta_state().next_penalty_at;
    if (now >= next_penalty_at) {
      slow->congestion_control().penalize();
      next_penalty_at = now + std::max(slow->srtt(), kMillisecond);
      ++meta_stats_.penalizations;
    }
  }
}

void MptcpConnection::sched_record_alloc(uint64_t dsn, uint64_t len,
                                         size_t sf_id) {
  // The scheduler hands out data at snd_nxt, so records append in order.
  assert(dsn == snd_nxt_d_ && len > 0);
  alloc_.push_back(Alloc{dsn, len, sf_id});
  snd_nxt_d_ = dsn + len;
}

void MptcpConnection::reinject_range(uint64_t dsn, uint64_t len) {
  reinject_.emplace_back(dsn, len);
}

// ---------------------------------------------------------------------------
// Connection-level retransmission timer.
// ---------------------------------------------------------------------------

void MptcpConnection::arm_meta_rto() {
  const bool outstanding =
      snd_una_d_ < snd_nxt_d_ || (data_fin_allocated_ && !data_fin_acked_);
  if (!outstanding || mode_ != MptcpMode::kMptcp) {
    meta_rto_timer_.cancel();
    return;
  }
  // Never push an already-armed deadline into the future: the timer is
  // restarted only on DATA_ACK progress or after firing.
  if (meta_rto_timer_.armed()) return;
  SimTime max_srtt = 0;
  for (const auto& sf : subflows_) max_srtt = std::max(max_srtt, sf->srtt());
  const SimTime base = std::max(config_.meta_rto_min, 4 * max_srtt);
  meta_rto_timer_.arm_at(stack_.loop().now() + base * meta_rto_backoff_);
}

void MptcpConnection::on_meta_rto() {
  if (mode_ != MptcpMode::kMptcp) return;
  ++meta_stats_.meta_rtx_timeouts;
  meta_rto_backoff_ = std::min(meta_rto_backoff_ * 2, 64);

  if (snd_una_d_ < snd_nxt_d_) {
    // No DATA_ACK progress for a full meta-RTO: presume the data is stuck
    // on a dead or dying path and re-inject the outstanding window (up to
    // a burst bound) through whatever subflows can carry it.
    constexpr uint64_t kRtoBurst = 64 * 1024;
    reinject_.clear();  // stale entries are re-derived from snd_una_d
    reinject_range(snd_una_d_,
                   std::min(snd_nxt_d_ - snd_una_d_, kRtoBurst));
    schedule();
  } else if (data_fin_allocated_ && !data_fin_acked_) {
    if (MptcpSubflow* sf = best_usable_subflow()) {
      sf->send_data_fin(data_fin_dsn_);
    }
  }
  arm_meta_rto();
}

// ---------------------------------------------------------------------------
// Autotuning (Mechanism 3).
// ---------------------------------------------------------------------------

void MptcpConnection::autotune_tick() {
  autotune_timer_.arm_in(kAutotunePeriod);
  if (mode_ != MptcpMode::kMptcp) return;
  const SimTime now = stack_.loop().now();
  const SimTime dt = last_autotune_ == 0 ? kAutotunePeriod
                                         : now - last_autotune_;
  last_autotune_ = now;
  if (dt <= 0) return;

  double sum_tx_rate = 0, sum_rx_rate = 0;
  SimTime rtt_max_tx = 0, rtt_max_rx = 0;
  for (const auto& sf : subflows_) {
    if (!sf->mptcp_usable()) continue;
    MptcpSubflow::MetaState& st = sf->meta_state();
    // Sender-side rate: subflow-acked bytes per second (EMA smoothed).
    const uint64_t acked = sf->stats().bytes_acked;
    const uint64_t d_acked = acked - st.acked_mark;
    st.acked_mark = acked;
    double& tx = st.tx_rate_bps;
    const double inst_tx =
        static_cast<double>(d_acked) * 8.0 * kSecond / static_cast<double>(dt);
    tx = tx == 0 ? inst_tx : 0.75 * tx + 0.25 * inst_tx;
    sum_tx_rate += tx;
    if (tx > 0) rtt_max_tx = std::max(rtt_max_tx, sf->srtt());

    // Receiver-side rate: delivered mapped bytes per second.
    const uint64_t d_recvd = st.rx_bytes - st.rx_mark;
    st.rx_mark = st.rx_bytes;
    double& rx = st.rx_rate_bps;
    const double inst_rx =
        static_cast<double>(d_recvd) * 8.0 * kSecond /
        static_cast<double>(dt);
    rx = rx == 0 ? inst_rx : 0.75 * rx + 0.25 * inst_rx;
    sum_rx_rate += rx;
    const SimTime rcv_rtt =
        sf->receiver_rtt() > 0 ? sf->receiver_rtt() : sf->srtt();
    if (rx > 0) rtt_max_rx = std::max(rtt_max_rx, rcv_rtt);
  }

  // The paper's formula: buffer = 2 * sum(x_i) * RTT_max (section 4.2).
  const size_t snd_target = static_cast<size_t>(
      2.0 * sum_tx_rate / 8.0 * to_seconds(rtt_max_tx));
  const size_t rcv_target = static_cast<size_t>(
      2.0 * sum_rx_rate / 8.0 * to_seconds(rtt_max_rx));
  const size_t old_snd = meta_snd_capacity_;
  meta_snd_capacity_ = std::min(
      config_.meta_snd_buf_max, std::max(meta_snd_capacity_, snd_target));
  const size_t old_rcv = meta_rcv_capacity_;
  meta_rcv_capacity_ = std::min(
      config_.meta_rcv_buf_max, std::max(meta_rcv_capacity_, rcv_target));
  if (meta_snd_capacity_ > old_snd || meta_rcv_capacity_ > old_rcv) {
    ++n_autotune_resizes_;
  }
  if (meta_rcv_capacity_ > old_rcv) maybe_send_meta_window_update();
}

// ---------------------------------------------------------------------------
// Teardown.
// ---------------------------------------------------------------------------

void MptcpConnection::notify_closed_once() {
  if (closed_notified_) return;
  closed_notified_ = true;
  meta_rto_timer_.cancel();
  autotune_timer_.cancel();
  // The token names an *established* connection (section 5.2); release
  // it as soon as the connection closes so the table reflects live state.
  if (token_registered_) {
    stack_.tokens().unregister(local_token_);
    token_registered_ = false;
  }
  if (on_closed) on_closed();
  if (auto_destroy_) stack_.destroy_later(this);
}

void MptcpConnection::reap_closed_subflows() {
  std::erase_if(subflows_, [this](const std::unique_ptr<MptcpSubflow>& sf) {
    if (sf->state() != TcpState::kClosed) return false;
    retired_cap_activations_ += sf->congestion_control().cap_activations();
    return true;
  });
}

}  // namespace mptcp
