// Shared MPTCP definitions and configuration.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/scheduler.h"
#include "tcp/tcp_types.h"

namespace mptcp {

/// Congestion controller family for the subflows of one connection.
enum class CcAlgo : uint8_t {
  kLia,      ///< coupled Linked Increases across subflows (NSDI'11)
  kNewReno,  ///< uncoupled per-subflow NewReno (the fairness strawman)
};

std::string_view to_string(CcAlgo a);

/// How the connection-level out-of-order queue locates insertion points
/// (section 4.3 of the paper, evaluated in Fig. 8).
enum class RecvAlgo : uint8_t {
  kRegular,       ///< linear scan of the out-of-order queue
  kTree,          ///< balanced-tree index (log-time insert)
  kShortcuts,     ///< per-subflow next-insert pointer, fall back to scan
  kAllShortcuts,  ///< shortcuts + batch-grouped scan on shortcut miss
};

/// Connection-level operating mode.
enum class MptcpMode : uint8_t {
  kNegotiating,   ///< MP_CAPABLE sent, outcome unknown
  kMptcp,         ///< fully operating MPTCP
  kFallbackTcp,   ///< negotiation failed or checksum fallback: plain TCP
};

struct MptcpConfig {
  TcpConfig tcp;  ///< per-subflow TCP parameters

  /// Local willingness to negotiate MPTCP at all.
  bool enabled = true;

  /// DSS checksum on the data stream (section 3.3.6). Disabled in
  /// controlled environments (e.g. datacenters) for performance (Fig. 3).
  bool dss_checksum = true;

  // The paper's sender-side mechanisms (section 4.2).
  bool opportunistic_retransmit = true;  ///< Mechanism 1
  bool penalize_slow_subflows = true;    ///< Mechanism 2
  bool meta_autotune = false;            ///< Mechanism 3 (with tcp.autotune)
  bool cap_subflow_cwnd = false;         ///< Mechanism 4

  /// Connection-level buffer limits (the "receive/send buffer" knob the
  /// paper sweeps in Figs. 4-6 and 9).
  size_t meta_snd_buf_max = 1024 * 1024;
  size_t meta_rcv_buf_max = 1024 * 1024;

  /// Receiver out-of-order algorithm (Fig. 8).
  RecvAlgo recv_algo = RecvAlgo::kAllShortcuts;

  /// Packet scheduling policy (see core/scheduler.h). The paper's
  /// lowest-RTT-first scheduler is the default; the alternatives exist
  /// for ablation studies.
  SchedulerPolicy scheduler = SchedulerPolicy::kLowestRtt;

  /// Congestion controller for the subflows (see core/coupled_cc.h):
  /// the coupled Linked-Increases controller (Wischik et al., NSDI'11)
  /// by default, plain per-subflow NewReno for ablation.
  CcAlgo cc_algo = CcAlgo::kLia;

  /// Scheduler allocation batch, in segments: contiguous data-sequence
  /// runs handed to one subflow at a time (enables receive shortcuts).
  uint32_t batch_segments = 8;

  /// Automatically open subflows from every additional local address and
  /// every ADD_ADDR-advertised remote address.
  bool full_mesh = true;

  /// Floor for the connection-level retransmission timer.
  SimTime meta_rto_min = 400 * kMillisecond;

  // --- CPU cost model (only charged when the Host has a CPU configured;
  // calibrated against the Fig. 10 microbenchmark) -----------------------
  SimTime cost_tcp_syn = 6 * kMicrosecond;
  SimTime cost_mpc_syn = 11 * kMicrosecond;  ///< key gen + SHA-1 + check
  SimTime cost_join_syn = 15 * kMicrosecond; ///< token lookup + HMAC
  SimTime cost_per_token = 2;                ///< ns per live token (table)
};

}  // namespace mptcp
