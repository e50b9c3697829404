// Coupled congestion control: Linked Increases Algorithm (LIA).
//
// From Wischik, Raiciu, Greenhalgh, Handley, "Design, implementation and
// evaluation of congestion control for multipath TCP", NSDI 2011 -- the
// controller the paper's MPTCP implementation uses (its reference [23]).
//
// Window increase on subflow i per ACK of b bytes:
//     cwnd_i += min( alpha * b * mss / cwnd_total ,  b * mss / cwnd_i )
// with
//     alpha = cwnd_total * max_i(cwnd_i / rtt_i^2) / (sum_i cwnd_i/rtt_i)^2
// computed across the subflows of one connection that have not closed.
// The min() guarantees MPTCP is never more aggressive than TCP on any
// single path; alpha couples the increases so the connection as a whole
// takes one fair share and moves traffic away from congested paths.
// Decrease is standard per-subflow halving.
#pragma once

#include <memory>
#include <vector>

#include "core/mptcp_types.h"
#include "tcp/cc.h"

namespace mptcp {

class LiaCc;

/// Shared state across the subflows of one MPTCP connection. A LIA
/// controller joins when its subflow is created and leaves when the
/// subflow closes, so a dead path's frozen window never damps the
/// survivors.
class CoupledGroup {
 public:
  void add(LiaCc* cc) { members_.push_back(cc); }
  /// Drops `cc` if it is a member (a no-op for uncoupled controllers).
  void remove(const CongestionControl* cc);

  /// Recomputes alpha from current member cwnds/RTTs.
  double alpha() const;
  uint64_t total_cwnd() const;

 private:
  std::vector<LiaCc*> members_;
};

class LiaCc final : public NewRenoCc {
 public:
  LiaCc(CoupledGroup& group, Options opts) : NewRenoCc(opts), group_(group) {
    group_.add(this);
  }
  ~LiaCc() override { group_.remove(this); }

  void on_ack(uint64_t bytes_acked, SimTime srtt, SimTime min_rtt) override;

  SimTime last_srtt() const { return last_srtt_; }
  double cwnd_bytes() const { return cwnd_; }

 private:
  CoupledGroup& group_;
  SimTime last_srtt_ = 0;
};

/// Builds the configured controller for one subflow. LIA controllers
/// register with `group` (the connection's shared coupling state);
/// NewReno ignores it.
std::unique_ptr<CongestionControl> make_congestion_control(
    CcAlgo algo, CoupledGroup& group, NewRenoCc::Options opts);

}  // namespace mptcp
