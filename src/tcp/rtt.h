// RTT estimation and RTO computation per RFC 6298 (Jacobson/Karels).
#pragma once

#include <algorithm>

#include "sim/event_loop.h"

namespace mptcp {

class RttEstimator {
 public:
  RttEstimator(SimTime initial_rto, SimTime min_rto, SimTime max_rto)
      : rto_(initial_rto), min_rto_(min_rto), max_rto_(max_rto) {}

  /// Feeds a new RTT measurement (Karn's rule: callers must not sample
  /// retransmitted segments).
  void add_sample(SimTime rtt) {
    if (rtt <= 0) rtt = 1;
    if (!has_sample_) {
      srtt_ = rtt;
      rttvar_ = rtt / 2;
      has_sample_ = true;
    } else {
      const SimTime err = rtt > srtt_ ? rtt - srtt_ : srtt_ - rtt;
      rttvar_ = (3 * rttvar_ + err) / 4;
      srtt_ = (7 * srtt_ + rtt) / 8;
    }
    min_rtt_ = min_rtt_ == 0 ? rtt : std::min(min_rtt_, rtt);
    rto_ = std::clamp(srtt_ + std::max(SimTime{1}, 4 * rttvar_), min_rto_,
                      max_rto_);
    backoff_ = 1;
  }

  /// Doubles the RTO after a retransmission timeout (exponential backoff).
  void on_timeout() {
    backoff_ = std::min(backoff_ * 2, 64);
  }

  SimTime rto() const {
    return std::min(rto_ * backoff_, max_rto_);
  }

  SimTime srtt() const { return srtt_; }
  SimTime rttvar() const { return rttvar_; }
  /// Lowest RTT ever observed: the "base RTT" used by cwnd capping (M4).
  SimTime min_rtt() const { return min_rtt_; }

 private:
  bool has_sample_ = false;
  SimTime srtt_ = 0;
  SimTime rttvar_ = 0;
  SimTime min_rtt_ = 0;
  SimTime rto_;
  SimTime min_rto_;
  SimTime max_rto_;
  int backoff_ = 1;
};

}  // namespace mptcp
