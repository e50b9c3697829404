#include "core/coupled_cc.h"

#include <algorithm>

namespace mptcp {

std::string_view to_string(CcAlgo a) {
  switch (a) {
    case CcAlgo::kLia: return "lia";
    case CcAlgo::kNewReno: return "new-reno";
  }
  return "?";
}

std::unique_ptr<CongestionControl> make_congestion_control(
    CcAlgo algo, CoupledGroup& group, NewRenoCc::Options opts) {
  switch (algo) {
    case CcAlgo::kNewReno: return std::make_unique<NewRenoCc>(opts);
    case CcAlgo::kLia: break;
  }
  return std::make_unique<LiaCc>(group, opts);
}

void CoupledGroup::remove(const CongestionControl* cc) {
  std::erase_if(members_, [cc](const LiaCc* m) { return m == cc; });
}

double CoupledGroup::alpha() const {
  double best_ratio = 0;   // max cwnd_i / rtt_i^2
  double sum_rate = 0;     // sum cwnd_i / rtt_i
  double total_cwnd = 0;
  for (const LiaCc* m : members_) {
    const double rtt = m->last_srtt() > 0 ? to_seconds(m->last_srtt()) : 0;
    if (rtt <= 0) continue;
    const double w = m->cwnd_bytes();
    best_ratio = std::max(best_ratio, w / (rtt * rtt));
    sum_rate += w / rtt;
    total_cwnd += w;
  }
  if (sum_rate <= 0 || total_cwnd <= 0) return 1.0;
  return total_cwnd * best_ratio / (sum_rate * sum_rate);
}

uint64_t CoupledGroup::total_cwnd() const {
  double total = 0;
  for (const LiaCc* m : members_) total += m->cwnd_bytes();
  return static_cast<uint64_t>(total);
}

void LiaCc::on_ack(uint64_t bytes_acked, SimTime srtt, SimTime min_rtt) {
  last_srtt_ = srtt;
  if (cwnd_ < ssthresh_) {
    // Slow start is uncoupled, as in the reference implementation.
    cwnd_ += static_cast<double>(bytes_acked);
    apply_cap(srtt, min_rtt);
    return;
  }
  const double total = static_cast<double>(group_.total_cwnd());
  const double a = group_.alpha();
  const double b = static_cast<double>(bytes_acked);
  const double mss = static_cast<double>(mss_);
  const double coupled = total > 0 ? a * b * mss / total : b * mss / cwnd_;
  const double uncoupled = b * mss / cwnd_;  // what TCP would add
  cwnd_ += std::min(coupled, uncoupled);
  apply_cap(srtt, min_rtt);
}

}  // namespace mptcp
