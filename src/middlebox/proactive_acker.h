// Pro-active ACKing proxy.
//
// Some middleboxes acknowledge data toward the sender before it reaches
// the real receiver (performance-enhancing proxies). The paper's study
// found 26% of paths (33% on port 80) mishandle ACKs for data the box has
// not observed. For MPTCP this is why the subflow-level ACK can never be
// trusted as an end-to-end signal: only the DATA_ACK, generated by the
// real endpoint, frees the connection-level send buffer (section 3.3.5).
//
// This element forwards data unchanged but immediately emits a forged
// pure ACK back to the sender covering the data it saw. Optionally it
// also "corrects" end-to-end ACKs that exceed what it has observed.
#pragma once

#include <unordered_map>

#include "middlebox/middlebox.h"

namespace mptcp {

class ProactiveAcker final : public DuplexMiddlebox {
 public:
  enum class AckPolicy {
    kPassThrough,    ///< leave the receiver's real ACKs alone
    kDropUnseen,     ///< drop ACKs covering data the box never saw
    kCorrectUnseen,  ///< rewrite such ACKs down to the highest seen seq
  };

  explicit ProactiveAcker(AckPolicy policy = AckPolicy::kPassThrough)
      : policy_(policy) {}

  uint64_t forged_acks() const { return forged_; }

 protected:
  void on_forward(TcpSegment seg) override;
  void on_reverse(TcpSegment seg) override;

 private:
  struct FlowState {
    bool synced = false;
    uint32_t highest_end = 0;  ///< highest seq+len observed forward
    uint16_t last_window = 0;  ///< receiver's latest advertised window
  };

  AckPolicy policy_;
  std::unordered_map<FourTuple, FlowState> flows_;
  uint64_t forged_ = 0;
};

}  // namespace mptcp
