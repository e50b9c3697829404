// The TCP segment as passed through the simulated network.
//
// Segments are plain values: middleboxes copy, split, coalesce and rewrite
// them, links account their wire size, and endpoints parse their options.
// The payload carries real bytes so that payload-modifying middleboxes and
// end-to-end integrity checks are meaningful -- but the bytes live in a
// shared refcounted buffer (net/payload.h), so copying, splitting and
// queueing segments shares them instead of duplicating them. Middleboxes
// that rewrite payload bytes must use Payload::mutable_data() (explicit
// copy-on-write).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/ip.h"
#include "net/options.h"
#include "net/payload.h"

namespace mptcp {

inline constexpr size_t kTcpHeaderSize = 20;
inline constexpr size_t kIpHeaderSize = 20;
inline constexpr size_t kMaxTcpOptionSpace = 40;

struct TcpSegment {
  FourTuple tuple;

  uint32_t seq = 0;
  uint32_t ack = 0;
  uint16_t window = 0;  ///< raw wire value; receiver applies its send scale

  bool syn = false;
  bool ack_flag = false;
  bool fin = false;
  bool rst = false;
  bool psh = false;

  OptionList options;
  Payload payload;

  /// Wire checksum over the TCP pseudo-header + header + payload. Filled
  /// by the wire codec / checksum helpers; middleboxes that modify a
  /// segment are expected to fix it up (ours recompute it).
  uint16_t checksum = 0;

  size_t payload_size() const { return payload.size(); }

  /// Size of the encoded TCP options, padded to a 4-byte boundary.
  size_t options_wire_size() const {
    size_t n = 0;
    for (const auto& o : options) n += option_wire_size(o);
    return (n + 3) & ~size_t{3};
  }

  /// Total on-the-wire size including the IP header; used by links to
  /// compute serialization delay.
  size_t wire_size() const {
    return kIpHeaderSize + kTcpHeaderSize + options_wire_size() +
           payload.size();
  }

  bool is_pure_ack() const {
    return ack_flag && !syn && !fin && !rst && payload.empty();
  }

  std::string brief() const;
};

}  // namespace mptcp
