// Wire codec: maps TcpSegment to/from the RFC 793 + RFC 6824 byte layout.
//
// The simulator passes segments around as structs for speed and clarity,
// but the codec keeps the model honest: option sizes, 4-byte padding, the
// TCP checksum over the pseudo-header, and the MPTCP option subtype
// encodings are all exercised by tests through this code. The Fig. 3
// benchmark also uses it to measure the real per-byte cost of
// checksumming.
//
// Deviations from RFC 6824, kept deliberately small and documented:
//   * MP_JOIN's third-ACK MAC is 64 bits (the RFC uses the full 160-bit
//     HMAC there); the authentication logic is unchanged.
//   * MP_CAPABLE uses version 0 with 64-bit keys, as in the paper.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/segment.h"

namespace mptcp {

/// An encoded options block held in a fixed inline buffer. A legal TCP
/// header carries at most 40 option bytes (padded to a 4-byte boundary),
/// so the common case never touches the heap; the simulator occasionally
/// carries an oversized option set in-sim (see TcpConnection's budget
/// enforcement), which transparently spills.
class EncodedOptions {
 public:
  static constexpr size_t kInlineCapacity = 64;

  void push_back(uint8_t b) {
    if (spill_.empty() && size_ < kInlineCapacity) {
      inline_[size_++] = b;
      return;
    }
    if (spill_.empty()) spill_.assign(inline_.begin(), inline_.end());
    spill_.push_back(b);
    ++size_;
  }

  size_t size() const { return size_; }
  const uint8_t* data() const {
    return spill_.empty() ? inline_.data() : spill_.data();
  }
  std::span<const uint8_t> bytes() const { return {data(), size_}; }

 private:
  std::array<uint8_t, kInlineCapacity> inline_;
  size_t size_ = 0;
  std::vector<uint8_t> spill_;  ///< engaged only beyond kInlineCapacity
};

/// Serializes an options block (padded to 4 bytes) into the inline buffer:
/// the allocation-free path used per segment by serialize_segment.
EncodedOptions encode_options(std::span<const TcpOption> opts);

/// Serializes a full segment (TCP header + options + payload, no IP
/// header). The checksum field is computed over the IPv4 pseudo-header
/// derived from seg.tuple.
std::vector<uint8_t> serialize_segment(const TcpSegment& seg);

/// Parses bytes produced by serialize_segment back into a segment.
/// `tuple` supplies the pseudo-header fields (addresses are not part of
/// the TCP header). Returns nullopt on malformed input. Unknown options
/// are skipped, matching a liberal TCP receiver.
std::optional<TcpSegment> parse_segment(std::span<const uint8_t> bytes,
                                        const FourTuple& tuple);

/// Computes the TCP checksum for a serialized segment (bytes with the
/// checksum field zeroed) and pseudo-header from `tuple`.
uint16_t tcp_checksum(std::span<const uint8_t> tcp_bytes,
                      const FourTuple& tuple);

/// Serializes just the options block (with padding to 4 bytes).
std::vector<uint8_t> serialize_options(const std::vector<TcpOption>& opts);

/// Parses an options block.
OptionList parse_options(std::span<const uint8_t> bytes);

}  // namespace mptcp
