// The paper's emulated paths and the app payload pattern, shared by tests,
// benchmarks and examples.
//
// The concrete path parameters of the paper's scenarios (WiFi, 3G, 1G
// Ethernet, ...) are provided as factory functions so every experiment
// states its setup in the paper's own vocabulary; TwoHostRig and
// ScenarioSpec (app/scenario.h) build networks from them. The pattern
// functions generate the byte stream every app writes and verifies.
#pragma once

#include <span>
#include <string>

#include "net/payload.h"
#include "sim/link.h"
#include "sim/trace.h"

namespace mptcp {

/// Full-duplex path description.
struct PathSpec {
  LinkConfig up;    ///< client -> server
  LinkConfig down;  ///< server -> client
  std::string name = "path";
};

// --- The paper's emulated paths (section 4.2) -----------------------------

/// "WiFi": 8 Mbps, 20 ms RTT, 80 ms of buffer.
PathSpec wifi_path();
/// "3G": 2 Mbps, 150 ms RTT, 2 s of buffer (deep provider buffers).
PathSpec threeg_path();
/// Very weak 3G for Fig. 6(a): 50 kbps, 150 ms RTT, 2 s buffer, lossy.
PathSpec weak_threeg_path(double loss = 0.02);
/// LAN-style Ethernet path of the given rate with ~100 us RTT.
PathSpec ethernet_path(double rate_bps, SimTime rtt = 100 * kMicrosecond,
                       SimTime buffer_delay = 2 * kMillisecond);
/// Fig. 9's capped paths: both ~2 Mbps, 3G has the long RTT/deep buffer.
PathSpec capped_wifi_path();
/// Cellular links mask most radio loss with link-layer retransmission;
/// only a residue is visible to TCP.
PathSpec capped_threeg_path(double loss = 0.001);

/// Deterministic payload pattern used for end-to-end integrity checks:
/// byte i of a stream is pattern_byte(i).
inline uint8_t pattern_byte(uint64_t i) {
  return static_cast<uint8_t>((i * 0x9e3779b97f4a7c15ULL) >> 56);
}

/// Length of the pattern tape: stream offsets [0, kPatternTapeBytes) are
/// generated once per process into one frozen Payload that every writer
/// shares. On seed 1, 100 % of cross_shard's and 99.2 % of fleet's
/// pattern bytes lie below it; later offsets are generated per call.
inline constexpr size_t kPatternTapeBytes = size_t{4} << 20;

/// Writes the pattern for stream offsets [offset, offset+out.size()),
/// copying the part inside the tape from it.
void fill_pattern(uint64_t offset, std::span<uint8_t> out);

/// The pattern for stream offsets [offset, offset+n). Inside the tape this
/// is a view of it, which copies no byte and crosses shards without a
/// copy; otherwise one fresh (pooled) Payload. Senders size `n` by
/// StreamSocket::send_space() and pass the result to write_shared().
Payload pattern_payload(uint64_t offset, size_t n);

}  // namespace mptcp
