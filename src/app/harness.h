// Canned two-host topologies shared by tests, benchmarks and examples.
//
// A TwoHostRig wires a (possibly multihomed) client to a server through
// one full-duplex path per client address. Middleboxes can be spliced into
// either direction of any path. The concrete path parameters of the
// paper's scenarios (WiFi, 3G, 1G Ethernet, ...) are provided as factory
// functions so every experiment states its setup in the paper's own
// vocabulary.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "net/payload.h"
#include "sim/link.h"
#include "sim/network.h"
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

class TwoHostRig {
 public:
  explicit TwoHostRig(uint64_t seed = 1);

  /// Adds a full-duplex path; the client gains address 10.0.<n>.2 and the
  /// path is routed to/from the single server address 10.99.0.1.
  /// Returns the path index.
  size_t add_path(const PathSpec& spec);

  /// Splices a middlebox into the client->server (up) or server->client
  /// (down) direction of path `i`. The element's downstream is wired to
  /// whatever the link previously delivered to, so repeated splices build
  /// a chain in call order (closest to the link first).
  void splice_up(size_t i, Middlebox& element);
  void splice_down(size_t i, Middlebox& element);

  EventLoop& loop() { return loop_; }
  Host& client() { return client_; }
  Host& server() { return server_; }
  Network& network() { return net_; }

  /// The simulation-wide stats registry (owned by the event loop). Every
  /// component in the rig registers its counters here; see net/stats.h.
  StatsRegistry& stats() { return loop_.stats(); }

  /// Flat sorted-key JSON export of every registered stat. Benches pass
  /// this through to --stats files so runs are machine-comparable.
  std::string dump_stats() { return loop_.stats().to_json(); }

  IpAddr client_addr(size_t i) const { return paths_[i].client_addr; }
  IpAddr server_addr() const { return server_addr_; }
  Link& up_link(size_t i) { return *paths_[i].up; }
  Link& down_link(size_t i) { return *paths_[i].down; }
  size_t path_count() const { return paths_.size(); }

  /// Takes the client interface of path `i` down (mobility scenarios).
  void set_path_up(size_t i, bool up);

  /// Adds a server-side return route: traffic to `addr` leaves via path
  /// `i`'s downlink (needed when a NAT publishes a new address).
  void route_server_to(IpAddr addr, size_t i) {
    server_out_.add_route(addr, paths_[i].down.get());
  }

 private:
  struct Path {
    IpAddr client_addr;
    std::unique_ptr<Link> up;
    std::unique_ptr<Link> down;
  };

  EventLoop loop_;
  Network net_;
  Host client_;
  Host server_;
  Classifier server_out_;
  IpAddr server_addr_{10, 99, 0, 1};
  std::vector<Path> paths_;
  uint64_t seed_;
};

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
