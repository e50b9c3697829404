// Bulk-transfer workload: a sender that keeps the socket full and a
// receiver that drains it, verifying payload integrity against the
// deterministic pattern and metering goodput. Used by most experiments.
#pragma once

#include <cstdint>

#include "app/harness.h"
#include "tcp/tcp_socket.h"

namespace mptcp {

/// Writes the deterministic pattern into a socket as fast as the send
/// buffer accepts, up to an optional total, then (optionally) closes.
class BulkSender {
 public:
  /// total_bytes == 0 means unlimited (runs until the simulation stops).
  BulkSender(StreamSocket& sock, uint64_t total_bytes = 0,
             bool close_when_done = true);
  ~BulkSender() {
    sock_.on_connected = nullptr;
    sock_.on_send_space = nullptr;
  }

  void start() { fill(); }
  bool done() const { return total_ != 0 && written_ >= total_; }

 private:
  void fill();

  StreamSocket& sock_;
  uint64_t total_;
  bool close_when_done_;
  uint64_t written_ = 0;
  bool closed_ = false;
};

/// Drains a socket, verifying the pattern and counting delivered bytes.
class BulkReceiver {
 public:
  explicit BulkReceiver(StreamSocket& sock, bool verify = true);
  ~BulkReceiver() { sock_.on_readable = nullptr; }

  uint64_t bytes_received() const { return received_; }
  uint64_t pattern_errors() const { return pattern_errors_; }
  bool pattern_ok() const { return pattern_errors_ == 0; }
  bool saw_eof() const { return saw_eof_; }
  std::function<void()> on_eof;

 private:
  void drain();

  StreamSocket& sock_;
  bool verify_;
  uint64_t received_ = 0;
  uint64_t pattern_errors_ = 0;
  bool saw_eof_ = false;
};

/// Fig. 7's workload: 8 KB blocks, each stamped with its creation time;
/// the receiver reconstructs blocks and records application-level delay.
class BlockSender {
 public:
  static constexpr size_t kBlockSize = 8 * 1024;

  BlockSender(EventLoop& loop, StreamSocket& sock);

  /// Kick for sockets that were already connected at construction.
  void fill_now() { fill(); }

 private:
  void fill();

  EventLoop& loop_;
  StreamSocket& sock_;
  std::vector<uint8_t> current_;  ///< remainder of the block being written
  size_t current_off_ = 0;
};

class BlockReceiver {
 public:
  BlockReceiver(EventLoop& loop, StreamSocket& sock);

  /// App-level delays (seconds) of completed blocks.
  const Distribution& delays() const { return delays_; }
  uint64_t blocks_completed() const { return blocks_; }

 private:
  static constexpr size_t kHeader = 8;  ///< timestamp bytes per block

  void drain();

  EventLoop& loop_;
  StreamSocket& sock_;
  size_t block_pos_ = 0;     ///< bytes of the current block consumed
  uint8_t header_[kHeader];  ///< the current block's timestamp bytes
  Distribution delays_;
  uint64_t blocks_ = 0;
};

}  // namespace mptcp
