#include "app/bulk_app.h"

#include <algorithm>
#include <cstring>

namespace mptcp {

// ---------------------------------------------------------------------------
// BulkSender
// ---------------------------------------------------------------------------

BulkSender::BulkSender(StreamSocket& sock, uint64_t total_bytes,
                       bool close_when_done)
    : sock_(sock), total_(total_bytes), close_when_done_(close_when_done) {
  sock_.on_connected = [this] { fill(); };
  sock_.on_send_space = [this] { fill(); };
}

void BulkSender::fill() {
  constexpr size_t kChunk = 64 * 1024;
  while (!closed_) {
    if (total_ != 0 && written_ >= total_) {
      if (close_when_done_) {
        closed_ = true;
        sock_.close();
      }
      return;
    }
    size_t want = kChunk;
    if (total_ != 0) {
      want = static_cast<size_t>(
          std::min<uint64_t>(want, total_ - written_));
    }
    const size_t n = sock_.write_shared(
        pattern_payload(written_, std::min(want, sock_.send_space())));
    written_ += n;
    if (n < want) return;  // buffer full; resume on on_send_space
  }
}

// ---------------------------------------------------------------------------
// BulkReceiver
// ---------------------------------------------------------------------------

BulkReceiver::BulkReceiver(StreamSocket& sock, bool verify)
    : sock_(sock), verify_(verify) {
  sock_.on_readable = [this] { drain(); };
}

void BulkReceiver::drain() {
  // The hot path (verify off, the benchmark/digest configuration) counts
  // and releases bytes with consume(): no copy at all. Verification reads
  // the classic way -- it must touch every byte regardless. Both consume
  // in 16 KiB steps: the cadence of receive window updates (hence the
  // packet trace) depends on how much each call releases, and this
  // matches the historical read-loop quantum.
  if (verify_) {
    uint8_t buf[16 * 1024];
    for (;;) {
      const size_t n = sock_.read(buf);
      if (n == 0) break;
      for (size_t i = 0; i < n; ++i) {
        if (buf[i] != pattern_byte(received_ + i)) ++pattern_errors_;
      }
      received_ += n;
    }
  } else {
    for (;;) {
      const size_t n = std::min<size_t>(sock_.readable_bytes(), 16 * 1024);
      if (n == 0) break;
      sock_.consume(n);
      received_ += n;
    }
  }
  if (sock_.at_eof() && !saw_eof_) {
    saw_eof_ = true;
    if (on_eof) on_eof();
  }
}

// ---------------------------------------------------------------------------
// BlockSender / BlockReceiver
// ---------------------------------------------------------------------------

BlockSender::BlockSender(EventLoop& loop, StreamSocket& sock)
    : loop_(loop), sock_(sock) {
  sock_.on_connected = [this] { fill(); };
  sock_.on_send_space = [this] { fill(); };
}

void BlockSender::fill() {
  for (;;) {
    if (current_off_ == current_.size()) {
      // Start a new block stamped with its creation time.
      current_.assign(kBlockSize, 0);
      const uint64_t ts = static_cast<uint64_t>(loop_.now());
      for (int i = 0; i < 8; ++i) {
        current_[i] = static_cast<uint8_t>(ts >> ((7 - i) * 8));
      }
      current_off_ = 0;
    }
    const size_t n = sock_.write(
        std::span<const uint8_t>(current_).subspan(current_off_));
    current_off_ += n;
    if (current_off_ < current_.size()) return;  // blocked; resume later
  }
}

BlockReceiver::BlockReceiver(EventLoop& loop, StreamSocket& sock)
    : loop_(loop), sock_(sock) {
  sock_.on_readable = [this] { drain(); };
}

void BlockReceiver::drain() {
  // Only the 8 timestamp bytes at the head of each block are ever looked
  // at: peek them out of the receive queue's views, then release the body
  // with consume() -- no reassembly buffer, no copy of the 8 KiB payload.
  std::span<const uint8_t> views[16];
  for (;;) {
    const size_t avail = sock_.readable_bytes();
    if (avail == 0) break;
    if (block_pos_ < kHeader) {
      const size_t nviews = sock_.peek_views(views);
      const size_t want = std::min(kHeader - block_pos_, avail);
      size_t got = 0;
      for (size_t i = 0; i < nviews && got < want; ++i) {
        for (uint8_t b : views[i]) {
          if (got == want) break;
          header_[block_pos_ + got] = b;
          ++got;
        }
      }
      sock_.consume(got);
      block_pos_ += got;
      continue;
    }
    const size_t n = std::min(avail, BlockSender::kBlockSize - block_pos_);
    sock_.consume(n);
    block_pos_ += n;
    if (block_pos_ == BlockSender::kBlockSize) {
      uint64_t ts = 0;
      for (size_t i = 0; i < kHeader; ++i) ts = (ts << 8) | header_[i];
      delays_.add(to_seconds(loop_.now() - static_cast<SimTime>(ts)));
      ++blocks_;
      block_pos_ = 0;
    }
  }
}

}  // namespace mptcp
