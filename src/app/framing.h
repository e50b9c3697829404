// Request/response framing for the layered serving stack.
//
// Two wire protocols live here:
//
//  * The legacy MPGET codec (a 16-byte magic + big-endian size request,
//    response streamed raw and terminated by FIN). http_app.{h,cc} and
//    the connection-per-transfer workload delegate to these encoders so
//    the bytes on the wire -- and therefore the pinned determinism
//    digests -- are exactly what the old monolith produced.
//
//  * The serving protocol: fixed 32-byte requests and length-prefixed
//    response frames, which is what makes persistent connections with
//    pipelined/multiplexed requests possible (the MPGET "response ends
//    at FIN" convention burns a connection per transfer). Responses to
//    the requests of one connection are returned in request order; the
//    echoed req_id lets the client assert that ordering.
//
//      request  (32 B): 'MPRQ' ver flags rsvd16 req_id8 size8 chunk4 rsvd4
//      response (16 B per frame): kind4 payload_len4 req_id8
//        kind = 'MPRD' data frame (payload_len pattern bytes follow)
//             | 'MPRF' fin frame (payload_len == 0, response complete)
//             | 'MPRJ' reject frame (payload_len == 0, 503-equivalent)
//
// FrameReader is the incremental parser both sides share. It is written
// against StreamSocket's zero-copy receive path end to end: fixed-size
// headers are gathered with peek_copy() (they may straddle RecvQueue
// chunk boundaries), payload bytes are handed to the sink as borrowed
// peek_views() spans and then consume()d -- no byte of a response body
// is ever copied into the application.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "tcp/tcp_socket.h"

namespace mptcp {

// --- legacy MPGET codec (wire-compatible with the old monolith) ------------

inline constexpr size_t kMpgetRequestSize = 16;

/// Encodes the 16-byte MPGET request asking for `response_size` bytes.
std::vector<uint8_t> mpget_encode(uint64_t response_size);

/// Decodes the response size from a gathered MPGET request (first
/// kMpgetRequestSize bytes of `req`). Mirrors the historical server loop,
/// which trusted the magic and read bytes 8..15 big-endian.
uint64_t mpget_decode_size(std::span<const uint8_t> req);

// --- serving protocol ------------------------------------------------------

inline constexpr size_t kServingRequestSize = 32;
inline constexpr size_t kFrameHeaderSize = 16;
inline constexpr uint32_t kFrameData = 0x4d505244;    // 'MPRD'
inline constexpr uint32_t kFrameFin = 0x4d505246;     // 'MPRF'
inline constexpr uint32_t kFrameReject = 0x4d50524a;  // 'MPRJ'

struct ServingRequest {
  uint64_t req_id = 0;
  uint64_t response_size = 0;
  uint32_t chunk_bytes = 16 * 1024;  ///< server frame payload quantum
  bool streaming = false;            ///< flag bit 0: adaptive-stream segment
};

/// Encodes the fixed 32-byte serving request.
std::vector<uint8_t> serving_encode_request(const ServingRequest& req);

/// Decodes a gathered 32-byte serving request; returns false on bad
/// magic/version (the connection is then dead to the server).
bool serving_decode_request(std::span<const uint8_t> buf, ServingRequest& out);

struct FrameHeader {
  uint32_t kind = 0;         ///< kFrameData / kFrameFin / kFrameReject
  uint32_t payload_len = 0;  ///< bytes following this header
  uint64_t req_id = 0;
};

/// Encodes a 16-byte response frame header.
void serving_encode_frame(FrameHeader h, std::span<uint8_t> out);

/// Decodes a gathered 16-byte frame header; false on unknown kind.
bool serving_decode_frame(std::span<const uint8_t> buf, FrameHeader& out);

/// Incremental response-frame parser for one StreamSocket.
///
/// Call pump() from on_readable (and after submitting requests). The
/// reader alternates between two states: gathering the next 16-byte
/// header via peek_copy() -- returning without consuming anything while
/// fewer than 16 bytes are buffered -- and streaming the current frame's
/// payload to `on_payload` as borrowed zero-copy views. on_frame fires
/// when a header completes; on_payload zero or more times per data
/// frame, in order. A callback that closes or detaches the socket (or is
/// about to destroy this reader) must return false; pump() then unwinds
/// immediately without touching the socket or the reader again.
class FrameReader {
 public:
  /// (header) -> keep_parsing. Returning false stops the pump (protocol
  /// error or socket teardown).
  std::function<bool(const FrameHeader&)> on_frame;
  /// (header, payload_view) -> keep_parsing; `view` borrows the receive
  /// queue and is only valid during the call.
  std::function<bool(const FrameHeader&, std::span<const uint8_t>)> on_payload;

  /// Parses everything currently buffered on `s`. Safe to call again
  /// from inside the callbacks' completion paths (re-entrancy is cut by
  /// the pumping_ latch: the outer pump loop picks up the new bytes).
  void pump(StreamSocket& s);

 private:
  FrameHeader hdr_;
  uint32_t remaining_ = 0;
  bool in_payload_ = false;
  bool pumping_ = false;
  bool stopped_ = false;
};

}  // namespace mptcp
