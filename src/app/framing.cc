#include "app/framing.h"

namespace mptcp {

namespace {

constexpr uint8_t kMpgetMagic[8] = {'M', 'P', 'G', 'E', 'T', 0, 0, 0};
constexpr uint8_t kServingMagic[4] = {'M', 'P', 'R', 'Q'};
constexpr uint8_t kServingVersion = 1;

inline void put_u32(std::span<uint8_t> out, size_t at, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[at + static_cast<size_t>(i)] =
        static_cast<uint8_t>(v >> ((3 - i) * 8));
  }
}

inline void put_u64(std::span<uint8_t> out, size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[at + static_cast<size_t>(i)] =
        static_cast<uint8_t>(v >> ((7 - i) * 8));
  }
}

inline uint32_t get_u32(std::span<const uint8_t> in, size_t at) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | in[at + static_cast<size_t>(i)];
  return v;
}

inline uint64_t get_u64(std::span<const uint8_t> in, size_t at) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | in[at + static_cast<size_t>(i)];
  return v;
}

}  // namespace

std::vector<uint8_t> mpget_encode(uint64_t response_size) {
  std::vector<uint8_t> req(kMpgetRequestSize, 0);
  std::copy(std::begin(kMpgetMagic), std::end(kMpgetMagic), req.begin());
  put_u64(req, 8, response_size);
  return req;
}

uint64_t mpget_decode_size(std::span<const uint8_t> req) {
  return get_u64(req, 8);
}

std::vector<uint8_t> serving_encode_request(const ServingRequest& req) {
  std::vector<uint8_t> buf(kServingRequestSize, 0);
  std::copy(std::begin(kServingMagic), std::end(kServingMagic), buf.begin());
  buf[4] = kServingVersion;
  // bytes 5..7: flags (always 0) and reserved
  put_u64(buf, 8, req.req_id);
  put_u64(buf, 16, req.response_size);
  put_u32(buf, 24, req.chunk_bytes);
  // bytes 28..31 reserved
  return buf;
}

bool serving_decode_request(std::span<const uint8_t> buf,
                            ServingRequest& out) {
  if (buf.size() < kServingRequestSize) return false;
  for (size_t i = 0; i < 4; ++i) {
    if (buf[i] != kServingMagic[i]) return false;
  }
  if (buf[4] != kServingVersion) return false;
  out.req_id = get_u64(buf, 8);
  out.response_size = get_u64(buf, 16);
  out.chunk_bytes = get_u32(buf, 24);
  return true;
}

void serving_encode_frame(FrameHeader h, std::span<uint8_t> out) {
  put_u32(out, 0, h.kind);
  put_u32(out, 4, h.payload_len);
  put_u64(out, 8, h.req_id);
}

bool serving_decode_frame(std::span<const uint8_t> buf, FrameHeader& out) {
  if (buf.size() < kFrameHeaderSize) return false;
  out.kind = get_u32(buf, 0);
  out.payload_len = get_u32(buf, 4);
  out.req_id = get_u64(buf, 8);
  return out.kind == kFrameData || out.kind == kFrameFin ||
         out.kind == kFrameReject;
}

void FrameReader::pump(StreamSocket& s) {
  if (pumping_ || stopped_) return;  // callbacks re-enter via the loop below
  pumping_ = true;
  for (;;) {
    if (in_payload_) {
      // Stream the frame's remaining payload as borrowed zero-copy
      // views, consuming each view as the sink is done with it.
      while (remaining_ > 0) {
        std::span<const uint8_t> view;
        std::span<const uint8_t> views[1];
        if (s.peek_views(views) == 0) break;  // wait for more data
        view = views[0].first(
            std::min<size_t>(views[0].size(), remaining_));
        if (on_payload && !on_payload(hdr_, view)) {
          stopped_ = true;
          pumping_ = false;
          return;
        }
        s.consume(view.size());
        remaining_ -= static_cast<uint32_t>(view.size());
      }
      if (remaining_ > 0) break;  // mid-frame, out of buffered bytes
      in_payload_ = false;
    }
    if (s.readable_bytes() < kFrameHeaderSize) break;
    uint8_t hdr[kFrameHeaderSize];
    s.peek_copy(0, hdr);
    if (!serving_decode_frame(hdr, hdr_)) {
      stopped_ = true;  // corrupt stream: stop parsing for good
      break;
    }
    s.consume(kFrameHeaderSize);
    remaining_ = hdr_.payload_len;
    in_payload_ = true;
    if (on_frame && !on_frame(hdr_)) {
      stopped_ = true;
      pumping_ = false;
      return;
    }
  }
  pumping_ = false;
}

}  // namespace mptcp
