#include "app/server_app.h"

#include <algorithm>

#include "app/harness.h"

namespace mptcp {

ServerApp::ServerApp(SocketFactory& factory, Port port, ServingConfig cfg)
    : factory_(factory), cfg_(cfg), service_rng_(cfg.seed) {
  factory_.listen(port, [this](StreamSocket& c) { accept(c); });
}

ServerApp::~ServerApp() {
  for (auto& c : conns_) {
    if (c->sock != nullptr) {
      c->sock->on_readable = nullptr;
      c->sock->on_send_space = nullptr;
      c->sock->on_closed = nullptr;
    }
    if (c->service) c->service->cancel();
  }
}

void ServerApp::accept(StreamSocket& c) {
  factory_.release_when_closed(c);
  if (cfg_.max_conns != 0 && conns_.size() >= cfg_.max_conns) {
    ++conns_refused_;
    c.close();
    return;
  }
  ++conns_accepted_;
  auto conn = std::make_unique<Conn>();
  conn->self = this;
  conn->sock = &c;
  Conn* raw = conn.get();
  conns_.push_back(std::move(conn));
  c.on_readable = [raw] { raw->parse_requests(); };
  c.on_send_space = [raw] { raw->pump_response(); };
  c.on_closed = [this, raw] { reap(raw); };
}

void ServerApp::Conn::parse_requests() {
  if (dead) return;
  while (sock->readable_bytes() >= kServingRequestSize) {
    uint8_t buf[kServingRequestSize];
    sock->peek_copy(0, buf);
    ServingRequest req;
    if (!serving_decode_request(buf, req)) {
      // Not our protocol: drop the connection rather than guess at a
      // resync point.
      dead = true;
      sock->close();
      return;
    }
    if (pipeline.size() >= self->cfg_.max_pipeline) {
      // Leave the request bytes unconsumed until this pipeline pops: the
      // transport's receive window closes over them and the client
      // stalls -- backpressure without a byte of reply.
      deferred = true;
      return;
    }
    if (self->cfg_.max_inflight != 0 &&
        self->inflight_ >= self->cfg_.max_inflight) {
      // Reject path: the request is consumed and answered with a reject
      // frame *in pipeline order* (a 503 still honors response ordering).
      sock->consume(kServingRequestSize);
      ++self->rejected_;
      pipeline.push_back(PendingReq{req, /*rejected=*/true});
    } else {
      sock->consume(kServingRequestSize);
      ++self->inflight_;
      self->peak_inflight_ = std::max(self->peak_inflight_, self->inflight_);
      pipeline.push_back(PendingReq{req, /*rejected=*/false});
    }
    maybe_start_response();
    if (dead) return;
  }
}

void ServerApp::Conn::maybe_start_response() {
  if (responding || waiting_service || dead || pipeline.empty()) return;
  const ServiceTimeModel& model = self->cfg_.service;
  // Rejects are answered immediately: admission control happens before
  // the request costs any service time.
  if (pipeline.front().rejected ||
      model.kind == ServiceTimeModel::Kind::kNone) {
    responding = true;
    pump_response();
    return;
  }
  const SimTime delay = std::max<SimTime>(
      1, static_cast<SimTime>(self->service_rng_.next_exponential(
             static_cast<double>(model.mean))));
  if (!service) {
    service = std::make_unique<Timer>(self->factory_.loop(), [this] {
      waiting_service = false;
      responding = true;
      pump_response();
    });
  }
  waiting_service = true;
  service->arm_in(delay);
}

void ServerApp::Conn::pump_response() {
  while (responding && !dead) {
    if (!flush_frame()) return;  // send buffer full; resume on send space
    // A copy, not a reference into the ring: finish_request() pops the
    // pipeline and may re-enter parse_requests(), which pushes into it.
    const PendingReq front = pipeline.front();
    const uint64_t size = front.req.response_size;
    if (front.rejected) {
      if (!tail_staged()) {
        stage_tail(kFrameReject, front.req.req_id);
        continue;
      }
      self->finish_request(*this, /*served=*/false);
    } else if (response_sent < size) {
      // The frame buffer is sized by the quantum, so a request cannot
      // name one past the server's own.
      const uint32_t quantum =
          front.req.chunk_bytes != 0
              ? std::min(front.req.chunk_bytes, kServingChunkBytes)
              : kServingChunkBytes;
      const size_t n = static_cast<size_t>(
          std::min<uint64_t>(quantum, size - response_sent));
      frame_buf.resize(kFrameHeaderSize + n);
      frame_off = 0;
      serving_encode_frame(
          FrameHeader{kFrameData, static_cast<uint32_t>(n),
                      front.req.req_id},
          frame_buf);
      fill_pattern(response_sent,
                   std::span<uint8_t>(frame_buf).subspan(kFrameHeaderSize));
      response_sent += n;
      self->bytes_ += n;
    } else if (!tail_staged()) {
      stage_tail(kFrameFin, front.req.req_id);
    } else {
      self->finish_request(*this, /*served=*/true);
    }
  }
  // The finished response may have left the next pipeline entry waiting.
  maybe_start_response();
}

void ServerApp::Conn::stage_tail(uint32_t kind, uint64_t req_id) {
  frame_buf.resize(kFrameHeaderSize);
  frame_off = 0;
  serving_encode_frame(FrameHeader{kind, 0, req_id}, frame_buf);
  tail_sent_ = true;
}

bool ServerApp::Conn::flush_frame() {
  if (frame_off == frame_buf.size()) {
    frame_buf.clear();
    frame_off = 0;
    return true;
  }
  const size_t n = sock->write(
      std::span<const uint8_t>(frame_buf).subspan(frame_off));
  frame_off += n;
  if (frame_off < frame_buf.size()) return false;
  frame_buf.clear();
  frame_off = 0;
  return true;
}

void ServerApp::finish_request(Conn& c, bool served) {
  if (!c.pipeline.front().rejected) --inflight_;
  c.pipeline.pop_front();
  c.responding = false;
  c.response_sent = 0;
  c.tail_sent_ = false;
  if (served) ++served_;
  // The pop freed a pipeline slot: read the request left waiting for it.
  if (c.deferred) {
    c.deferred = false;
    c.parse_requests();
  }
}

void ServerApp::for_each_conn(
    const std::function<void(StreamSocket&)>& fn) {
  for (const auto& c : conns_) {
    if (c->sock != nullptr && !c->dead) fn(*c->sock);
  }
}

void ServerApp::reap(Conn* conn) {
  // Requests admitted on this connection will never be answered: give
  // their admission slots back so other connections can make progress.
  size_t admitted = 0;
  for (const PendingReq& p : conn->pipeline) {
    if (!p.rejected) ++admitted;
  }
  inflight_ -= admitted;
  if (conn->service) conn->service->cancel();
  std::erase_if(conns_, [conn](const std::unique_ptr<Conn>& c) {
    return c.get() == conn;
  });
}

}  // namespace mptcp
