#include "app/client_pool.h"

#include <algorithm>

namespace mptcp {

ConnectionPool::ConnectionPool(SocketFactory& factory, IpAddr local_addr,
                               Endpoint server, PoolConfig cfg)
    : factory_(factory),
      local_addr_(local_addr),
      server_(server),
      cfg_(cfg) {
  if (cfg_.connections == 0) cfg_.connections = 1;
  if (cfg_.max_mux == 0) cfg_.max_mux = 1;
  for (size_t i = 0; i < cfg_.connections; ++i) {
    auto c = std::make_unique<Conn>();
    c->self = this;
    c->index = i;
    conns_.push_back(std::move(c));
  }
}

ConnectionPool::~ConnectionPool() {
  for (auto& c : conns_) {
    if (c->sock != nullptr) {
      c->sock->on_connected = nullptr;
      c->sock->on_readable = nullptr;
      c->sock->on_send_space = nullptr;
      c->sock->on_closed = nullptr;
    }
    if (c->reconnect) c->reconnect->cancel();
  }
}

void ConnectionPool::start() {
  if (started_) return;
  started_ = true;
  for (auto& c : conns_) dial(*c);
}

void ConnectionPool::stop() {
  stopped_ = true;
  for (auto& c : conns_) {
    if (c->reconnect) c->reconnect->cancel();
  }
}

void ConnectionPool::dial(Conn& c) {
  if (stopped_ || c.sock != nullptr) return;
  // Bind the preferred address if its interface is up, else the first
  // live one (same fallback as the legacy client pool).
  IpAddr addr = local_addr_;
  if (!factory_.host().interface_up(addr)) {
    for (IpAddr a : factory_.host().addresses()) {
      if (factory_.host().interface_up(a)) {
        addr = a;
        break;
      }
    }
  }
  StreamSocket& s = factory_.connect(addr, server_);
  factory_.release_when_closed(s);
  c.sock = &s;
  c.connected = false;
  c.out_buf.clear();
  c.out_off = 0;
  c.reader = FrameReader{};
  Conn* raw = &c;
  c.reader.on_frame = [this, raw](const FrameHeader& h) {
    if (raw->pending.empty() || h.req_id != raw->pending.front().out.req_id) {
      // Responses must come back in request order; anything else means
      // the connection's framing is broken beyond recovery.
      fail_conn(*raw);
      return false;
    }
    if (h.kind == kFrameData) return true;  // payload counted below
    Pending p = std::move(raw->pending.front());
    raw->pending.pop_front();
    const bool rejected = h.kind == kFrameReject;
    finish(std::move(p), /*ok=*/!rejected && p.got == p.response_size,
           rejected);
    dispatch_queued();
    return true;
  };
  c.reader.on_payload = [raw](const FrameHeader&,
                              std::span<const uint8_t> view) {
    // Response bodies are pattern bytes; count and discard straight off
    // the zero-copy receive path.
    if (!raw->pending.empty()) raw->pending.front().got += view.size();
    return true;
  };
  s.on_connected = [this, raw] {
    raw->connected = true;
    flush_out(*raw);
    dispatch_queued();
  };
  s.on_readable = [this, raw] { on_conn_readable(*raw); };
  s.on_send_space = [this, raw] { flush_out(*raw); };
  s.on_closed = [this, raw] { on_conn_closed(*raw); };
}

void ConnectionPool::on_conn_readable(Conn& c) {
  if (c.sock != nullptr) c.reader.pump(*c.sock);
  // A FIN surfaces here as at_eof(), not through on_closed (which only
  // fires on full close/reset). The serving protocol never ends a
  // response with FIN, so EOF always means the server quit on us --
  // fail the connection over, whether or not requests were outstanding.
  if (c.sock != nullptr && c.sock->at_eof()) fail_conn(c);
}

void ConnectionPool::flush_out(Conn& c) {
  if (c.sock == nullptr || !c.connected) return;
  while (c.out_off < c.out_buf.size()) {
    const size_t n = c.sock->write(
        std::span<const uint8_t>(c.out_buf).subspan(c.out_off));
    if (n == 0) return;  // send buffer full; resume on send space
    c.out_off += n;
  }
  c.out_buf.clear();
  c.out_off = 0;
}

void ConnectionPool::assign(Conn& c, Pending&& p) {
  const std::vector<uint8_t> req = serving_encode_request(ServingRequest{
      p.out.req_id, p.response_size, cfg_.chunk_bytes, p.out.streaming});
  c.out_buf.insert(c.out_buf.end(), req.begin(), req.end());
  c.pending.push_back(std::move(p));
  flush_out(c);
}

ConnectionPool::Conn* ConnectionPool::pick_conn() {
  Conn* best = nullptr;
  for (auto& c : conns_) {
    if (c->sock == nullptr || !c->connected) continue;
    if (c->pending.size() >= cfg_.max_mux) continue;
    if (best == nullptr || c->pending.size() < best->pending.size()) {
      best = c.get();
    }
  }
  return best;
}

void ConnectionPool::dispatch_queued() {
  while (!queue_.empty()) {
    Conn* c = pick_conn();
    if (c == nullptr) return;
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    assign(*c, std::move(p));
  }
}

uint64_t ConnectionPool::submit(uint64_t response_size, bool streaming) {
  Pending p;
  p.out.req_id = next_req_id_++;
  p.out.issued_at = factory_.loop().now();
  p.out.streaming = streaming;
  p.response_size = response_size;
  const uint64_t id = p.out.req_id;
  if (Conn* c = pick_conn()) {
    assign(*c, std::move(p));
  } else {
    queue_.push_back(std::move(p));
  }
  return id;
}

void ConnectionPool::finish(Pending&& p, bool ok, bool rejected) {
  p.out.ok = ok;
  p.out.rejected = rejected;
  p.out.bytes = p.got;
  p.out.done_at = factory_.loop().now();
  if (ok) {
    ++completed_;
  } else if (rejected) {
    ++rejected_;
  } else {
    ++errors_;
  }
  if (on_done) on_done(p.out);
}

void ConnectionPool::fail_conn(Conn& c) {
  StreamSocket* s = c.sock;
  on_conn_closed(c);
  if (s != nullptr) s->close();
}

void ConnectionPool::on_conn_closed(Conn& c) {
  StreamSocket* s = c.sock;
  c.sock = nullptr;
  c.connected = false;
  if (s != nullptr) {
    s->on_connected = nullptr;
    s->on_readable = nullptr;
    s->on_send_space = nullptr;
    s->on_closed = nullptr;
  }
  c.out_buf.clear();
  c.out_off = 0;
  // The reader is NOT reset here: on_conn_closed can run from inside its
  // own frame callback (fail_conn), and reassigning a FrameReader whose
  // pump is live destroys the executing closure. dial() installs a fresh
  // reader before the connection is reused.

  // Fail outstanding requests over: each gets max_retries more attempts
  // through the pool queue (ahead of fresh submissions, preserving
  // rough issue order), then an error outcome.
  RingQueue<Pending> taken = std::move(c.pending);  // leaves it empty
  std::vector<Pending> retry;
  std::vector<Pending> dead;
  for (Pending& p : taken) {
    p.got = 0;  // a retried request streams its response from scratch
    if (p.out.retries < cfg_.max_retries) {
      ++p.out.retries;
      retry.push_back(std::move(p));
    } else {
      dead.push_back(std::move(p));
    }
  }
  for (auto it = retry.rbegin(); it != retry.rend(); ++it) {
    queue_.push_front(std::move(*it));
  }
  for (Pending& p : dead) finish(std::move(p), false, false);

  if (!stopped_ && started_) {
    if (!c.reconnect) {
      Conn* raw = &c;
      c.reconnect = std::make_unique<Timer>(factory_.loop(),
                                            [this, raw] { dial(*raw); });
    }
    c.reconnect->arm_in(cfg_.reconnect_delay);
  }
  dispatch_queued();
}

size_t ConnectionPool::inflight() const {
  size_t n = 0;
  for (const auto& c : conns_) n += c->pending.size();
  return n;
}

size_t ConnectionPool::connected_conns() const {
  size_t n = 0;
  for (const auto& c : conns_) {
    if (c->sock != nullptr && c->connected) ++n;
  }
  return n;
}

}  // namespace mptcp
