#include "app/http_app.h"

#include <algorithm>

#include "app/framing.h"
#include "app/harness.h"

namespace mptcp {

std::vector<uint8_t> make_http_request(uint64_t response_size) {
  return mpget_encode(response_size);
}

// ---------------------------------------------------------------------------
// HttpServer
// ---------------------------------------------------------------------------

HttpServer::HttpServer(SocketFactory& factory, Port port)
    : factory_(factory) {
  factory_.listen(port, [this](StreamSocket& c) { accept(c); });
}

void HttpServer::accept(StreamSocket& c) {
  factory_.release_when_closed(c);
  auto conn = std::make_unique<Conn>();
  conn->self = this;
  conn->sock = &c;
  Conn* raw = conn.get();
  conns_.push_back(std::move(conn));
  c.on_readable = [raw] { raw->on_readable(); };
  c.on_send_space = [raw] { raw->pump_response(); };
  c.on_closed = [this, raw] { reap(raw); };
}

void HttpServer::Conn::on_readable() {
  // Everything readable is read, so the receive window keeps moving, but
  // only the request itself is kept: trailing bytes are dropped. Bytes
  // that arrive after the response is queued and the send side closed
  // reset the connection, as Linux resets a closed socket that receives
  // data, so a peer cannot keep it alive by sending.
  uint8_t buf[256];
  for (;;) {
    const size_t n = sock->read(buf);
    if (n == 0) break;
    if (closed_sent) {
      sock->abort();  // on_closed reaps this Conn: touch nothing after
      return;
    }
    const size_t keep = std::min(n, request.size() - request_len);
    std::copy_n(buf, keep, request.begin() + request_len);
    request_len += keep;
  }
  if (!responding && request_len == request.size()) {
    responding = true;
    response_size = mpget_decode_size(request);
    pump_response();
  }
}

void HttpServer::Conn::pump_response() {
  if (!responding || closed_sent) return;
  while (response_sent < response_size) {
    const size_t chunk = static_cast<size_t>(
        std::min<uint64_t>(16 * 1024, response_size - response_sent));
    const size_t n = sock->write_shared(
        pattern_payload(response_sent, std::min(chunk, sock->send_space())));
    response_sent += n;
    self->bytes_ += n;
    if (n < chunk) return;  // buffer full; resume on send space
  }
  closed_sent = true;
  ++self->served_;
  if (self->on_conn_done) self->on_conn_done(*sock);
  sock->close();
}

void HttpServer::for_each_conn(
    const std::function<void(StreamSocket&)>& fn) {
  for (const auto& c : conns_) {
    if (c->sock != nullptr && !c->closed_sent) fn(*c->sock);
  }
}

void HttpServer::reap(Conn* conn) {
  // The socket is released a fresh event later: detach first, so
  // nothing that still fires on it reaches the freed Conn.
  conn->sock->on_readable = nullptr;
  conn->sock->on_send_space = nullptr;
  std::erase_if(conns_, [conn](const std::unique_ptr<Conn>& c) {
    return c.get() == conn;
  });
}

// ---------------------------------------------------------------------------
// HttpClientPool
// ---------------------------------------------------------------------------

HttpClientPool::HttpClientPool(SocketFactory& factory, IpAddr local_addr,
                               Endpoint server, size_t clients,
                               uint64_t response_size)
    : factory_(factory),
      local_addr_(local_addr),
      server_(server),
      response_size_(response_size) {
  for (size_t i = 0; i < clients; ++i) {
    auto c = std::make_unique<Client>();
    c->self = this;
    clients_.push_back(std::move(c));
  }
}

void HttpClientPool::start() {
  for (auto& c : clients_) start_request(*c);
}

void HttpClientPool::start_request(Client& c) {
  c.received = 0;
  c.done = false;
  // Bind the preferred address if its interface is up, else the first
  // live one (a real resolver/route lookup would do the same).
  IpAddr addr = local_addr_;
  if (!factory_.host().interface_up(addr)) {
    for (IpAddr a : factory_.host().addresses()) {
      if (factory_.host().interface_up(a)) {
        addr = a;
        break;
      }
    }
  }
  StreamSocket& conn = factory_.connect(addr, server_);
  factory_.release_when_closed(conn);
  c.sock = &conn;
  Client* raw = &c;
  conn.on_connected = [this, raw] {
    raw->sock->write(make_http_request(response_size_));
  };
  conn.on_readable = [this, raw] { on_client_readable(*raw); };
  conn.on_closed = [this, raw] {
    if (!raw->done) {
      // Connection died before the full response: count and retry.
      raw->done = true;
      ++errors_;
      raw->sock = nullptr;
      start_request(*raw);
    }
  };
}

void HttpClientPool::on_client_readable(Client& c) {
  // The client discards the response body, so consume() releases it
  // without copying. 16 KiB steps: the window-update cadence (and so the
  // packet trace) follows how much each call releases, and this matches
  // the historical read-loop quantum.
  for (;;) {
    const size_t n = std::min<size_t>(c.sock->readable_bytes(), 16 * 1024);
    if (n == 0) break;
    c.sock->consume(n);
    c.received += n;
  }
  if (!c.done && c.sock->at_eof()) {
    c.done = true;
    if (c.received == response_size_) {
      ++completed_;
    } else {
      ++errors_;
    }
    c.sock->close();
    StreamSocket* old = c.sock;
    c.sock = nullptr;
    old->on_readable = nullptr;
    old->on_closed = nullptr;
    old->on_connected = nullptr;
    start_request(c);
  }
}

}  // namespace mptcp
