// Legacy closed-loop HTTP-like workload (Fig. 11: apachebench against
// Apache) -- the connection-per-transfer compatibility layer.
//
// N concurrent clients each run request/response transactions in a closed
// loop: open a connection, send a small fixed-size request naming the
// response size, read the response to EOF, open the next connection.
// Requests/second is the figure of merit. The same code drives MPTCP,
// fallback-TCP, plain TCP and TCP-over-bonding servers: both sides are
// written against StreamSocket only and obtain sockets from a
// SocketFactory, which decides the transport.
//
// This layer is wire-frozen: several determinism digests (pingpong,
// capacity, fleet) pin its exact packet streams, so its MPGET codec now
// lives in app/framing.h and its 16 KiB write/consume quanta must not
// change. New workloads should use the layered serving stack instead --
// framing.h (length-prefixed frames) + server_app.h (overload-aware
// pipelined server) + client_pool.h (persistent connections with request
// multiplexing) -- which supports open-loop load without burning a
// connection per transfer.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "app/socket_factory.h"

namespace mptcp {

/// Wire format of a request: magic + big-endian response size.
inline constexpr size_t kHttpRequestSize = 16;

/// Serves MPGET requests on a port: reads the 16-byte request, streams the
/// named number of pattern bytes back, closes. Bytes a peer sends after
/// its request are read and dropped. Connections are released to the
/// factory when they finish, so the server sustains open-ended churn.
class HttpServer {
 public:
  HttpServer(SocketFactory& factory, Port port);

  uint64_t requests_served() const { return served_; }
  uint64_t bytes_served() const { return bytes_; }

  /// Invoked with each connection just before the server closes it (the
  /// response is fully written). The server is the data *sender*, so its
  /// transport state -- congestion-control caps, autotune growth -- is
  /// only observable here or via for_each_conn before teardown.
  std::function<void(StreamSocket&)> on_conn_done;

  /// Visits every still-open server-side connection, in accept order.
  void for_each_conn(const std::function<void(StreamSocket&)>& fn);

 private:
  struct Conn {
    HttpServer* self = nullptr;
    StreamSocket* sock = nullptr;
    std::array<uint8_t, kHttpRequestSize> request{};
    size_t request_len = 0;  ///< request bytes received so far
    uint64_t response_size = 0;
    uint64_t response_sent = 0;
    bool responding = false;
    bool closed_sent = false;

    void on_readable();
    void pump_response();
  };

  void accept(StreamSocket& c);
  void reap(Conn* conn);

  SocketFactory& factory_;
  std::vector<std::unique_ptr<Conn>> conns_;
  uint64_t served_ = 0;
  uint64_t bytes_ = 0;
};

class HttpClientPool {
 public:
  /// `local_addr`: the address new connections bind (subflows may join
  /// from the host's other addresses automatically when MPTCP is on).
  HttpClientPool(SocketFactory& factory, IpAddr local_addr, Endpoint server,
                 size_t clients, uint64_t response_size);

  void start();
  uint64_t completed() const { return completed_; }
  uint64_t errors() const { return errors_; }

 private:
  struct Client {
    HttpClientPool* self = nullptr;
    StreamSocket* sock = nullptr;
    uint64_t received = 0;
    bool done = false;
  };

  void start_request(Client& c);
  void on_client_readable(Client& c);

  SocketFactory& factory_;
  IpAddr local_addr_;
  Endpoint server_;
  uint64_t response_size_;
  std::vector<std::unique_ptr<Client>> clients_;
  uint64_t completed_ = 0;
  uint64_t errors_ = 0;
};

/// Builds the 16-byte MPGET request asking for `response_size` bytes
/// (shared by HttpClientPool and the workload engine).
std::vector<uint8_t> make_http_request(uint64_t response_size);

}  // namespace mptcp
