// The serving-stack client: a pool of persistent connections with
// request multiplexing.
//
// Where HttpClientPool (http_app.h) burns one connection per transfer,
// ConnectionPool keeps a fixed set of persistent connections to one
// server and multiplexes framed requests over them: submit() picks the
// least-loaded connection with spare mux capacity (lowest index on
// ties), writes a 32-byte serving request, and parses the in-order
// framed responses with a FrameReader -- response bodies are discarded
// straight off the zero-copy receive path. Requests past every
// connection's mux limit wait in a pool-wide FIFO.
//
// Failure handling is explicit and bounded: a connection that dies (or
// misbehaves -- response frames must echo the oldest outstanding req_id)
// fails over its outstanding requests to the retry queue (at most
// max_retries attempts each, then an error outcome) and reconnects
// after a fixed delay, unless the pool has been stop()ped. Outcomes --
// ok / rejected-by-server / error, with issue and completion times that
// include queueing delay -- are delivered through on_done, which is
// where the workload engine's open-loop FCT tracking hangs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "app/framing.h"
#include "app/socket_factory.h"
#include "net/ring_queue.h"

namespace mptcp {

struct PoolConfig {
  /// Persistent connections kept to the server.
  size_t connections = 2;
  /// Requests outstanding per connection before spilling to the queue.
  size_t max_mux = 4;
  /// Server data-frame payload quantum requested per request.
  uint32_t chunk_bytes = 16 * 1024;
  /// Attempts per request beyond the first (connection-death failover).
  size_t max_retries = 1;
  /// Fixed backoff before a dead connection is re-dialled.
  SimTime reconnect_delay = 10 * kMillisecond;
};

/// What became of one submitted request. Exactly one of ok / rejected /
/// neither (error) holds; done_at - issued_at is the request FCT
/// *including* pool queueing delay, which is the number an open-loop
/// latency SLO is written against.
struct RequestOutcome {
  uint64_t req_id = 0;
  bool ok = false;        ///< full response received (fin frame, size match)
  bool rejected = false;  ///< server answered a reject frame (503)
  bool streaming = false; ///< echoes the request's streaming flag
  uint64_t bytes = 0;     ///< response payload bytes received
  SimTime issued_at = 0;  ///< submit() time
  SimTime done_at = 0;    ///< outcome time
  size_t retries = 0;     ///< failover attempts consumed
};

class ConnectionPool {
 public:
  /// `local_addr`: preferred bind address for the pool's connections
  /// (falls back to the host's first live interface, as HttpClientPool
  /// does).
  ConnectionPool(SocketFactory& factory, IpAddr local_addr, Endpoint server,
                 PoolConfig cfg);
  ~ConnectionPool();

  ConnectionPool(const ConnectionPool&) = delete;
  ConnectionPool& operator=(const ConnectionPool&) = delete;

  /// Dials the pool's connections. Callers stagger pools by calling this
  /// from their own timers; construction does not touch the network.
  void start();
  /// Stops reconnecting dead connections (outstanding requests still run
  /// to completion on live ones).
  void stop();

  /// Queues one request for `response_size` pattern bytes; returns its
  /// req_id. The outcome arrives via on_done exactly once.
  uint64_t submit(uint64_t response_size, bool streaming = false);

  /// Invoked once per submitted request, in completion order. Safe to
  /// submit() more requests from inside the callback.
  std::function<void(const RequestOutcome&)> on_done;

  uint64_t completed() const { return completed_; }
  uint64_t rejected() const { return rejected_; }
  uint64_t errors() const { return errors_; }
  uint64_t submitted() const { return next_req_id_; }
  /// Requests outstanding on connections (not counting the queue).
  size_t inflight() const;
  size_t queued() const { return queue_.size(); }
  size_t connected_conns() const;

 private:
  /// One submitted-but-unfinished request, owned by a connection's
  /// pending ring (front = oldest = next response) or the pool queue.
  struct Pending {
    RequestOutcome out;  ///< carries req_id / issued_at / retries
    uint64_t response_size = 0;
    uint64_t got = 0;  ///< payload bytes received this attempt
  };

  struct Conn {
    ConnectionPool* self = nullptr;
    size_t index = 0;
    StreamSocket* sock = nullptr;
    bool connected = false;
    FrameReader reader;
    RingQueue<Pending> pending;  ///< front = oldest outstanding
    std::vector<uint8_t> out_buf;  ///< staged unsent request bytes
    size_t out_off = 0;
    std::unique_ptr<Timer> reconnect;
  };

  void dial(Conn& c);
  void on_conn_closed(Conn& c);
  void on_conn_readable(Conn& c);
  void flush_out(Conn& c);
  void assign(Conn& c, Pending&& p);
  void dispatch_queued();
  Conn* pick_conn();
  void finish(Pending&& p, bool ok, bool rejected);
  void fail_conn(Conn& c);  ///< protocol error: drop the connection

  SocketFactory& factory_;
  IpAddr local_addr_;
  Endpoint server_;
  PoolConfig cfg_;
  std::vector<std::unique_ptr<Conn>> conns_;
  RingQueue<Pending> queue_;  ///< waiting for a connection slot
  uint64_t next_req_id_ = 0;
  uint64_t completed_ = 0;
  uint64_t rejected_ = 0;
  uint64_t errors_ = 0;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace mptcp
