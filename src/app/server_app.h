// The serving-stack server: persistent connections, pipelined requests,
// explicit overload behavior.
//
// Where the legacy HttpServer (http_app.h) answers one MPGET per
// connection and closes, ServerApp speaks the framed serving protocol
// (app/framing.h): each connection carries a pipeline of 32-byte
// requests, and responses stream back as length-prefixed frames in
// request order. That makes the *server* the place where production
// overload semantics live, all of them explicit and deterministic:
//
//  * accept bound: at most max_conns connections; extras are closed on
//    accept (conns_refused);
//  * pipeline bound: at most max_pipeline requests queued per
//    connection, and at most max_inflight admitted across the whole
//    server. Past either bound the server either answers a reject frame
//    -- the 503 path, counted per server -- or, in kDefer mode, simply
//    stops consuming request bytes: the receive queue fills, the
//    advertised window closes, and the transport itself backpressures
//    the client (deferred reads);
//  * service time: an optional per-request think time (fixed or
//    exponential) before the response starts streaming, so queueing
//    delay under load is modelled, not just wire time.
//
// Responses are pattern bytes (app/harness.h) in chunk_bytes-sized data
// frames. Requests are parsed off the zero-copy receive path: headers
// gathered with peek_copy(), bytes released with consume() -- a deferred
// connection's unread requests stay in the transport's receive queue,
// which is exactly what closes the window.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "app/framing.h"
#include "app/socket_factory.h"
#include "net/ring_queue.h"
#include "net/rng.h"
#include "sim/event_loop.h"

namespace mptcp {

/// Optional per-request service time, sampled before the response
/// starts streaming.
struct ServiceTimeModel {
  enum class Kind : uint8_t { kNone, kFixed, kExponential };
  Kind kind = Kind::kNone;
  SimTime mean = 0;
};

struct ServingConfig {
  /// Accept bound: connections beyond this are closed immediately
  /// (0 = unbounded).
  size_t max_conns = 0;
  /// Requests queued or in service per connection; the pipeline bound.
  size_t max_pipeline = 16;
  /// Requests admitted (queued or in service) across the whole server
  /// (0 = unbounded); the global admission cap.
  size_t max_inflight = 0;

  /// What happens to a request that arrives past a bound.
  enum class Overload : uint8_t {
    kReject,  ///< answer a reject frame (503) and move on
    kDefer,   ///< stop reading: the closing receive window backpressures
  };
  Overload overload = Overload::kReject;

  ServiceTimeModel service;
  uint64_t seed = 1;  ///< service-time sampling stream

  /// Response data-frame payload quantum when the request doesn't name
  /// its own chunk size.
  uint32_t chunk_bytes = 16 * 1024;
};

/// Serves the framed protocol on a port. All counters are exact and
/// deterministic; the workload engine samples them into the stats
/// registry for serving-mode classes.
class ServerApp {
 public:
  ServerApp(SocketFactory& factory, Port port, ServingConfig cfg);
  ~ServerApp();

  ServerApp(const ServerApp&) = delete;
  ServerApp& operator=(const ServerApp&) = delete;

  uint64_t requests_served() const { return served_; }
  uint64_t requests_rejected() const { return rejected_; }
  uint64_t conns_refused() const { return conns_refused_; }
  uint64_t conns_accepted() const { return conns_accepted_; }
  uint64_t bytes_served() const { return bytes_; }
  size_t inflight() const { return inflight_; }
  size_t peak_inflight() const { return peak_inflight_; }
  size_t open_conns() const { return conns_.size(); }

  /// Visits every open connection, in accept order.
  void for_each_conn(const std::function<void(StreamSocket&)>& fn);

 private:
  struct PendingReq {
    ServingRequest req;
    bool rejected = false;  ///< answered with a reject frame when due
  };

  struct Conn {
    ServerApp* self = nullptr;
    StreamSocket* sock = nullptr;
    RingQueue<PendingReq> pipeline;  ///< front = next to answer
    bool responding = false;       ///< the front response is streaming
    bool waiting_service = false;  ///< service-time timer armed
    uint64_t response_sent = 0;    ///< body bytes of the active response
    std::vector<uint8_t> frame_buf;  ///< staged frame being written
    size_t frame_off = 0;
    bool tail_sent_ = false;  ///< fin/reject frame staged for the front
    bool deferred = false;    ///< stopped reading at an admission bound
    bool dead = false;
    std::unique_ptr<Timer> service;  ///< pending service-time delay

    void parse_requests();
    void maybe_start_response();
    void pump_response();
    bool flush_frame();  ///< true when frame_buf fully written
    bool tail_staged() const { return tail_sent_; }
    void stage_tail(uint32_t kind, uint64_t req_id);
  };

  void accept(StreamSocket& c);
  void reap(Conn* conn);
  void finish_request(Conn& c, bool served);
  void resume_deferred();

  SocketFactory& factory_;
  ServingConfig cfg_;
  Rng service_rng_;
  std::vector<std::unique_ptr<Conn>> conns_;
  size_t inflight_ = 0;
  size_t peak_inflight_ = 0;
  uint64_t served_ = 0;
  uint64_t rejected_ = 0;
  uint64_t conns_refused_ = 0;
  uint64_t conns_accepted_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace mptcp
