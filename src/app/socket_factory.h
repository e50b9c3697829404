// The transport switchboard: one object that hands out StreamSockets and
// hides whether they are plain TCP or MPTCP underneath.
//
// This is the deployability story of the paper (section 2) applied to our
// own application layer: workloads (bulk transfers, HTTP, the capacity
// engine) are written against StreamSocket only, and a TransportConfig
// decides per experiment which transport -- and which MPTCP subflow
// policy -- backs them. No app-layer code names TcpConnection or
// MptcpConnection.
//
// Lifetime: the factory owns every socket it creates (client and
// accepted). Long-lived experiment sockets just live until the factory
// dies; churn workloads call release_when_closed() so a socket frees its
// memory and its stats-registry scope as soon as it is fully closed.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/mptcp_stack.h"
#include "tcp/tcp_connection.h"

namespace mptcp {

enum class TransportKind : uint8_t { kTcp, kMptcp };

struct TransportConfig {
  TransportKind kind = TransportKind::kMptcp;
  /// Full transport tuning. `mptcp.tcp` doubles as the TcpConfig for
  /// kTcp sockets, so one struct configures either transport (and the
  /// MPTCP fields -- full_mesh, scheduler, cc_algo, buffers -- are the
  /// per-class subflow policy knobs).
  MptcpConfig mptcp;

  /// Sets both the per-subflow TCP buffers and the MPTCP meta buffers to
  /// `snd`/`rcv` bytes -- the serving benchmarks size client and server
  /// buffers per class without spelling out four fields each time.
  TransportConfig& with_buffers(size_t snd, size_t rcv) {
    mptcp.tcp.snd_buf_max = snd;
    mptcp.tcp.rcv_buf_max = rcv;
    mptcp.meta_snd_buf_max = snd;
    mptcp.meta_rcv_buf_max = rcv;
    return *this;
  }
};

class SocketFactory {
 public:
  SocketFactory(Host& host, TransportConfig config);
  ~SocketFactory();

  SocketFactory(const SocketFactory&) = delete;
  SocketFactory& operator=(const SocketFactory&) = delete;

  Host& host() { return host_; }
  EventLoop& loop() { return host_.loop(); }
  TransportKind kind() const { return config_.kind; }
  const TransportConfig& config() const { return config_; }

  /// Active open from `local_addr` (an address of this host, chosen by the
  /// caller -- this is what pins MPTCP's first subflow to a path) to
  /// `remote`. The factory owns the socket.
  StreamSocket& connect(IpAddr local_addr, Endpoint remote);

  /// Passive open: every accepted connection is handed to the callback
  /// after its transport-level accept. The factory owns accepted sockets.
  using AcceptCallback = std::function<void(StreamSocket&)>;
  void listen(Port port, AcceptCallback cb);

  /// Marks `s` for destruction once it is fully closed (or immediately if
  /// it already is). Destruction is deferred to a fresh event, so calling
  /// this from the socket's own callbacks is safe. After the socket
  /// closes, every reference to it is dead -- the churn contract.
  void release_when_closed(StreamSocket& s);

  /// Sockets currently owned (released sockets leave on close).
  size_t live_sockets() const;

  /// Typed escape hatches for experiments that read transport internals
  /// (subflow counts, cwnd, ...); null when `s` is not that transport.
  MptcpConnection* as_mptcp(StreamSocket& s);
  TcpConnection* as_tcp(StreamSocket& s);
  /// The backing MPTCP stack (null for kTcp factories).
  MptcpStack* mptcp_stack() { return mptcp_ ? mptcp_.get() : nullptr; }

 private:
  /// A factory-owned plain TCP connection: reuses the base class's
  /// close hook to trigger deferred destruction, mirroring
  /// MptcpConnection::set_auto_destroy().
  class OwnedTcp final : public TcpConnection {
   public:
    OwnedTcp(SocketFactory& factory, Endpoint local, Endpoint remote)
        : TcpConnection(factory.host_, factory.config_.mptcp.tcp, local,
                        remote),
          factory_(factory) {}

    void release_on_close() {
      release_ = true;
      if (closed_) factory_.destroy_tcp_later(this);
    }

   protected:
    void on_connection_closed(bool reset) override {
      TcpConnection::on_connection_closed(reset);
      closed_ = true;
      if (release_) factory_.destroy_tcp_later(this);
    }

   private:
    SocketFactory& factory_;
    bool release_ = false;
    bool closed_ = false;
  };

  void destroy_tcp_later(OwnedTcp* conn);

  Host& host_;
  TransportConfig config_;
  std::unique_ptr<MptcpStack> mptcp_;  ///< set iff kind == kMptcp
  std::vector<std::unique_ptr<OwnedTcp>> tcp_conns_;
  std::vector<std::unique_ptr<TcpListener>> tcp_listeners_;
};

}  // namespace mptcp
