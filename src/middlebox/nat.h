// Network address (and port) translation.
//
// The canonical reason the classical 5-tuple cannot identify an MPTCP
// connection (section 3.2): each subflow may be rewritten differently, so
// MPTCP matches subflows to connections by token, never by address. The
// NAT here rewrites the client's source endpoint to a public address with
// a per-flow port, and reverses the mapping for return traffic.
#pragma once

#include <unordered_map>

#include "middlebox/middlebox.h"

namespace mptcp {

class Nat final : public DuplexMiddlebox {
 public:
  /// Traffic leaving through the NAT gets `public_addr` and a fresh port.
  explicit Nat(IpAddr public_addr, Port first_port = 20000)
      : public_addr_(public_addr), next_port_(first_port) {}

  IpAddr public_addr() const { return public_addr_; }
  size_t mappings() const { return out_map_.size(); }

  /// Models a NAT reboot or mapping timeout mid-connection: every binding
  /// is forgotten. In-flight return traffic to the old public ports is
  /// dropped; the next outbound packet of each flow is remapped to a
  /// fresh port, so it reaches the peer from an endpoint it has never
  /// seen -- the section 3.2 reason subflows match by token, and the
  /// trigger for re-establishing affected subflows.
  void rebind() {
    out_map_.clear();
    in_map_.clear();
  }

 protected:
  void on_forward(TcpSegment seg) override;
  void on_reverse(TcpSegment seg) override;

 private:
  IpAddr public_addr_;
  Port next_port_;
  std::unordered_map<Endpoint, Endpoint> out_map_;  ///< private -> public
  std::unordered_map<Endpoint, Endpoint> in_map_;   ///< public -> private
};

}  // namespace mptcp
