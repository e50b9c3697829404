// Path management: which subflows exist, over which address pairs, at
// what priority (sections 3.2 and 3.4 of the paper).
//
// Everything about the *set of paths* lives here, pulled out of the
// connection so the data path (scheduling, buffers, DATA_ACK machinery)
// does not interleave with address bookkeeping:
//   * server-side ADD_ADDR advertisement once MPTCP is confirmed (the
//     explicit path of section 3.2, for NATted clients),
//   * client-side full-mesh subflow creation -- from every additional
//     local address when the initial subflow establishes, and toward
//     every ADD_ADDR-advertised remote address,
//   * REMOVE_ADDR handling and the local-address-loss sequence
//     (advertise on a survivor first, then abort the dead subflows --
//     the mobility story of section 3.4),
//   * MP_PRIO priority state, both peer-requested and locally set.
//
// The connection wires its subflow events through to these hooks and is
// otherwise out of the path-management business; PathManager drives the
// connection only through its public API (open_subflow, subflow
// iteration, schedule).
#pragma once

#include <cstdint>

#include "net/ip.h"
#include "net/options.h"

namespace mptcp {

class MptcpConnection;
class MptcpSubflow;

class PathManager {
 public:
  explicit PathManager(MptcpConnection& conn) : conn_(conn) {}

  PathManager(const PathManager&) = delete;
  PathManager& operator=(const PathManager&) = delete;

  // --- application-facing ----------------------------------------------------
  /// Signals loss of a local address: tells the peer on a surviving
  /// subflow (REMOVE_ADDR), then aborts the address's subflows.
  void remove_local_address(IpAddr addr);
  /// Marks subflow `i` as backup (or primary) for our own scheduling and
  /// asks the peer to mirror it (MP_PRIO).
  void set_subflow_backup(size_t i, bool backup);

  // --- wired from subflow events by the connection ---------------------------
  /// Server side, MPTCP just confirmed on the `initial` subflow:
  /// advertise our additional addresses (ADD_ADDR) on it so a NATted
  /// client can open subflows to them.
  void on_peer_confirmed(MptcpSubflow* initial);
  /// A subflow finished its handshake; if it is the client's initial
  /// subflow, open the full mesh from our additional local addresses.
  void on_subflow_established(MptcpSubflow* sf);
  /// Peer advertised an additional address on subflow `sf`: connect to
  /// it from every local address (client side, full-mesh policy).
  void on_add_addr(MptcpSubflow* sf, const AddAddrOption& opt);
  /// Peer declared an address dead: abort the subflows using it.
  void on_remove_addr(uint8_t addr_id);
  /// Peer asked us to change our sending priority for a subflow (or for
  /// all subflows toward one of its addresses).
  void on_mp_prio(MptcpSubflow* sf, const MpPrioOption& opt);

  /// The id of `addr` in the local address list (ADD_ADDR/REMOVE_ADDR
  /// address ids index that list); 0 when the address is unknown.
  uint8_t local_addr_id(IpAddr addr) const;

 private:
  MptcpConnection& conn_;
};

}  // namespace mptcp
