#include "core/path_manager.h"

#include "core/mptcp_connection.h"
#include "core/mptcp_stack.h"

namespace mptcp {

uint8_t PathManager::local_addr_id(IpAddr addr) const {
  uint8_t addr_id = 0;
  const auto addrs = conn_.stack().host().addresses();
  for (size_t i = 0; i < addrs.size(); ++i) {
    if (addrs[i] == addr) addr_id = static_cast<uint8_t>(i);
  }
  return addr_id;
}

void PathManager::on_peer_confirmed(MptcpSubflow* initial) {
  // Advertise our additional addresses so a NATted client can open
  // subflows toward them (section 3.2: the explicit path).
  const auto addrs = conn_.stack().host().addresses();
  if (addrs.size() > 1) {
    for (size_t i = 0; i < addrs.size(); ++i) {
      if (addrs[i] == initial->local().addr) continue;
      AddAddrOption add;
      add.addr_id = static_cast<uint8_t>(i);
      add.addr = addrs[i];
      add.port = initial->local().port;
      initial->queue_control_option(add);
    }
    initial->flush_control_options();
  }
}

void PathManager::on_subflow_established(MptcpSubflow* sf) {
  if (sf->is_initial() && conn_.role() == MptcpConnection::Role::kClient &&
      conn_.mode() == MptcpMode::kMptcp && conn_.config().full_mesh) {
    // Open a subflow from every additional local address (section 3.2:
    // the implicit, client-initiated path).
    for (IpAddr addr : conn_.stack().host().addresses()) {
      if (addr == sf->local().addr) continue;
      conn_.open_subflow(addr, sf->remote());
    }
  }
}

void PathManager::on_add_addr(MptcpSubflow* sf, const AddAddrOption& opt) {
  if (conn_.role() != MptcpConnection::Role::kClient ||
      !conn_.config().full_mesh || conn_.mode() != MptcpMode::kMptcp) {
    return;
  }
  // Open a subflow from each local address to the advertised one.
  for (size_t i = 0; i < conn_.subflow_count(); ++i) {
    if (conn_.subflow(i)->remote().addr == opt.addr) {
      return;  // already connected there
    }
  }
  // RFC 6824 section 3.4.1: without a port, use the one of the subflow
  // the ADD_ADDR arrived on.
  const Port port = opt.port ? *opt.port : sf->remote().port;
  for (IpAddr addr : conn_.stack().host().addresses()) {
    conn_.open_subflow(addr, Endpoint{opt.addr, port});
  }
}

void PathManager::on_remove_addr(uint8_t addr_id) {
  // Close subflows whose peer address id matches (section 3.4).
  for (size_t i = 0; i < conn_.subflow_count(); ++i) {
    MptcpSubflow* sf = conn_.subflow(i);
    if (sf->state() == TcpState::kClosed) continue;
    if (sf->peer_addr_id() == addr_id && !sf->is_initial()) sf->abort();
  }
}

void PathManager::on_mp_prio(MptcpSubflow* sf, const MpPrioOption& opt) {
  // The peer asks us to change our *sending* priority: for the subflow
  // carrying the option, or for all subflows toward one of its addresses.
  if (opt.addr_id) {
    for (size_t i = 0; i < conn_.subflow_count(); ++i) {
      MptcpSubflow* s = conn_.subflow(i);
      if (s->peer_addr_id() == *opt.addr_id) s->set_backup(opt.backup);
    }
  } else {
    sf->set_backup(opt.backup);
  }
  conn_.schedule();
}

void PathManager::set_subflow_backup(size_t i, bool backup) {
  MptcpSubflow* sf = conn_.subflow(i);
  if (sf == nullptr) return;
  sf->set_backup(backup);
  if (sf->can_send_ack()) {
    sf->queue_control_option(MpPrioOption{backup, std::nullopt});
    sf->flush_control_options();
  }
}

void PathManager::remove_local_address(IpAddr addr) {
  // Tell the peer on a surviving subflow first, then drop local state.
  const uint8_t addr_id = local_addr_id(addr);
  MptcpSubflow* survivor = nullptr;
  for (size_t i = 0; i < conn_.subflow_count(); ++i) {
    MptcpSubflow* sf = conn_.subflow(i);
    if (sf->state() != TcpState::kClosed && sf->local().addr != addr) {
      survivor = sf;
      break;
    }
  }
  if (survivor != nullptr) {
    survivor->queue_control_option(RemoveAddrOption{addr_id});
    survivor->flush_control_options();
  }
  for (size_t i = 0; i < conn_.subflow_count(); ++i) {
    MptcpSubflow* sf = conn_.subflow(i);
    if (sf->state() != TcpState::kClosed && sf->local().addr == addr) {
      sf->abort();
    }
  }
}

}  // namespace mptcp
