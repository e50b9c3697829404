#include "app/harness.h"

#include <algorithm>
#include <cstring>

namespace mptcp {

namespace {

LinkConfig make_link(double rate_bps, SimTime one_way, SimTime buffer_delay,
                     double loss, uint64_t seed) {
  LinkConfig cfg;
  cfg.rate_bps = rate_bps;
  cfg.prop_delay = one_way;
  cfg.buffer_bytes =
      std::max<size_t>(LinkConfig::buffer_for_delay(rate_bps, buffer_delay),
                       3000);  // at least two full-size frames
  cfg.loss_prob = loss;
  cfg.loss_seed = seed;
  return cfg;
}

}  // namespace

PathSpec wifi_path() {
  PathSpec s;
  s.name = "wifi";
  s.up = make_link(8e6, 10 * kMillisecond, 80 * kMillisecond, 0.0, 11);
  s.down = make_link(8e6, 10 * kMillisecond, 80 * kMillisecond, 0.0, 12);
  return s;
}

PathSpec threeg_path() {
  PathSpec s;
  s.name = "3g";
  s.up = make_link(2e6, 75 * kMillisecond, 2 * kSecond, 0.0, 21);
  s.down = make_link(2e6, 75 * kMillisecond, 2 * kSecond, 0.0, 22);
  return s;
}

PathSpec weak_threeg_path(double loss) {
  PathSpec s;
  s.name = "weak-3g";
  s.up = make_link(50e3, 75 * kMillisecond, 2 * kSecond, loss, 31);
  s.down = make_link(50e3, 75 * kMillisecond, 2 * kSecond, loss, 32);
  return s;
}

PathSpec ethernet_path(double rate_bps, SimTime rtt, SimTime buffer_delay) {
  PathSpec s;
  s.name = "eth";
  s.up = make_link(rate_bps, rtt / 2, buffer_delay, 0.0, 41);
  s.down = make_link(rate_bps, rtt / 2, buffer_delay, 0.0, 42);
  return s;
}

PathSpec capped_wifi_path() {
  PathSpec s;
  s.name = "capped-wifi";
  s.up = make_link(2e6, 10 * kMillisecond, 100 * kMillisecond, 0.0, 51);
  s.down = make_link(2e6, 10 * kMillisecond, 100 * kMillisecond, 0.0, 52);
  return s;
}

PathSpec capped_threeg_path(double loss) {
  PathSpec s;
  s.name = "capped-3g";
  s.up = make_link(2e6, 75 * kMillisecond, 2 * kSecond, loss, 61);
  s.down = make_link(2e6, 75 * kMillisecond, 2 * kSecond, loss, 62);
  return s;
}

TwoHostRig::TwoHostRig(uint64_t seed)
    : client_(loop_, "client"), server_(loop_, "server"), seed_(seed) {
  server_.add_interface(server_addr_, &server_out_);
  net_.attach(server_addr_, &server_);
}

size_t TwoHostRig::add_path(const PathSpec& spec) {
  const size_t idx = paths_.size();
  Path p;
  p.client_addr = IpAddr(10, 0, static_cast<uint8_t>(idx), 2);

  LinkConfig up_cfg = spec.up;
  LinkConfig down_cfg = spec.down;
  up_cfg.loss_seed ^= seed_ * 0x9e37;
  down_cfg.loss_seed ^= seed_ * 0x79b9;

  p.up = std::make_unique<Link>(loop_, up_cfg, spec.name + "-up");
  p.down = std::make_unique<Link>(loop_, down_cfg, spec.name + "-down");
  p.up->set_target(&net_);
  p.down->set_target(&net_);

  client_.add_interface(p.client_addr, p.up.get());
  net_.attach(p.client_addr, &client_);
  server_out_.add_route(p.client_addr, p.down.get());

  paths_.push_back(std::move(p));
  return idx;
}

void TwoHostRig::splice_up(size_t i, Middlebox& element) {
  element.set_downstream(paths_[i].up->target());
  paths_[i].up->set_target(&element);
}

void TwoHostRig::splice_down(size_t i, Middlebox& element) {
  element.set_downstream(paths_[i].down->target());
  paths_[i].down->set_target(&element);
}

void TwoHostRig::set_path_up(size_t i, bool up) {
  client_.set_interface_up(paths_[i].client_addr, up);
  paths_[i].up->set_up(up);
  paths_[i].down->set_up(up);
}

namespace {

void generate_pattern(uint64_t offset, std::span<uint8_t> out) {
  for (size_t i = 0; i < out.size(); ++i) out[i] = pattern_byte(offset + i);
}

/// Built on first use (thread-safe static initialization) and frozen, so
/// any shard's thread may take views of it.
const Payload& pattern_tape() {
  static const Payload tape = [] {
    Payload p = Payload::uninitialized(kPatternTapeBytes);
    generate_pattern(0, {p.mutable_data(), kPatternTapeBytes});
    p.freeze();
    return p;
  }();
  return tape;
}

}  // namespace

void fill_pattern(uint64_t offset, std::span<uint8_t> out) {
  size_t taped = 0;
  if (offset < kPatternTapeBytes && !out.empty()) {
    taped = std::min<size_t>(out.size(), kPatternTapeBytes - offset);
    std::memcpy(out.data(), pattern_tape().data() + offset, taped);
  }
  generate_pattern(offset + taped, out.subspan(taped));
}

Payload pattern_payload(uint64_t offset, size_t n) {
  if (offset <= kPatternTapeBytes && n <= kPatternTapeBytes - offset) {
    return pattern_tape().subview(offset, n);
  }
  Payload out = Payload::uninitialized(n);
  fill_pattern(offset, {out.mutable_data(), n});
  return out;
}

}  // namespace mptcp
