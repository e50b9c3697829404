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
