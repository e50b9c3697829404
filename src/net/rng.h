// Deterministic pseudo-random number generation (xoshiro256**).
//
// Every stochastic element in the simulator (link loss, key generation,
// workload think times) draws from an explicitly seeded Rng so that
// experiments and tests are bit-for-bit reproducible.
#pragma once

#include <cmath>
#include <cstdint>

namespace mptcp {

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(uint64_t seed) {
    // splitmix64 expansion of the seed into the xoshiro state.
    uint64_t x = seed;
    for (auto& word : s_) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  uint64_t next_u64() {
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  uint32_t next_u32() { return static_cast<uint32_t>(next_u64() >> 32); }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound).
  uint64_t next_below(uint64_t bound) {
    return bound == 0 ? 0 : next_u64() % bound;
  }

  /// Bernoulli trial with probability p.
  bool chance(double p) { return next_double() < p; }

  /// Exponentially distributed value with the given mean.
  double next_exponential(double mean) {
    return -mean * std::log(1.0 - next_double());
  }

 private:
  static constexpr uint64_t rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

}  // namespace mptcp
