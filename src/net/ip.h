// Basic network-layer identifiers used throughout the library.
//
// The simulator is IPv4-shaped: an address is 32 bits and a flow is
// identified by the classic 4-tuple. Middleboxes (NATs in particular)
// rewrite these fields, which is why connections must never rely on the
// tuple alone for identity -- that is one of the core lessons of the paper.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

namespace mptcp {

/// A 32-bit IPv4-style address. Value 0 means "unspecified".
struct IpAddr {
  uint32_t value = 0;

  constexpr IpAddr() = default;
  constexpr explicit IpAddr(uint32_t v) : value(v) {}
  /// Builds an address from dotted-quad components, e.g. IpAddr(10,0,0,1).
  constexpr IpAddr(uint8_t a, uint8_t b, uint8_t c, uint8_t d)
      : value((uint32_t{a} << 24) | (uint32_t{b} << 16) | (uint32_t{c} << 8) |
              uint32_t{d}) {}

  friend constexpr bool operator==(IpAddr x, IpAddr y) {
    return x.value == y.value;
  }
  friend constexpr bool operator!=(IpAddr x, IpAddr y) {
    return x.value != y.value;
  }
  friend constexpr bool operator<(IpAddr x, IpAddr y) {
    return x.value < y.value;
  }

  std::string str() const {
    return std::to_string((value >> 24) & 0xff) + "." +
           std::to_string((value >> 16) & 0xff) + "." +
           std::to_string((value >> 8) & 0xff) + "." +
           std::to_string(value & 0xff);
  }
};

using Port = uint16_t;

/// An addressed endpoint (address + port).
struct Endpoint {
  IpAddr addr;
  Port port = 0;

  friend constexpr bool operator==(const Endpoint& a, const Endpoint& b) {
    return a.addr == b.addr && a.port == b.port;
  }
  friend constexpr bool operator!=(const Endpoint& a, const Endpoint& b) {
    return !(a == b);
  }
  friend constexpr bool operator<(const Endpoint& a, const Endpoint& b) {
    if (a.addr != b.addr) return a.addr < b.addr;
    return a.port < b.port;
  }

  std::string str() const { return addr.str() + ":" + std::to_string(port); }
};

/// The classic TCP 4-tuple, from the point of view of the segment
/// (src = sender of the segment).
struct FourTuple {
  Endpoint src;
  Endpoint dst;

  /// The same flow seen from the other direction.
  constexpr FourTuple reversed() const { return FourTuple{dst, src}; }

  friend constexpr bool operator==(const FourTuple& a, const FourTuple& b) {
    return a.src == b.src && a.dst == b.dst;
  }
  friend constexpr bool operator!=(const FourTuple& a, const FourTuple& b) {
    return !(a == b);
  }
  friend constexpr bool operator<(const FourTuple& a, const FourTuple& b) {
    if (a.src != b.src) return a.src < b.src;
    return a.dst < b.dst;
  }

  std::string str() const { return src.str() + "->" + dst.str(); }
};

}  // namespace mptcp

namespace std {
template <>
struct hash<mptcp::IpAddr> {
  size_t operator()(mptcp::IpAddr a) const noexcept {
    return hash<uint32_t>{}(a.value);
  }
};
template <>
struct hash<mptcp::Endpoint> {
  size_t operator()(const mptcp::Endpoint& e) const noexcept {
    return hash<uint64_t>{}((uint64_t{e.addr.value} << 16) ^ e.port);
  }
};
template <>
struct hash<mptcp::FourTuple> {
  size_t operator()(const mptcp::FourTuple& t) const noexcept {
    uint64_t a = (uint64_t{t.src.addr.value} << 32) | t.dst.addr.value;
    uint64_t b = (uint64_t{t.src.port} << 16) | t.dst.port;
    // 64-bit mix (splitmix64 finalizer).
    uint64_t x = a ^ (b * 0x9e3779b97f4a7c15ULL);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};
}  // namespace std
