// Key and token management (section 3.2 / 5.2 of the paper).
//
// Each MPTCP endpoint generates a random 64-bit key per connection and
// derives a 32-bit token (truncated SHA-1) that identifies the connection
// in MP_JOIN handshakes. The host-wide token table must be collision-free:
// connection setup verifies uniqueness and regenerates on collision, which
// is exactly the work measured by the Fig. 10 latency experiment.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "net/ring_queue.h"
#include "net/rng.h"
#include "net/sha1.h"

namespace mptcp {

class MptcpConnection;

/// Host-wide registry of live connection tokens.
class TokenTable {
 public:
  explicit TokenTable(uint64_t seed = 7) : rng_(seed) {}

  struct KeyToken {
    uint64_t key;
    uint32_t token;
    uint64_t idsn;
  };

  /// Generates a fresh key whose token does not collide with any live
  /// connection, registers it, and returns key+token+IDSN. This is the
  /// server's SYN-processing hot path (Fig. 10).
  KeyToken generate_and_register(MptcpConnection* owner);

  /// Registers an externally chosen key (e.g. deterministic tests).
  /// Returns false on token collision.
  bool register_key(uint64_t key, MptcpConnection* owner);

  void unregister(uint32_t token) { table_.erase(token); }

  /// MP_JOIN routing: find the connection owning a token.
  MptcpConnection* find(uint32_t token) const {
    auto it = table_.find(token);
    return it == table_.end() ? nullptr : it->second;
  }

  size_t size() const { return table_.size(); }
  Rng& rng() { return rng_; }

  /// Section 5.2's proposed optimization: precompute keys (and their
  /// SHA-1 derivations) off the SYN-processing hot path. A pooled key is
  /// still uniqueness-checked at use -- one hash-table lookup -- since
  /// the table may have changed since the pool was filled.
  void prefill_pool(size_t n) {
    while (pool_.size() < n) {
      const uint64_t key = rng_.next_u64();
      if (key == 0) continue;
      pool_.push_back(
          KeyToken{key, mptcp_token_from_key(key), mptcp_idsn_from_key(key)});
    }
  }
  size_t pool_size() const { return pool_.size(); }

 private:
  Rng rng_;
  std::unordered_map<uint32_t, MptcpConnection*> table_;
  RingQueue<KeyToken> pool_;
};

}  // namespace mptcp
