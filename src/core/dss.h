// Data-sequence mapping bookkeeping and the DSS checksum.
//
// Mappings tie a run of *relative* subflow sequence numbers to data
// sequence numbers (section 3.3.4): relative, because 10% of paths rewrite
// initial sequence numbers; with-length, because TSO NICs copy a TCP
// option onto every split segment, so the option must be self-describing
// rather than per-packet.
//
// The DSS checksum (section 3.3.6) is the TCP-style 16-bit ones-complement
// sum over the mapped payload plus an MPTCP pseudo-header (dsn, relative
// ssn, length). It exists to detect content-modifying middleboxes (ALGs);
// on failure the subflow is reset (if others remain) or the connection
// falls back to plain TCP. The payload part of the sum is computed once
// and shared with the TCP checksum in a real stack; the Fig. 3 benchmark
// measures this cost through the same code path.
//
// Both ends keep their mappings in ssn order and drop them from the front,
// so neither allocates per mapping: the sender holds a RingQueue searched
// by binary search, whose storage is freed whenever it drains; the
// receiver, which releases each mapping as soon as it is delivered and so
// usually holds exactly one, keeps the lowest mapping inline and only
// those queued behind it (out-of-order arrivals, inserted by position) in
// a ring. feed() writes into an Output its caller keeps and reuses.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/checksum.h"
#include "net/payload.h"
#include "net/ring_queue.h"

namespace mptcp {

/// Computes the DSS checksum over a fully assembled mapping.
uint16_t dss_checksum(uint64_t dsn, uint32_t ssn_rel, uint16_t length,
                      std::span<const uint8_t> payload);

/// Same, but from a precomputed folded (non-inverted) payload sum --
/// the "compute the payload sum once" optimization.
uint16_t dss_checksum_from_partial(uint64_t dsn, uint32_t ssn_rel,
                                   uint16_t length, uint16_t payload_sum);

/// One mapping as tracked by either end. Sequence numbers here are
/// *absolute unwrapped subflow* sequence numbers (local bookkeeping);
/// ssn_rel() converts to the wire's ISN-relative form.
struct MappingRecord {
  uint64_t ssn_begin = 0;  ///< absolute subflow seq of first mapped byte
  uint32_t ssn_rel = 0;    ///< the wire's ISN-relative form (checksummed)
  uint64_t dsn = 0;
  uint32_t length = 0;
  std::optional<uint16_t> checksum;

  uint64_t ssn_end() const { return ssn_begin + length; }
  /// Maps an absolute subflow sequence to its data sequence number.
  uint64_t dsn_for(uint64_t ssn) const { return dsn + (ssn - ssn_begin); }
};

/// Sender side: mappings attached to bytes queued on one subflow, indexed
/// so that segment construction can find the mapping covering a range.
class SenderMappings {
 public:
  /// Records a mapping; mappings are added in ssn order, each beginning
  /// where the send buffer ends.
  void add(const MappingRecord& rec);

  /// The mapping containing subflow sequence `ssn`, or nullptr.
  const MappingRecord* find(uint64_t ssn) const;

  /// Drops mappings fully below `ssn` (subflow-acked; their data may still
  /// await DATA_ACK at the connection level, but the subflow will never
  /// retransmit them again).
  void release_below(uint64_t ssn);

  size_t size() const { return ring_.size(); }

 private:
  RingQueue<MappingRecord> ring_;  ///< sorted by ssn_begin
};

/// Receiver side: mappings learned from DSS options, plus incremental
/// checksum verification as the mapped bytes stream through in subflow
/// order. When checksums are in use, a mapping's bytes are held back
/// until the whole mapping has been verified -- a modified mapping must be
/// *rejected*, not delivered (section 3.3.6).
class ReceiverMappings {
 public:
  /// Records a mapping (duplicates from TSO-split segments are ignored;
  /// a conflicting duplicate is rejected). Returns false on conflict.
  bool add(MappingRecord rec);

  /// Result of feeding in-order subflow bytes.
  struct Output {
    /// Data ready for the connection level: (dsn, bytes). The payloads
    /// are shared views of the fed bytes (zero-copy). A checksummed
    /// mapping that straddled segments is joined as its fragments
    /// arrive: still one shared view when they are consecutive views of
    /// one buffer (as the sender carved them), copied once only when
    /// they are not (say, a fragment an ALG rewrote).
    std::vector<std::pair<uint64_t, Payload>> deliver;
    /// Mappings whose checksum failed, with the (modified) bytes so the
    /// caller can decide between reject-and-reset and fallback-deliver.
    std::vector<std::pair<MappingRecord, Payload>> checksum_failures;
  };

  /// Feeds `bytes` of in-order subflow data starting at absolute subflow
  /// seq `ssn`, replacing the contents of `out` (whose vectors keep their
  /// capacity from call to call). Bytes with no covering mapping are
  /// dropped and counted (section 3.3.5: only mapped bytes are
  /// acknowledged at the data level).
  void feed(uint64_t ssn, const Payload& bytes, bool verify_checksums,
            Output& out);
  /// Same, into a fresh Output.
  Output feed(uint64_t ssn, const Payload& bytes, bool verify_checksums) {
    Output out;
    feed(ssn, bytes, verify_checksums, out);
    return out;
  }

  /// Drops mapping state fully below `ssn` (delivered).
  void release_below(uint64_t ssn);

  size_t size() const { return (front_ ? 1 : 0) + rest_.size(); }
  uint64_t unmapped_bytes() const { return unmapped_bytes_; }
  /// Bytes currently held awaiting checksum completion (memory accounting).
  size_t held_bytes() const { return held_bytes_; }

 private:
  struct Tracked {
    MappingRecord rec;
    ChecksumAccumulator acc;
    /// The fragments fed so far, awaiting verification: one view shared
    /// with the subflow's reassembly payloads while they adjoin, else a
    /// private buffer of the mapping's length that the rest are copied
    /// into.
    Payload held;
    uint64_t covered = 0;  ///< bytes of the mapping fed so far
    /// Bytes held until the mapping completes (none once it has).
    size_t held_size() const {
      return covered < rec.length ? static_cast<size_t>(covered) : 0;
    }
  };
  /// The held mapping with the lowest ssn_begin, if any.
  std::optional<Tracked> front_;
  /// The others, sorted by ssn_begin; their storage is freed when the
  /// last one leaves.
  RingQueue<Tracked> rest_;
  uint64_t unmapped_bytes_ = 0;
  size_t held_bytes_ = 0;
};

}  // namespace mptcp
