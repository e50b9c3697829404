// TCP option model.
//
// Options are modelled as a variant of typed structs rather than raw bytes:
// the simulator's middleboxes need to inspect, strip and copy options, and
// the MPTCP engine needs to attach and parse its own. A wire codec
// (wire.h) maps these structs to/from the RFC 793 / RFC 6824 byte layout so
// that sizes, alignment and checksums are faithful.
//
// Every alternative is a fixed-size value (SACK holds its at most four
// blocks inline), so a TcpOption never owns heap memory. A segment keeps
// its options in an OptionList: one pointer in the segment, to a block
// recycled per thread (net/block_pool.h) and sized to what a segment
// holds, two options for data segments and ACKs and eight for SYNs. Each
// hop moves a segment into a link slot and out again, so the list stays
// out of line: three typed options inline would make the segment about
// 300 bytes (see DESIGN.md, "Allocation budget").
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <utility>
#include <variant>

#include "net/ip.h"

namespace mptcp {

// ---------------------------------------------------------------------------
// Standard TCP options.
// ---------------------------------------------------------------------------

/// Maximum Segment Size (kind 2), SYN only.
struct MssOption {
  uint16_t mss = 0;
  friend bool operator==(const MssOption&, const MssOption&) = default;
};

/// Window scale (kind 3), SYN only. The advertised window is shifted left
/// by `shift` bits by the receiver of the option.
struct WindowScaleOption {
  uint8_t shift = 0;
  friend bool operator==(const WindowScaleOption&,
                         const WindowScaleOption&) = default;
};

/// SACK permitted (kind 4), SYN only.
struct SackPermittedOption {
  friend bool operator==(const SackPermittedOption&,
                         const SackPermittedOption&) = default;
};

/// Selective acknowledgment (kind 5, RFC 2018): up to 4 received blocks
/// above the cumulative ACK, most recent first.
struct SackOption {
  struct Block {
    uint32_t begin = 0;  ///< wire (wrapped) sequence numbers
    uint32_t end = 0;
    friend bool operator==(const Block&, const Block&) = default;
  };
  /// The blocks, held inline: four is all the 40-byte option space fits.
  class Blocks {
   public:
    static constexpr size_t kMax = 4;
    Blocks() = default;
    Blocks(std::initializer_list<Block> blocks) {
      for (const Block& b : blocks) push_back(b);
    }
    void push_back(const Block& b) {
      assert(n_ < kMax && "a SACK option carries at most four blocks");
      if (n_ < kMax) b_[n_++] = b;
    }
    void pop_back() { --n_; }
    size_t size() const { return n_; }
    Block& operator[](size_t i) { return b_[i]; }
    const Block& operator[](size_t i) const { return b_[i]; }
    Block* begin() { return b_.data(); }
    Block* end() { return b_.data() + n_; }
    const Block* begin() const { return b_.data(); }
    const Block* end() const { return b_.data() + n_; }
    friend bool operator==(const Blocks& a, const Blocks& b) {
      return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

   private:
    std::array<Block, kMax> b_{};
    uint8_t n_ = 0;
  };
  Blocks blocks;
  friend bool operator==(const SackOption&, const SackOption&) = default;
};

/// Timestamps (kind 8, RFC 7323). Used for RTT estimation at both ends.
struct TimestampOption {
  uint32_t tsval = 0;
  uint32_t tsecr = 0;
  friend bool operator==(const TimestampOption&,
                         const TimestampOption&) = default;
};

// ---------------------------------------------------------------------------
// MPTCP options (kind 30, subtyped per RFC 6824 / the paper's design).
// ---------------------------------------------------------------------------

/// MP_CAPABLE: negotiated on the initial subflow's 3-way handshake.
/// The SYN carries the sender's 64-bit random key; the SYN/ACK carries the
/// receiver's key; the third ACK (and data packets until one is acked,
/// section 3.1) echoes both keys.
struct MpCapableOption {
  uint8_t version = 0;
  bool checksum_required = true;
  std::optional<uint64_t> sender_key;    ///< absent only in degenerate tests
  std::optional<uint64_t> receiver_key;  ///< present on SYN/ACK and 3rd ACK
  friend bool operator==(const MpCapableOption&,
                         const MpCapableOption&) = default;
};

/// Which packet of the 3-way handshake an MP_JOIN option sits on.
enum class JoinPhase : uint8_t { kSyn, kSynAck, kAck };

/// MP_JOIN: adds a subflow to an existing connection. The SYN carries the
/// receiver's token (truncated SHA-1 of its key) so the passive end can
/// locate the connection, plus a random nonce; SYN/ACK and the third ACK
/// carry truncated HMACs over both nonces keyed with both keys, preventing
/// blind subflow hijack (section 3.2).
struct MpJoinOption {
  JoinPhase phase = JoinPhase::kSyn;
  uint8_t addr_id = 0;
  bool backup = false;
  uint32_t token = 0;       ///< SYN only
  uint32_t nonce = 0;       ///< SYN and SYN/ACK
  uint64_t mac = 0;         ///< SYN/ACK (truncated) and ACK
  friend bool operator==(const MpJoinOption&, const MpJoinOption&) = default;
};

/// The data sequence mapping carried in a DSS option: maps `length` subflow
/// bytes beginning at *relative* subflow sequence number `ssn_rel`
/// (relative to the subflow's initial sequence number, so that
/// ISN-rewriting middleboxes cannot corrupt it -- section 3.3.4) onto the
/// data sequence space starting at `dsn`.
struct DssMapping {
  uint64_t dsn = 0;
  uint32_t ssn_rel = 0;
  uint16_t length = 0;
  std::optional<uint16_t> checksum;  ///< DSS checksum (section 3.3.6)
  friend bool operator==(const DssMapping&, const DssMapping&) = default;
};

/// DSS: Data Sequence Signal. Carries the explicit connection-level
/// cumulative acknowledgment (DATA_ACK, section 3.3.2), an optional data
/// sequence mapping, and the DATA_FIN flag (section 3.4).
struct DssOption {
  std::optional<uint64_t> data_ack;
  std::optional<DssMapping> mapping;
  /// DATA_FIN occupies one octet of data sequence space. When set together
  /// with a mapping, the DATA_FIN's sequence number is mapping.dsn +
  /// mapping.length; when set without a mapping, `data_fin_dsn` gives it.
  bool data_fin = false;
  uint64_t data_fin_dsn = 0;  ///< only meaningful when data_fin && !mapping
  friend bool operator==(const DssOption&, const DssOption&) = default;
};

/// ADD_ADDR: advertises an additional address of the sender (used by
/// servers behind NAT-asymmetric paths to invite new client-initiated
/// subflows, section 3.2).
struct AddAddrOption {
  uint8_t addr_id = 0;
  IpAddr addr;
  std::optional<Port> port;
  friend bool operator==(const AddAddrOption&, const AddAddrOption&) = default;
};

/// REMOVE_ADDR: tells the peer that subflows using this address-id are dead
/// (mobility support, section 3.4).
struct RemoveAddrOption {
  uint8_t addr_id = 0;
  friend bool operator==(const RemoveAddrOption&,
                         const RemoveAddrOption&) = default;
};

/// MP_FASTCLOSE: abrupt connection-level close (analogous to RST for the
/// whole connection).
struct MpFastcloseOption {
  uint64_t receiver_key = 0;
  friend bool operator==(const MpFastcloseOption&,
                         const MpFastcloseOption&) = default;
};

/// MP_PRIO: change a subflow's backup priority.
struct MpPrioOption {
  bool backup = false;
  std::optional<uint8_t> addr_id;
  friend bool operator==(const MpPrioOption&, const MpPrioOption&) = default;
};

using TcpOption =
    std::variant<MssOption, WindowScaleOption, SackPermittedOption,
                 SackOption, TimestampOption, MpCapableOption, MpJoinOption,
                 DssOption, AddAddrOption, RemoveAddrOption,
                 MpFastcloseOption, MpPrioOption>;

/// True if the option is an MPTCP (kind 30) option.
bool is_mptcp_option(const TcpOption& opt);

/// Encoded size in bytes of a single option (including kind/length bytes),
/// matching the RFC 793 / RFC 6824 wire format implemented in wire.cc.
size_t option_wire_size(const TcpOption& opt);

/// The options of one segment, in order: a vector-like list that is one
/// pointer wide. Its storage is a single block from a per-thread pool
/// (options.cc), allocated on the first push_back and sized by class: two
/// options, then eight, then powers of two from the heap. Copies allocate
/// a block of their own; moves hand the block over.
class OptionList {
 public:
  OptionList() = default;
  OptionList(std::initializer_list<TcpOption> opts) { assign(opts); }
  OptionList(const OptionList& o) { assign(o.span()); }
  OptionList(OptionList&& o) noexcept : b_(std::exchange(o.b_, nullptr)) {}
  OptionList& operator=(const OptionList& o) {
    if (this != &o) assign(o.span());
    return *this;
  }
  OptionList& operator=(OptionList&& o) noexcept {
    if (this != &o) {
      release();
      b_ = std::exchange(o.b_, nullptr);
    }
    return *this;
  }
  OptionList& operator=(std::initializer_list<TcpOption> opts) {
    assign(opts);
    return *this;
  }
  ~OptionList() { release(); }

  size_t size() const { return b_ != nullptr ? b_->size : 0; }
  bool empty() const { return size() == 0; }
  /// Slots in the current block (0 while empty and never grown).
  size_t capacity() const { return b_ != nullptr ? b_->cap : 0; }

  TcpOption* data() { return b_ != nullptr ? b_->items() : nullptr; }
  const TcpOption* data() const {
    return b_ != nullptr ? b_->items() : nullptr;
  }
  TcpOption* begin() { return data(); }
  TcpOption* end() { return data() + size(); }
  const TcpOption* begin() const { return data(); }
  const TcpOption* end() const { return data() + size(); }
  TcpOption& operator[](size_t i) { return data()[i]; }
  const TcpOption& operator[](size_t i) const { return data()[i]; }
  std::span<const TcpOption> span() const { return {data(), size()}; }
  operator std::span<const TcpOption>() const { return span(); }

  template <typename T>
  void push_back(T&& opt) {
    emplace_back(std::forward<T>(opt));
  }
  template <typename... Args>
  TcpOption& emplace_back(Args&&... args) {
    if (size() == capacity()) return grow(std::forward<Args>(args)...);
    TcpOption* at = ::new (static_cast<void*>(end()))
        TcpOption(std::forward<Args>(args)...);
    ++b_->size;
    return *at;
  }

  /// Removes every option for which `pred` holds, keeping the order of
  /// the rest; returns how many were removed.
  template <typename Pred>
  size_t erase_if(Pred pred) {
    const size_t before = size();
    TcpOption* out = begin();
    for (TcpOption* in = begin(); in != end(); ++in) {
      if (pred(std::as_const(*in))) continue;
      if (out != in) *out = std::move(*in);
      ++out;
    }
    truncate(static_cast<size_t>(out - begin()));
    return before - size();
  }
  /// Drops every option; the block is kept for the next push_back.
  void clear() { truncate(0); }

  friend bool operator==(const OptionList& a, const OptionList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  /// Header of a block; `cap` options follow it in the same allocation.
  struct Block {
    uint32_t size;
    uint32_t cap;
    TcpOption* items() { return reinterpret_cast<TcpOption*>(this + 1); }
    const TcpOption* items() const {
      return reinterpret_cast<const TcpOption*>(this + 1);
    }
  };
  static_assert(sizeof(Block) % alignof(TcpOption) == 0);

  /// A block with room for at least `n` options (rounded up to its size
  /// class), recycled from this thread's pool when one is free.
  static Block* alloc_block(size_t n);
  static void free_block(Block* b);

  /// Moves into a block of the next size class, building the new option
  /// first: `args` may refer to an option of this list.
  template <typename... Args>
  TcpOption& grow(Args&&... args) {
    const size_t n = size();
    Block* fresh = alloc_block(n + 1);
    TcpOption* at = ::new (static_cast<void*>(fresh->items() + n))
        TcpOption(std::forward<Args>(args)...);
    if (b_ != nullptr) {
      std::uninitialized_move(begin(), end(), fresh->items());
      release();
    }
    fresh->size = static_cast<uint32_t>(n + 1);
    b_ = fresh;
    return *at;
  }
  void assign(std::span<const TcpOption> opts);
  void truncate(size_t n) {
    if (n >= size()) return;
    std::destroy(begin() + n, end());
    b_->size = static_cast<uint32_t>(n);
  }
  void release() {
    if (b_ == nullptr) return;
    std::destroy(begin(), end());
    free_block(b_);
    b_ = nullptr;
  }

  Block* b_ = nullptr;
};

/// Finds the first option of type T in a list, or nullptr.
template <typename T>
const T* find_option(const OptionList& opts) {
  for (const auto& o : opts) {
    if (const T* p = std::get_if<T>(&o)) return p;
  }
  return nullptr;
}

template <typename T>
T* find_option(OptionList& opts) {
  for (auto& o : opts) {
    if (T* p = std::get_if<T>(&o)) return p;
  }
  return nullptr;
}

/// Removes all options of type T; returns how many were removed.
template <typename T>
size_t remove_options(OptionList& opts) {
  return opts.erase_if(
      [](const TcpOption& o) { return std::holds_alternative<T>(o); });
}

}  // namespace mptcp
