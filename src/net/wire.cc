#include "net/wire.h"

#include <cstring>
#include <type_traits>

#include "net/checksum.h"

namespace mptcp {
namespace {

// Option kinds (RFC 793 / 7323 / 2018 / 6824).
constexpr uint8_t kOptEol = 0;
constexpr uint8_t kOptNop = 1;
constexpr uint8_t kOptMss = 2;
constexpr uint8_t kOptWScale = 3;
constexpr uint8_t kOptSackPerm = 4;
constexpr uint8_t kOptSack = 5;
constexpr uint8_t kOptTimestamp = 8;
constexpr uint8_t kOptMptcp = 30;

// MPTCP subtypes (RFC 6824).
constexpr uint8_t kSubMpCapable = 0;
constexpr uint8_t kSubMpJoin = 1;
constexpr uint8_t kSubDss = 2;
constexpr uint8_t kSubAddAddr = 3;
constexpr uint8_t kSubRemoveAddr = 4;
constexpr uint8_t kSubMpPrio = 5;
constexpr uint8_t kSubMpFastclose = 7;

// DSS flag bits.
constexpr uint8_t kDssFlagDataAck = 0x01;
constexpr uint8_t kDssFlagDataAck8 = 0x02;
constexpr uint8_t kDssFlagMap = 0x04;
constexpr uint8_t kDssFlagMap8 = 0x08;
constexpr uint8_t kDssFlagFin = 0x10;

/// Big-endian field writer over any byte sink with push_back (the segment
/// body goes to a std::vector, options to the inline EncodedOptions).
template <typename Sink>
class WriterT {
 public:
  explicit WriterT(Sink& out) : out_(out) {}
  void u8(uint8_t v) { out_.push_back(v); }
  void u16(uint16_t v) {
    out_.push_back(static_cast<uint8_t>(v >> 8));
    out_.push_back(static_cast<uint8_t>(v));
  }
  void u32(uint32_t v) {
    u16(static_cast<uint16_t>(v >> 16));
    u16(static_cast<uint16_t>(v));
  }
  void u64(uint64_t v) {
    u32(static_cast<uint32_t>(v >> 32));
    u32(static_cast<uint32_t>(v));
  }

 private:
  Sink& out_;
};

using Writer = WriterT<std::vector<uint8_t>>;

class Reader {
 public:
  explicit Reader(std::span<const uint8_t> in) : in_(in) {}
  bool ok() const { return ok_; }
  size_t remaining() const { return in_.size() - pos_; }
  uint8_t u8() {
    if (pos_ + 1 > in_.size()) return fail8();
    return in_[pos_++];
  }
  uint16_t u16() {
    uint16_t hi = u8(), lo = u8();
    return static_cast<uint16_t>((hi << 8) | lo);
  }
  uint32_t u32() {
    uint32_t hi = u16(), lo = u16();
    return (hi << 16) | lo;
  }
  uint64_t u64() {
    uint64_t hi = u32(), lo = u32();
    return (hi << 32) | lo;
  }
  void skip(size_t n) {
    if (pos_ + n > in_.size()) {
      ok_ = false;
      pos_ = in_.size();
    } else {
      pos_ += n;
    }
  }

 private:
  uint8_t fail8() {
    ok_ = false;
    return 0;
  }
  std::span<const uint8_t> in_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Position of alternative T in TcpOption, for switching on index().
template <typename T, size_t I = 0>
constexpr size_t option_index() {
  if constexpr (std::is_same_v<std::variant_alternative_t<I, TcpOption>, T>) {
    return I;
  } else {
    return option_index<T, I + 1>();
  }
}

size_t mp_capable_size(const MpCapableOption& o) {
  return 4 + (o.sender_key ? 8 : 0) + (o.receiver_key ? 8 : 0);
}

size_t mp_join_size(const MpJoinOption& o) {
  switch (o.phase) {
    case JoinPhase::kSyn:
      return 12;  // kind, len, sub/flags, addr_id, token, nonce
    case JoinPhase::kSynAck:
      return 16;  // kind, len, sub/flags, addr_id, mac64, nonce
    case JoinPhase::kAck:
      return 12;  // kind, len, sub, reserved, mac64
  }
  return 12;
}

size_t dss_size(const DssOption& o) {
  size_t n = 4;
  if (o.data_ack) n += 8;
  if (o.mapping || o.data_fin) {
    n += 8 + 4 + 2;  // dsn, ssn_rel, length
    if (o.mapping && o.mapping->checksum) n += 2;
  }
  return n;
}

template <typename Sink>
void write_option(WriterT<Sink>& w, const TcpOption& opt) {
  if (const auto* o = std::get_if<MssOption>(&opt)) {
    w.u8(kOptMss);
    w.u8(4);
    w.u16(o->mss);
  } else if (const auto* o = std::get_if<WindowScaleOption>(&opt)) {
    w.u8(kOptWScale);
    w.u8(3);
    w.u8(o->shift);
  } else if (std::get_if<SackPermittedOption>(&opt)) {
    w.u8(kOptSackPerm);
    w.u8(2);
  } else if (const auto* o = std::get_if<SackOption>(&opt)) {
    w.u8(kOptSack);
    w.u8(static_cast<uint8_t>(2 + 8 * o->blocks.size()));
    for (const auto& b : o->blocks) {
      w.u32(b.begin);
      w.u32(b.end);
    }
  } else if (const auto* o = std::get_if<TimestampOption>(&opt)) {
    w.u8(kOptTimestamp);
    w.u8(10);
    w.u32(o->tsval);
    w.u32(o->tsecr);
  } else if (const auto* o = std::get_if<MpCapableOption>(&opt)) {
    w.u8(kOptMptcp);
    w.u8(static_cast<uint8_t>(mp_capable_size(*o)));
    w.u8(static_cast<uint8_t>((kSubMpCapable << 4) | (o->version & 0x0f)));
    w.u8(o->checksum_required ? 0x80 : 0x00);
    if (o->sender_key) w.u64(*o->sender_key);
    if (o->receiver_key) w.u64(*o->receiver_key);
  } else if (const auto* o = std::get_if<MpJoinOption>(&opt)) {
    w.u8(kOptMptcp);
    w.u8(static_cast<uint8_t>(mp_join_size(*o)));
    switch (o->phase) {
      case JoinPhase::kSyn:
        w.u8((kSubMpJoin << 4) | (o->backup ? 0x1 : 0x0));
        w.u8(o->addr_id);
        w.u32(o->token);
        w.u32(o->nonce);
        break;
      case JoinPhase::kSynAck:
        w.u8((kSubMpJoin << 4) | 0x2 | (o->backup ? 0x1 : 0x0));
        w.u8(o->addr_id);
        w.u64(o->mac);
        w.u32(o->nonce);
        break;
      case JoinPhase::kAck:
        w.u8((kSubMpJoin << 4) | 0x4);
        w.u8(0);
        w.u64(o->mac);
        break;
    }
  } else if (const auto* o = std::get_if<DssOption>(&opt)) {
    w.u8(kOptMptcp);
    w.u8(static_cast<uint8_t>(dss_size(*o)));
    w.u8(kSubDss << 4);
    uint8_t flags = 0;
    if (o->data_ack) flags |= kDssFlagDataAck | kDssFlagDataAck8;
    if (o->mapping || o->data_fin) flags |= kDssFlagMap | kDssFlagMap8;
    if (o->data_fin) flags |= kDssFlagFin;
    w.u8(flags);
    if (o->data_ack) w.u64(*o->data_ack);
    if (o->mapping) {
      // When DATA_FIN rides on a mapping it occupies one extra octet at
      // the end of the mapped range (RFC 6824 section 3.3.3).
      w.u64(o->mapping->dsn);
      w.u32(o->mapping->ssn_rel);
      w.u16(static_cast<uint16_t>(o->mapping->length + (o->data_fin ? 1 : 0)));
      if (o->mapping->checksum) w.u16(*o->mapping->checksum);
    } else if (o->data_fin) {
      // DATA_FIN with no payload: synthetic mapping of length 1 at the
      // DATA_FIN's sequence number, subflow offset 0.
      w.u64(o->data_fin_dsn);
      w.u32(0);
      w.u16(1);
    }
  } else if (const auto* o = std::get_if<AddAddrOption>(&opt)) {
    w.u8(kOptMptcp);
    w.u8(static_cast<uint8_t>(o->port ? 10 : 8));
    w.u8((kSubAddAddr << 4) | 0x4);  // low nibble: IP version 4
    w.u8(o->addr_id);
    w.u32(o->addr.value);
    if (o->port) w.u16(*o->port);
  } else if (const auto* o = std::get_if<RemoveAddrOption>(&opt)) {
    w.u8(kOptMptcp);
    w.u8(4);
    w.u8(kSubRemoveAddr << 4);
    w.u8(o->addr_id);
  } else if (const auto* o = std::get_if<MpPrioOption>(&opt)) {
    w.u8(kOptMptcp);
    w.u8(static_cast<uint8_t>(o->addr_id ? 4 : 3));
    w.u8((kSubMpPrio << 4) | (o->backup ? 0x1 : 0x0));
    if (o->addr_id) w.u8(*o->addr_id);
  } else if (const auto* o = std::get_if<MpFastcloseOption>(&opt)) {
    w.u8(kOptMptcp);
    w.u8(12);
    w.u8(kSubMpFastclose << 4);
    w.u8(0);
    w.u64(o->receiver_key);
  }
}

std::optional<TcpOption> parse_mptcp_option(Reader& r, uint8_t len) {
  if (len < 3) return std::nullopt;
  const uint8_t sub_byte = r.u8();
  const uint8_t subtype = sub_byte >> 4;
  switch (subtype) {
    case kSubMpCapable: {
      MpCapableOption o;
      o.version = sub_byte & 0x0f;
      o.checksum_required = (r.u8() & 0x80) != 0;
      if (len >= 12) o.sender_key = r.u64();
      if (len >= 20) o.receiver_key = r.u64();
      return o;
    }
    case kSubMpJoin: {
      MpJoinOption o;
      if (len == 12 && (sub_byte & 0x4)) {
        o.phase = JoinPhase::kAck;
        r.u8();  // reserved
        o.mac = r.u64();
      } else if (len == 12) {
        o.phase = JoinPhase::kSyn;
        o.backup = (sub_byte & 0x1) != 0;
        o.addr_id = r.u8();
        o.token = r.u32();
        o.nonce = r.u32();
      } else if (len == 16) {
        o.phase = JoinPhase::kSynAck;
        o.backup = (sub_byte & 0x1) != 0;
        o.addr_id = r.u8();
        o.mac = r.u64();
        o.nonce = r.u32();
      } else {
        return std::nullopt;
      }
      return o;
    }
    case kSubDss: {
      DssOption o;
      const uint8_t flags = r.u8();
      if (flags & kDssFlagDataAck) o.data_ack = r.u64();
      if (flags & kDssFlagMap) {
        DssMapping m;
        m.dsn = r.u64();
        m.ssn_rel = r.u32();
        uint16_t wire_len = r.u16();
        const bool fin = (flags & kDssFlagFin) != 0;
        size_t consumed = 4 + (o.data_ack ? 8 : 0) + 14;
        if (len > consumed) m.checksum = r.u16();
        if (fin) {
          o.data_fin = true;
          if (wire_len == 1 && m.ssn_rel == 0 && !m.checksum) {
            o.data_fin_dsn = m.dsn;  // DATA_FIN-only DSS
            return o;
          }
          if (wire_len == 0) return std::nullopt;
          m.length = static_cast<uint16_t>(wire_len - 1);
        } else {
          m.length = wire_len;
        }
        o.mapping = m;
      } else if (flags & kDssFlagFin) {
        o.data_fin = true;
      }
      return o;
    }
    case kSubAddAddr: {
      AddAddrOption o;
      o.addr_id = r.u8();
      o.addr = IpAddr{r.u32()};
      if (len >= 10) o.port = r.u16();
      return o;
    }
    case kSubRemoveAddr: {
      RemoveAddrOption o;
      o.addr_id = r.u8();
      return o;
    }
    case kSubMpPrio: {
      MpPrioOption o;
      o.backup = (sub_byte & 0x1) != 0;
      if (len >= 4) o.addr_id = r.u8();
      return o;
    }
    case kSubMpFastclose: {
      MpFastcloseOption o;
      r.u8();  // reserved
      o.receiver_key = r.u64();
      return o;
    }
    default:
      r.skip(len - 3);
      return std::nullopt;
  }
}

}  // namespace

bool is_mptcp_option(const TcpOption& opt) {
  // The MPTCP alternatives close the variant, MP_CAPABLE first.
  constexpr size_t kFirstMptcp = option_index<MpCapableOption>();
  static_assert(std::variant_size_v<TcpOption> - kFirstMptcp == 7);
  return opt.index() >= kFirstMptcp;
}

size_t option_wire_size(const TcpOption& opt) {
  // Runs for every option of every segment at every hop (links size
  // their serialization delay by it): one jump on index() rather than a
  // chain of type tests.
  switch (opt.index()) {
    case option_index<MssOption>():
      return 4;
    case option_index<WindowScaleOption>():
      return 3;
    case option_index<SackPermittedOption>():
      return 2;
    case option_index<SackOption>():
      return 2 + 8 * std::get<SackOption>(opt).blocks.size();
    case option_index<TimestampOption>():
      return 10;
    case option_index<MpCapableOption>():
      return mp_capable_size(std::get<MpCapableOption>(opt));
    case option_index<MpJoinOption>():
      return mp_join_size(std::get<MpJoinOption>(opt));
    case option_index<DssOption>():
      return dss_size(std::get<DssOption>(opt));
    case option_index<AddAddrOption>():
      return std::get<AddAddrOption>(opt).port ? 10 : 8;
    case option_index<RemoveAddrOption>():
      return 4;
    case option_index<MpFastcloseOption>():
      return 12;
    case option_index<MpPrioOption>():
      return std::get<MpPrioOption>(opt).addr_id ? 4 : 3;
  }
  return 0;
}

EncodedOptions encode_options(std::span<const TcpOption> opts) {
  EncodedOptions out;
  WriterT<EncodedOptions> w(out);
  for (const auto& o : opts) write_option(w, o);
  while (out.size() % 4 != 0) out.push_back(kOptNop);
  return out;
}

std::vector<uint8_t> serialize_options(const std::vector<TcpOption>& opts) {
  const EncodedOptions enc = encode_options(opts);
  return {enc.bytes().begin(), enc.bytes().end()};
}

OptionList parse_options(std::span<const uint8_t> bytes) {
  OptionList out;
  Reader r(bytes);
  while (r.ok() && r.remaining() > 0) {
    const uint8_t kind = r.u8();
    if (kind == kOptEol) break;
    if (kind == kOptNop) continue;
    if (r.remaining() < 1) break;
    const uint8_t len = r.u8();
    if (len < 2) break;
    switch (kind) {
      case kOptMss: {
        MssOption o;
        o.mss = r.u16();
        out.push_back(o);
        break;
      }
      case kOptWScale: {
        WindowScaleOption o;
        o.shift = r.u8();
        out.push_back(o);
        break;
      }
      case kOptSackPerm:
        out.push_back(SackPermittedOption{});
        break;
      case kOptSack: {
        SackOption o;
        const size_t n = static_cast<size_t>(len - 2) / 8;
        for (size_t i = 0; i < n; ++i) {
          if (i == SackOption::Blocks::kMax) {
            // More than the option space can hold: a malformed length.
            r.skip(8 * (n - i));
            break;
          }
          SackOption::Block b;
          b.begin = r.u32();
          b.end = r.u32();
          o.blocks.push_back(b);
        }
        out.push_back(std::move(o));
        break;
      }
      case kOptTimestamp: {
        TimestampOption o;
        o.tsval = r.u32();
        o.tsecr = r.u32();
        out.push_back(o);
        break;
      }
      case kOptMptcp: {
        auto o = parse_mptcp_option(r, len);
        if (o) out.push_back(*o);
        break;
      }
      default:
        r.skip(len - 2);  // unknown option: skip, liberal receiver
        break;
    }
  }
  return out;
}

uint16_t tcp_checksum(std::span<const uint8_t> tcp_bytes,
                      const FourTuple& tuple) {
  ChecksumAccumulator acc;
  acc.add_u32(tuple.src.addr.value);
  acc.add_u32(tuple.dst.addr.value);
  acc.add_word(6);  // protocol TCP
  acc.add_word(static_cast<uint16_t>(tcp_bytes.size()));
  acc.add_bytes(tcp_bytes);
  return acc.finish();
}

std::vector<uint8_t> serialize_segment(const TcpSegment& seg) {
  // Options encode into the inline buffer -- no heap traffic for any
  // legal (<= 40 byte) option set.
  const EncodedOptions opt_bytes = encode_options(seg.options);
  const size_t header_len = kTcpHeaderSize + opt_bytes.size();

  std::vector<uint8_t> out;
  out.reserve(header_len + seg.payload.size());
  Writer w(out);
  w.u16(seg.tuple.src.port);
  w.u16(seg.tuple.dst.port);
  w.u32(seg.seq);
  w.u32(seg.ack);
  uint8_t flags = 0;
  if (seg.fin) flags |= 0x01;
  if (seg.syn) flags |= 0x02;
  if (seg.rst) flags |= 0x04;
  if (seg.psh) flags |= 0x08;
  if (seg.ack_flag) flags |= 0x10;
  w.u8(static_cast<uint8_t>((header_len / 4) << 4));
  w.u8(flags);
  w.u16(seg.window);
  w.u16(0);  // checksum placeholder
  w.u16(0);  // urgent pointer
  out.insert(out.end(), opt_bytes.bytes().begin(), opt_bytes.bytes().end());
  out.insert(out.end(), seg.payload.begin(), seg.payload.end());

  // The paper's shared-checksum trick (section 3.3.6), made structural:
  // the payload's ones-complement sum is cached in the Payload and folded
  // in via add_partial() -- the same cached sum the DSS checksum uses --
  // so the payload bytes are only ever summed once. The header always ends
  // on a 4-byte boundary, so word alignment is preserved and the result is
  // bit-identical to summing the whole frame.
  ChecksumAccumulator acc;
  acc.add_u32(seg.tuple.src.addr.value);
  acc.add_u32(seg.tuple.dst.addr.value);
  acc.add_word(6);  // protocol TCP
  acc.add_word(static_cast<uint16_t>(out.size()));
  acc.add_bytes(std::span<const uint8_t>(out.data(), header_len));
  acc.add_partial(seg.payload.folded_sum());
  const uint16_t csum = acc.finish();
  out[16] = static_cast<uint8_t>(csum >> 8);
  out[17] = static_cast<uint8_t>(csum);
  return out;
}

std::optional<TcpSegment> parse_segment(std::span<const uint8_t> bytes,
                                        const FourTuple& tuple) {
  if (bytes.size() < kTcpHeaderSize) return std::nullopt;
  Reader r(bytes);
  TcpSegment seg;
  seg.tuple = tuple;
  seg.tuple.src.port = r.u16();
  seg.tuple.dst.port = r.u16();
  seg.seq = r.u32();
  seg.ack = r.u32();
  const uint8_t offset_byte = r.u8();
  const size_t header_len = size_t{static_cast<uint8_t>(offset_byte >> 4)} * 4;
  const uint8_t flags = r.u8();
  seg.fin = flags & 0x01;
  seg.syn = flags & 0x02;
  seg.rst = flags & 0x04;
  seg.psh = flags & 0x08;
  seg.ack_flag = flags & 0x10;
  seg.window = r.u16();
  seg.checksum = r.u16();
  r.u16();  // urgent pointer
  if (header_len < kTcpHeaderSize || header_len > bytes.size()) {
    return std::nullopt;
  }
  seg.options =
      parse_options(bytes.subspan(kTcpHeaderSize, header_len - kTcpHeaderSize));
  seg.payload.assign(bytes.subspan(header_len));
  return seg;
}

}  // namespace mptcp
