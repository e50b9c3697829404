// Cross-layer observability: a lightweight registry of named gauges,
// histograms and groups of values read where they live.
//
// Design rules, in order of importance:
//  * Near-zero overhead when unread. Hot paths touch plain integers in
//    the objects that own them -- Histogram::record() is a bit_width and
//    two adds. Anything that costs more (walking objects, formatting
//    names) happens only at export time, through group callbacks.
//  * Deterministic export. Entries live in an ordered map keyed by name,
//    so two identical runs serialize byte-identical JSON -- the property
//    the determinism digest (app/digest.h) and CI lean on.
//  * One entry per live object, owned by the object. group() returns a
//    Handle that erases the entry when its owner dies, so nothing
//    unregisters by hand. Scopes handed out by unique_scope() make
//    per-instance prefixes collision-free ("sim.link.wifi-ab",
//    "sim.link.wifi-ab#2").
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>

namespace mptcp {

/// Instantaneous signed level (queue depths, occupancy).
class Gauge {
 public:
  void set(int64_t v) { v_ = v; }
  void add(int64_t d) { v_ += d; }
  int64_t value() const { return v_; }

 private:
  int64_t v_ = 0;
};

/// Power-of-two bucketed histogram of non-negative values. Bucket 0 holds
/// zeros; bucket i (i >= 1) holds values in [2^(i-1), 2^i). Recording is
/// O(1) with no allocation, so it is safe on per-packet paths.
class Histogram {
 public:
  static constexpr size_t kBuckets = 65;

  void record(uint64_t v) {
    ++buckets_[std::bit_width(v)];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  uint64_t bucket(size_t i) const { return i < kBuckets ? buckets_[i] : 0; }

  /// Upper bound (exclusive, a power of two) of the bucket where the p-th
  /// fraction of samples falls; p in [0, 1].
  uint64_t approx_percentile(double p) const;

  /// Folds another histogram's samples into this one bucket-wise, as if
  /// every sample had been recorded here. min/max handle either side
  /// being empty. This is how per-shard histogram partitions merge into
  /// one distribution at export (StatsRegistry::merged_flatten).
  void merge_from(const Histogram& o);

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

/// Log-linear bucketed histogram: 32 sub-buckets per octave instead of the
/// pow2 Histogram's one, bounding the relative quantile error at ~3%
/// (1/32) instead of ~100%. That resolution is what makes a p999 stable
/// enough to gate in CI: with pow2 buckets a tail sample moving from
/// 2^19-1 to 2^19 doubles the reported percentile, which would trip any
/// lower-is-better tolerance. Costs 30x the memory of Histogram
/// (~15 KiB), so it is reserved for export-level request-latency
/// distributions, not per-connection counters. Recording stays O(1):
/// a bit_width, a shift and two adds.
class FineHistogram {
 public:
  static constexpr unsigned kSubBits = 5;  ///< 32 sub-buckets per octave
  static constexpr uint64_t kSub = 1ULL << kSubBits;
  /// Values < kSub get exact buckets; octaves 5..63 get kSub each.
  static constexpr size_t kBuckets = (64 - kSubBits + 1) << kSubBits;

  static size_t bucket_index(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const unsigned h = static_cast<unsigned>(std::bit_width(v)) - 1;
    return ((h - kSubBits + 1) << kSubBits) +
           static_cast<size_t>((v >> (h - kSubBits)) - kSub);
  }

  /// Smallest value mapping to bucket `i` (the floor percentile reports).
  static uint64_t bucket_floor(size_t i) {
    const size_t q = i >> kSubBits;
    const uint64_t r = i & (kSub - 1);
    return q == 0 ? r : (kSub + r) << (q - 1);
  }

  void record(uint64_t v) {
    ++buckets_[bucket_index(v)];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// Floor of the bucket holding the p-th fraction of samples; p in
  /// [0, 1]. Within ~3% (one sub-bucket) of the exact order statistic.
  uint64_t percentile(double p) const;

  /// Bucket-wise fold, mirroring Histogram::merge_from (per-shard
  /// partitions merge into one distribution at export).
  void merge_from(const FineHistogram& o);

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

/// Export-time receiver for groups: a group emits (name, value) pairs
/// relative to its scope.
class SampleSink {
 public:
  virtual void emit(std::string_view name, double value) = 0;
  /// A histogram member, as name.{count,sum,min,max,mean}. An empty name
  /// emits the bare fields (a registry histogram's own expansion).
  void emit_histogram(std::string_view name, const Histogram& h);
  /// As above plus name.{p50,p99,p999}, the quantiles the pow2 Histogram
  /// cannot report stably (see FineHistogram).
  void emit_histogram(std::string_view name, const FineHistogram& h);

 protected:
  ~SampleSink() = default;
};

/// Export state that a registry owns (StatsRegistry::owned): made on first
/// use and kept until the registry dies, like a gauge or a histogram.
class OwnedGroup {
 public:
  virtual ~OwnedGroup() = default;
  virtual void sample(SampleSink& out) const = 0;
};

class StatsRegistry {
 public:
  /// Read at export time only; must stay valid while its Handle lives.
  using GroupFn = std::function<void(SampleSink&)>;

 private:
  struct Entry {
    // Exactly one of these is set.
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> hist;
    GroupFn group;
    std::unique_ptr<OwnedGroup> owned;
  };
  // A multimap, so that two objects registering one name (two workload
  // engines sharing a scope prefix) each erase only their own entry.
  using Entries = std::multimap<std::string, Entry, std::less<>>;

 public:
  /// Owns one group entry and erases it when destroyed, so an object's
  /// values leave the export with the object. Move-only: a moved-from
  /// handle owns nothing and erases nothing. Must die before its registry.
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& o) noexcept
        : reg_(std::exchange(o.reg_, nullptr)), it_(o.it_) {}
    Handle& operator=(Handle&& o) noexcept {
      if (this != &o) {
        reset();
        reg_ = std::exchange(o.reg_, nullptr);
        it_ = o.it_;
      }
      return *this;
    }
    ~Handle() { reset(); }

    /// The entry's scope ("sim.link.wifi-ab", "mptcp.client#2", ...);
    /// empty when the handle owns nothing.
    const std::string& scope() const;

   private:
    friend class StatsRegistry;
    Handle(StatsRegistry& reg, Entries::iterator it) : reg_(&reg), it_(it) {}
    void reset();

    StatsRegistry* reg_ = nullptr;
    Entries::iterator it_{};
  };

  /// Returns the gauge/histogram registered under `name`, creating it on
  /// first use. References stay valid for the registry's lifetime.
  /// Looking up an existing name allocates nothing.
  Gauge& gauge(std::string_view name);
  /// Histograms stay registry-owned where several objects (or shards)
  /// record into one distribution: merged exports fold them bucket by
  /// bucket, where group keys are summed as plain numbers.
  Histogram& histogram(std::string_view name);

  /// Registers one object's values behind ONE entry: at export the
  /// callback emits (suffix, value) pairs, which appear as
  /// "<scope>.<suffix>", and histogram members expand to their fields.
  /// Registration costs one map insert at birth and, through the
  /// returned handle, one erase at death, however many values the object
  /// exposes. value("<scope>.<suffix>") resolves through the group too.
  [[nodiscard]] Handle group(std::string scope, GroupFn fn);

  /// The registry-owned group under `scope`, made from `*this` on first
  /// use. For state shared by every object of a kind on one loop (the
  /// "tcp" totals); always the same T for one scope.
  template <class T>
  T& owned(std::string_view scope) {
    Entry& e = entry(scope);
    if (!e.owned) e.owned = std::make_unique<T>(*this);
    return static_cast<T&>(*e.owned);
  }

  /// Reserves a collision-free scope prefix: the first caller gets `base`,
  /// later callers get "base#2", "base#3", ... (deterministic in
  /// registration order). The registry's scope tag (if set) is appended
  /// to `base` first, so scopes from different registries can never
  /// collide in a merged export.
  std::string unique_scope(const std::string& base);

  /// Tags every subsequent unique_scope() name with `tag` (e.g. "@s1").
  /// Sharded topologies tag each non-zero shard's registry so that
  /// per-instance scopes ("mptcp.client@s1", "mptcp.client@s1#2", ...)
  /// stay distinct across partitions -- otherwise merged_flatten() would
  /// silently sum shard 0's "mptcp.client#2" with shard 1's. Shard 0 is
  /// left untagged, which keeps every single-shard export byte-identical
  /// to the pre-sharding format.
  void set_scope_tag(std::string tag) { scope_tag_ = std::move(tag); }

  /// Registry entries (not flat keys): one per live object, plus the
  /// registry-owned gauges, histograms and groups.
  size_t size() const { return entries_.size(); }

  /// Lookup helper (mostly for tests); null when absent or of another kind.
  const Gauge* find_gauge(std::string_view name) const;

  /// Current numeric value of a flat key as flatten() would produce it
  /// (histograms contribute "name.count" etc.); 0 when absent.
  double value(std::string_view flat_key) const;

  /// Flat deterministic view: merged_flatten() over this registry alone.
  std::map<std::string, double> flatten() const;

  /// One flat JSON object, keys sorted, doubles printed round-trippably.
  std::string to_json() const;

  /// Deterministic fold of several registry partitions into one flat
  /// view (the export path for per-shard registries). Gauges and group
  /// keys sum as plain numbers; histograms bucket-merge *before*
  /// expansion, so <name>.{count,sum,min,max} describe the union of
  /// samples and <name>.mean is recomputed from the merged totals rather
  /// than summed. The caller passes partitions in a fixed order (shard
  /// index); the result depends only on each partition's contents, never
  /// on which shard finished last, so two identical runs fold to
  /// byte-identical JSON.
  static std::map<std::string, double> merged_flatten(
      std::span<const StatsRegistry* const> parts);

  /// merged_flatten() serialized as one flat JSON object.
  static std::string merged_to_json(std::span<const StatsRegistry* const> parts);

  /// Parses the exact shape to_json() emits (also tolerates the flat JSON
  /// the benchmarks write). Malformed input yields the pairs parsed so far.
  static std::map<std::string, double> parse_flat_json(std::string_view json);

 private:
  Entry& entry(std::string_view name);
  /// The one expansion of an entry into (suffix, value) pairs; a gauge
  /// emits one pair with an empty suffix.
  static void expand(const Entry& e, SampleSink& out);

  Entries entries_;
  std::map<std::string, int, std::less<>> scope_counts_;
  std::string scope_tag_;
};

}  // namespace mptcp
