// Cross-layer observability: a lightweight registry of named gauges and
// histograms, plus the objects that publish values read where they live.
//
// Design rules, in order of importance:
//  * Near-zero overhead when unread. Hot paths touch plain integers in
//    the objects that own them -- Histogram::record() is a bit_width and
//    two adds. Anything that costs more (walking objects, formatting
//    names) happens only at export time, through StatsHook owners.
//  * Deterministic export. Keys land in an ordered map, and hooks publish
//    in registration order, so two identical runs serialize
//    byte-identical JSON -- the property the determinism digest
//    (app/digest.h) and CI lean on.
//  * No registry entry per object. A publishing object embeds a
//    StatsHook that links it into its loop's registry while it lives and
//    names its scope at export from what the object already holds
//    ("sim.link.wifi-ab", "sim.link.wifi-ab#2", "mptcp.client@s1#3").
#pragma once

#include <algorithm>
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
#include <vector>

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

/// Bucket counts plus count/sum/min/max of non-negative samples: what
/// Histogram and FineHistogram share. Recording is O(1) with no
/// allocation, so it is safe on per-packet paths.
template <size_t N>
class BucketCounts {
 public:
  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  uint64_t bucket(size_t i) const { return i < N ? buckets_[i] : 0; }

  /// Folds another's samples into this one bucket-wise, as if every
  /// sample had been recorded here; min/max handle either side being
  /// empty. This is how per-shard partitions merge into one distribution
  /// at export (StatsRegistry::merged_flatten).
  void merge_from(const BucketCounts& o) {
    if (o.count_ == 0) return;
    for (size_t i = 0; i < N; ++i) buckets_[i] += o.buckets_[i];
    if (count_ == 0 || o.min_ < min_) min_ = o.min_;
    if (o.max_ > max_) max_ = o.max_;
    count_ += o.count_;
    sum_ += o.sum_;
  }

 protected:
  void add(size_t bucket, uint64_t v) {
    ++buckets_[bucket];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  /// The bucket where the p-th fraction of samples falls, p clamped to
  /// [0, 1]; N when there is none.
  size_t rank_bucket(double p) const {
    const double target = std::clamp(p, 0.0, 1.0) * static_cast<double>(count_);
    uint64_t seen = 0;
    for (size_t i = 0; i < N; ++i) {
      seen += buckets_[i];
      if (static_cast<double>(seen) >= target && buckets_[i] > 0) return i;
    }
    return N;
  }

 private:
  std::array<uint64_t, N> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

/// Power-of-two bucketed histogram. Bucket 0 holds zeros; bucket i
/// (i >= 1) holds values in [2^(i-1), 2^i).
class Histogram : public BucketCounts<65> {
 public:
  static constexpr size_t kBuckets = 65;

  void record(uint64_t v) { add(std::bit_width(v), v); }

  /// Upper bound (exclusive, a power of two) of the bucket where the p-th
  /// fraction of samples falls; p in [0, 1]. Saturates for the top
  /// bucket, [2^63, 2^64).
  uint64_t approx_percentile(double p) const;
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
class FineHistogram : public BucketCounts<1920> {
 public:
  static constexpr unsigned kSubBits = 5;  ///< 32 sub-buckets per octave
  static constexpr uint64_t kSub = 1ULL << kSubBits;
  /// Values < kSub get exact buckets; octaves 5..63 get kSub each.
  static constexpr size_t kBuckets = (64 - kSubBits + 1) << kSubBits;
  static_assert(kBuckets == 1920, "the base's bucket count");

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

  void record(uint64_t v) { add(bucket_index(v), v); }

  /// Floor of the bucket holding the p-th fraction of samples; p in
  /// [0, 1]. Within ~3% (one sub-bucket) of the exact order statistic.
  uint64_t percentile(double p) const;
};

/// What a publishing object writes into at export. It opens a scope, then
/// emits (suffix, value) pairs, which appear as "<scope>.<suffix>". Each
/// open call returns whether the reader wants that scope's values; the
/// object skips the emits of a scope it is refused, which is how value()
/// reads one object's values without sampling the rest. An object opens
/// the same scopes in the same order for as long as it lives.
class StatsOut {
 public:
  /// A scope that objects of one kind share and sum into ("sim",
  /// "<prefix>workload"), used as is: no shard tag, no number.
  virtual bool open_shared(std::string_view scope) = 0;
  /// One object's own scope: "<head><name>", the registry's shard tag
  /// ("@s1"), then "#<n>" for the n-th live object of that name on the
  /// registry in registration order (n > 1). Numbering at export suits
  /// objects that live as long as their registry: links, routers and
  /// workload classes.
  virtual bool open(std::string_view head, std::string_view name) = 0;
  /// "<head>", the shard tag, then "#<n>" when n > 1, where `n` is the
  /// object's instance number drawn at birth (StatsRegistry::next_instance).
  virtual bool open_instance(std::string_view head, uint32_t n) = 0;

  virtual void emit(std::string_view name, double value) = 0;
  /// A histogram member, as name.{count,sum,min,max,mean}. An empty name
  /// emits the bare fields (a registry histogram's own expansion).
  void emit_histogram(std::string_view name, const Histogram& h);
  /// As above plus name.{p50,p99,p999}, the quantiles the pow2 Histogram
  /// cannot report stably (see FineHistogram).
  void emit_histogram(std::string_view name, const FineHistogram& h);

 protected:
  ~StatsOut() = default;
};

class StatsRegistry;

/// A publishing object's link into its loop's registry, embedded as the
/// object's last member. Built, it appends itself to the registry's list
/// (registration order); destroyed, it unlinks; neither allocates. At
/// export the registry calls the owner's `publish_stats(StatsOut&) const`,
/// which names its scopes from what the owner holds. Not movable; must
/// die before its registry.
class StatsHook {
 public:
  template <class Owner>
  StatsHook(StatsRegistry& reg, const Owner& owner)
      : reg_(reg),
        owner_(&owner),
        publish_([](const void* o, StatsOut& out) {
          static_cast<const Owner*>(o)->publish_stats(out);
        }) {
    link();
  }
  ~StatsHook();
  StatsHook(const StatsHook&) = delete;
  StatsHook& operator=(const StatsHook&) = delete;

 private:
  friend class StatsRegistry;
  void link();
  void publish(StatsOut& out) const { publish_(owner_, out); }

  StatsRegistry& reg_;
  const void* owner_;
  void (*publish_)(const void*, StatsOut&);
  StatsHook* prev_ = nullptr;
  StatsHook* next_ = nullptr;
};

/// Export state that a registry owns (StatsRegistry::owned): made on first
/// use and kept until the registry dies, like a gauge or a histogram.
class OwnedGroup {
 public:
  virtual ~OwnedGroup() = default;
  virtual void sample(StatsOut& out) const = 0;
};

class StatsRegistry {
 public:
  /// Returns the gauge/histogram registered under `name`, creating it on
  /// first use. References stay valid for the registry's lifetime.
  /// Looking up an existing name allocates nothing.
  Gauge& gauge(std::string_view name);
  /// Histograms stay registry-owned where several objects (or shards)
  /// record into one distribution: merged exports fold them bucket by
  /// bucket, where hook values are summed as plain numbers.
  Histogram& histogram(std::string_view name);

  /// The registry-owned group under `scope`, made from `*this` on first
  /// use. For state shared by every object of a kind on one loop (the
  /// "tcp" totals); always the same T for one scope.
  template <class T>
  T& owned(std::string_view scope) {
    Entry& e = entry(scope);
    if (!e.owned) e.owned = std::make_unique<T>(*this);
    return static_cast<T&>(*e.owned);
  }

  /// The next instance number for `head` ("mptcp.client"): 1, 2, 3, ... in
  /// birth order on this registry, never reused. Allocates only on a
  /// head's first use.
  uint32_t next_instance(std::string_view head);

  /// The scope StatsOut::open_instance(head, n) writes on this registry
  /// ("mptcp.client@s1#2").
  std::string instance_scope(std::string_view head, uint32_t n) const;

  /// Tags every per-object scope published here (e.g. "@s1"). Sharded
  /// topologies tag each non-zero shard's registry, so merged_flatten()
  /// never sums shard 0's "mptcp.client#2" with shard 1's; shard 0 stays
  /// untagged, as single-shard exports always were.
  void set_scope_tag(std::string tag) { scope_tag_ = std::move(tag); }

  /// Registry-owned gauges, histograms and groups; hooks are no entries.
  size_t size() const { return entries_.size(); }

  /// Current numeric value of a flat key as flatten() would produce it
  /// (histograms contribute "name.count" etc.); 0 when absent. Samples
  /// only the objects the key names, through an index of the hooks' scope
  /// names rebuilt after hooks change. Not for concurrent use.
  double value(std::string_view flat_key) const;

  /// Flat deterministic view: merged_flatten() over this registry alone.
  std::map<std::string, double> flatten() const;

  /// One flat JSON object, keys sorted, doubles printed round-trippably.
  std::string to_json() const;

  /// Deterministic fold of several registry partitions into one flat
  /// view (the export path for per-shard registries). Gauges and hook
  /// values sum as plain numbers; histograms bucket-merge *before*
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
  friend class StatsHook;

  struct Entry {
    // Exactly one of these is set.
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> hist;
    std::unique_ptr<OwnedGroup> owned;
  };

  Entry& entry(std::string_view name);
  /// The one expansion of an entry into (suffix, value) pairs; a gauge
  /// emits one pair with an empty suffix.
  static void expand(const Entry& e, StatsOut& out);
  void build_index() const;

  /// One scope a hook opens (its nth), under its full name.
  struct IndexedScope {
    std::string name;
    const StatsHook* hook;
    uint32_t nth;
  };

  std::map<std::string, Entry, std::less<>> entries_;
  StatsHook* head_ = nullptr;  ///< oldest live hook
  StatsHook* tail_ = nullptr;  ///< newest live hook
  /// value()'s index, sorted by name; stale once a hook links or unlinks.
  mutable std::vector<IndexedScope> index_;
  mutable bool index_valid_ = false;
  std::map<std::string, uint32_t, std::less<>> instances_;
  std::string scope_tag_;
};

}  // namespace mptcp
