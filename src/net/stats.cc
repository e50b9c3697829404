#include "net/stats.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

namespace mptcp {

uint64_t Histogram::approx_percentile(double p) const {
  if (count_ == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  const double target = p * static_cast<double>(count_);
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (static_cast<double>(seen) >= target && buckets_[i] > 0) {
      return i == 0 ? 0 : uint64_t{1} << i;
    }
  }
  return max_;
}

void Histogram::merge_from(const Histogram& o) {
  if (o.count_ == 0) return;
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
  if (count_ == 0 || o.min_ < min_) min_ = o.min_;
  if (o.max_ > max_) max_ = o.max_;
  count_ += o.count_;
  sum_ += o.sum_;
}

uint64_t FineHistogram::percentile(double p) const {
  if (count_ == 0) return 0;
  if (p < 0.0) p = 0.0;
  if (p > 1.0) p = 1.0;
  const double target = p * static_cast<double>(count_);
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (static_cast<double>(seen) >= target && buckets_[i] > 0) {
      return bucket_floor(i);
    }
  }
  return max_;
}

void FineHistogram::merge_from(const FineHistogram& o) {
  if (o.count_ == 0) return;
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
  if (count_ == 0 || o.min_ < min_) min_ = o.min_;
  if (o.max_ > max_) max_ = o.max_;
  count_ += o.count_;
  sum_ += o.sum_;
}

namespace {

/// Joins a scope and a member name; an empty name is the scope itself.
std::string join(std::string_view scope, std::string_view name) {
  std::string key;
  key.reserve(scope.size() + 1 + name.size());
  key += scope;
  if (!scope.empty() && !name.empty()) key += '.';
  key += name;
  return key;
}

/// The one histogram expansion, shared by groups' histogram members,
/// registry histograms and value().
template <class H>
void emit_fields(SampleSink& out, std::string_view name, const H& h) {
  const auto put = [&](std::string_view field, double v) {
    out.emit(join(name, field), v);
  };
  put("count", static_cast<double>(h.count()));
  put("sum", static_cast<double>(h.sum()));
  put("min", static_cast<double>(h.min()));
  put("max", static_cast<double>(h.max()));
  put("mean", h.mean());
  if constexpr (std::is_same_v<H, FineHistogram>) {
    put("p50", static_cast<double>(h.percentile(0.5)));
    put("p99", static_cast<double>(h.percentile(0.99)));
    put("p999", static_cast<double>(h.percentile(0.999)));
  }
}

/// Adds every emitted pair to `out` under "<scope>.<name>".
class AddSink final : public SampleSink {
 public:
  AddSink(std::map<std::string, double>& out, std::string_view scope)
      : out_(out), scope_(scope) {}
  void emit(std::string_view name, double value) override {
    out_[join(scope_, name)] += value;
  }

 private:
  std::map<std::string, double>& out_;
  std::string_view scope_;
};

/// Sums the emitted values named `want`.
class FindSink final : public SampleSink {
 public:
  explicit FindSink(std::string_view want) : want_(want) {}
  void emit(std::string_view name, double value) override {
    if (name == want_) found_ += value;
  }
  double found() const { return found_; }

 private:
  std::string_view want_;
  double found_ = 0.0;
};

}  // namespace

void SampleSink::emit_histogram(std::string_view name, const Histogram& h) {
  emit_fields(*this, name, h);
}

void SampleSink::emit_histogram(std::string_view name,
                                const FineHistogram& h) {
  emit_fields(*this, name, h);
}

const std::string& StatsRegistry::Handle::scope() const {
  static const std::string kNone;
  return reg_ != nullptr ? it_->first : kNone;
}

void StatsRegistry::Handle::reset() {
  if (reg_ != nullptr) std::exchange(reg_, nullptr)->entries_.erase(it_);
}

// The transparent find keeps the lookup-of-existing path allocation-free:
// connection constructors re-resolve loop-global names ("tcp") without
// materializing a std::string per call.
StatsRegistry::Entry& StatsRegistry::entry(std::string_view name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) it = entries_.emplace(name, Entry{});
  return it->second;
}

Gauge& StatsRegistry::gauge(std::string_view name) {
  Entry& e = entry(name);
  if (!e.gauge) e = Entry{std::make_unique<Gauge>(), nullptr, {}, nullptr};
  return *e.gauge;
}

Histogram& StatsRegistry::histogram(std::string_view name) {
  Entry& e = entry(name);
  if (!e.hist) e = Entry{nullptr, std::make_unique<Histogram>(), {}, nullptr};
  return *e.hist;
}

StatsRegistry::Handle StatsRegistry::group(std::string scope, GroupFn fn) {
  return Handle(*this, entries_.emplace(std::move(scope),
                                        Entry{nullptr, nullptr, std::move(fn),
                                              nullptr}));
}

std::string StatsRegistry::unique_scope(const std::string& base) {
  const std::string tagged = base + scope_tag_;
  const int n = ++scope_counts_[tagged];
  if (n == 1) return tagged;
  return tagged + "#" + std::to_string(n);
}

const Gauge* StatsRegistry::find_gauge(std::string_view name) const {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.gauge.get();
}

void StatsRegistry::expand(const Entry& e, SampleSink& out) {
  if (e.gauge) {
    out.emit({}, static_cast<double>(e.gauge->value()));
  } else if (e.hist) {
    out.emit_histogram({}, *e.hist);
  } else if (e.group) {
    e.group(out);
  } else if (e.owned) {
    e.owned->sample(out);
  }
}

double StatsRegistry::value(std::string_view flat_key) const {
  // The longest prefix of the key (at a '.') that names an entry decides:
  // that entry's expansion is searched for the rest of the key. Export
  // path only -- O(depth) lookups.
  size_t end = flat_key.size();
  while (end > 0) {
    const auto [lo, hi] = entries_.equal_range(flat_key.substr(0, end));
    if (lo != hi) {
      FindSink sink(end < flat_key.size() ? flat_key.substr(end + 1)
                                          : std::string_view{});
      for (auto it = lo; it != hi; ++it) expand(it->second, sink);
      return sink.found();
    }
    end = flat_key.rfind('.', end - 1);
    if (end == std::string_view::npos) break;
  }
  return 0.0;
}

std::map<std::string, double> StatsRegistry::flatten() const {
  const StatsRegistry* self = this;
  return merged_flatten({&self, 1});
}

std::string StatsRegistry::to_json() const {
  const StatsRegistry* self = this;
  return merged_to_json({&self, 1});
}

std::map<std::string, double> StatsRegistry::merged_flatten(
    std::span<const StatsRegistry* const> parts) {
  std::map<std::string, double> out;
  // Histograms accumulate here first so a name present in several
  // partitions expands once, from the union of samples, instead of
  // summing per-partition means/mins.
  std::map<std::string, Histogram> hists;
  for (const StatsRegistry* part : parts) {
    for (const auto& [name, e] : part->entries_) {
      if (e.hist) {
        hists[name].merge_from(*e.hist);
      } else {
        AddSink sink(out, name);
        expand(e, sink);
      }
    }
  }
  for (const auto& [name, h] : hists) {
    AddSink sink(out, name);
    sink.emit_histogram({}, h);
  }
  return out;
}

std::string StatsRegistry::merged_to_json(
    std::span<const StatsRegistry* const> parts) {
  const std::map<std::string, double> flat = merged_flatten(parts);
  std::string out = "{\n";
  char buf[64];
  size_t i = 0;
  for (const auto& [name, v] : flat) {
    // %.17g round-trips every finite double through strtod.
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += "  \"";
    out += name;
    out += "\": ";
    out += buf;
    out += ++i < flat.size() ? ",\n" : "\n";
  }
  out += "}\n";
  return out;
}

std::map<std::string, double> StatsRegistry::parse_flat_json(
    std::string_view json) {
  std::map<std::string, double> out;
  size_t i = 0;
  const size_t n = json.size();
  while (i < n) {
    // Next key.
    while (i < n && json[i] != '"') ++i;
    if (i >= n) break;
    const size_t key_begin = ++i;
    while (i < n && json[i] != '"') ++i;
    if (i >= n) break;
    const std::string key(json.substr(key_begin, i - key_begin));
    ++i;  // closing quote
    while (i < n && (json[i] == ':' || std::isspace(
                                           static_cast<unsigned char>(json[i]))))
      ++i;
    if (i >= n) break;
    // strtod needs a terminated string: copy the value's own token (no
    // number contains a delimiter), not the rest of the input.
    size_t j = i;
    while (j < n && json[j] != ',' && json[j] != '}' &&
           !std::isspace(static_cast<unsigned char>(json[j]))) {
      ++j;
    }
    char* end = nullptr;
    const std::string num(json.substr(i, j - i));
    const double v = std::strtod(num.c_str(), &end);
    if (end == num.c_str()) break;  // not a number: malformed, stop
    out[key] = v;
    i += static_cast<size_t>(end - num.c_str());
  }
  return out;
}

}  // namespace mptcp
