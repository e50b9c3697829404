#include "net/stats.h"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <vector>

namespace mptcp {

uint64_t Histogram::approx_percentile(double p) const {
  const size_t i = rank_bucket(p);
  if (count() == 0 || i == 0) return 0;
  if (i == kBuckets) return max();
  // The top bucket, [2^63, 2^64), has no representable bound.
  return i < 64 ? uint64_t{1} << i : UINT64_MAX;
}

uint64_t FineHistogram::percentile(double p) const {
  const size_t i = rank_bucket(p);
  if (count() == 0) return 0;
  return i == kBuckets ? max() : bucket_floor(i);
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

/// The one histogram expansion, shared by hooks' histogram members,
/// registry histograms and value().
template <class H>
void emit_fields(StatsOut& out, std::string_view name, const H& h) {
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

/// Appends a scope's instance suffix: "#<n>" for n > 1, else nothing.
void append_number(std::string& scope, uint32_t n) {
  if (n > 1) scope += '#' + std::to_string(n);
}

/// Walks one registry's hooks in registration order (start() per
/// registry), naming each scope a hook opens as StatsOut documents. With
/// a map it adds every emitted pair under "<scope>.<name>"; without one
/// it collects the scope names and takes no values (value()'s index).
class NamingOut final : public StatsOut {
 public:
  explicit NamingOut(std::map<std::string, double>* out) : out_(out) {}

  void start(std::string_view tag) {
    tag_ = tag;
    numbered_.clear();
  }

  bool open_shared(std::string_view name) override {
    scope.assign(name);
    return opened();
  }

  bool open(std::string_view head, std::string_view name) override {
    scope.assign(head).append(name).append(tag_);
    append_number(scope, ++numbered_[scope]);
    return opened();
  }

  bool open_instance(std::string_view head, uint32_t n) override {
    scope.assign(head).append(tag_);
    append_number(scope, n);
    return opened();
  }

  void emit(std::string_view name, double value) override {
    (*out_)[join(scope, name)] += value;
  }

  std::string scope;                ///< the open scope's full name
  std::vector<std::string> scopes;  ///< without a map: the names opened

 private:
  bool opened() {
    if (out_ != nullptr) return true;
    scopes.push_back(scope);
    return false;
  }

  std::map<std::string, double>* out_;
  std::string_view tag_;
  /// Live objects seen so far per unnumbered scope, this registry.
  std::map<std::string, uint32_t> numbered_;
};

/// Sums the values emitted as `want`, by a registry entry or under the
/// `nth` scope a hook opens.
class FindOut final : public StatsOut {
 public:
  explicit FindOut(std::string_view want, size_t nth = SIZE_MAX)
      : want_(want), nth_(nth), open_(nth == SIZE_MAX) {}

  bool open_shared(std::string_view) override { return next(); }
  bool open(std::string_view, std::string_view) override { return next(); }
  bool open_instance(std::string_view, uint32_t) override { return next(); }

  void emit(std::string_view name, double value) override {
    if (open_ && name == want_) found += value;
  }

  double found = 0.0;

 private:
  bool next() { return open_ = opened_++ == nth_; }

  std::string_view want_;
  size_t nth_;
  size_t opened_ = 0;
  bool open_;
};

}  // namespace

void StatsOut::emit_histogram(std::string_view name, const Histogram& h) {
  emit_fields(*this, name, h);
}

void StatsOut::emit_histogram(std::string_view name, const FineHistogram& h) {
  emit_fields(*this, name, h);
}

void StatsHook::link() {
  prev_ = reg_.tail_;
  (prev_ != nullptr ? prev_->next_ : reg_.head_) = this;
  reg_.tail_ = this;
  reg_.index_valid_ = false;
}

StatsHook::~StatsHook() {
  (prev_ != nullptr ? prev_->next_ : reg_.head_) = next_;
  (next_ != nullptr ? next_->prev_ : reg_.tail_) = prev_;
  reg_.index_valid_ = false;
}

// The transparent find keeps the lookup-of-existing path allocation-free:
// connection constructors re-resolve loop-global names ("tcp") without
// materializing a std::string per call.
StatsRegistry::Entry& StatsRegistry::entry(std::string_view name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) it = entries_.emplace(name, Entry{}).first;
  return it->second;
}

Gauge& StatsRegistry::gauge(std::string_view name) {
  Entry& e = entry(name);
  if (!e.gauge) e = Entry{std::make_unique<Gauge>(), nullptr, nullptr};
  return *e.gauge;
}

Histogram& StatsRegistry::histogram(std::string_view name) {
  Entry& e = entry(name);
  if (!e.hist) e = Entry{nullptr, std::make_unique<Histogram>(), nullptr};
  return *e.hist;
}

uint32_t StatsRegistry::next_instance(std::string_view head) {
  auto it = instances_.find(head);
  if (it == instances_.end()) it = instances_.emplace(head, 0).first;
  return ++it->second;
}

std::string StatsRegistry::instance_scope(std::string_view head,
                                          uint32_t n) const {
  std::string scope = std::string(head) + scope_tag_;
  append_number(scope, n);
  return scope;
}

void StatsRegistry::expand(const Entry& e, StatsOut& out) {
  if (e.gauge) {
    out.emit({}, static_cast<double>(e.gauge->value()));
  } else if (e.hist) {
    out.emit_histogram({}, *e.hist);
  } else if (e.owned) {
    e.owned->sample(out);
  }
}

void StatsRegistry::build_index() const {
  index_.clear();
  NamingOut out(nullptr);
  out.start(scope_tag_);
  for (const StatsHook* h = head_; h != nullptr; h = h->next_) {
    out.scopes.clear();
    h->publish(out);
    for (uint32_t i = 0; i < out.scopes.size(); ++i) {
      index_.push_back({std::move(out.scopes[i]), h, i});
    }
  }
  std::sort(index_.begin(), index_.end(),
            [](const IndexedScope& a, const IndexedScope& b) {
              return a.name < b.name;
            });
  index_valid_ = true;
}

double StatsRegistry::value(std::string_view flat_key) const {
  if (!index_valid_) build_index();
  // Every prefix of the key at a '.', and the key itself, may name an
  // entry or a hook's scope; each one found is asked for the rest of the
  // key. Export path only -- O(depth) lookups.
  double sum = 0.0;
  size_t end = flat_key.size();
  while (true) {
    const std::string_view scope = flat_key.substr(0, end);
    const std::string_view want =
        end < flat_key.size() ? flat_key.substr(end + 1) : std::string_view{};
    if (const auto e = entries_.find(scope); e != entries_.end()) {
      FindOut find(want);
      expand(e->second, find);
      sum += find.found;
    }
    auto it = std::lower_bound(
        index_.begin(), index_.end(), scope,
        [](const IndexedScope& s, std::string_view k) { return s.name < k; });
    for (; it != index_.end() && it->name == scope; ++it) {
      FindOut find(want, it->nth);
      it->hook->publish(find);
      sum += find.found;
    }
    if (end == 0) break;
    end = flat_key.rfind('.', end - 1);
    if (end == std::string_view::npos) break;
  }
  return sum;
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
  NamingOut sink(&out);
  // Histograms accumulate here first so a name present in several
  // partitions expands once, from the union of samples, instead of
  // summing per-partition means/mins.
  std::map<std::string, Histogram> hists;
  for (const StatsRegistry* part : parts) {
    for (const auto& [name, e] : part->entries_) {
      if (e.hist) {
        hists[name].merge_from(*e.hist);
      } else {
        sink.scope = name;
        expand(e, sink);
      }
    }
    sink.start(part->scope_tag_);
    for (const StatsHook* h = part->head_; h != nullptr; h = h->next_) {
      h->publish(sink);
    }
  }
  for (const auto& [name, h] : hists) {
    sink.scope = name;
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
