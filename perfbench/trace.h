// Outside-in per-layer tracing for the benchmark's traced runs.
//
// The simulator has no internal profiler, so the traced run measures each
// layer from the outside: it splices pass-through timing taps into the
// packet path through public APIs only (Topology::splice_ab/ba and
// Middlebox::set_downstream) and times every downstream deliver() call.
//
//   link egress --> [egress tap] --> mbox .. mbox --> [pre-node tap] --> node
//
// The pre-node span is a router span or a host span, by the node it ends
// in; the egress span minus the pre-node span is middlebox self time. Every
// link direction gets both taps, so on a link without middleboxes that
// difference is the cost of one pass-through tap: the floor of the
// measurement, and the middlebox share a workload without middleboxes
// reports.
//
// A router span covers the route lookup plus the enqueue onto the next
// link; a host span covers everything below Host::deliver (tcp, the MPTCP
// core, the app callbacks, and the enqueue of any segments they send).
// Spans nest through a per-shard frame stack, so every span reports self
// time and the three classes never double count: the engine's own share
// of a slice is the slice's thread time minus all three.
//
// Taps forward segments untouched (bursts stay bursts), so a traced run
// must reproduce the untraced run's outcome exactly; run.py checks.
// Each tap belongs to the shard whose thread runs it (the shard of the
// node the link direction points at) and writes only that shard's
// buffer, so shard threads never share trace state.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/topology.h"

namespace perfbench {

/// Which node class a span ends in.
enum class SpanKind : uint8_t { kRouter, kHost, kMiddlebox };

/// One shard's trace buffer: per-kind self-time samples and totals.
/// Cache-line aligned so neighbouring shards' buffers never share a line.
struct alignas(64) ShardTrace {
  /// Self time per segment, nanoseconds, kept exactly so percentiles are
  /// not quantized to histogram buckets.
  std::vector<uint32_t> ns[3];
  uint64_t total_ns[3] = {0, 0, 0};
  /// Payload bytes leaving hosts (first hop only): what subflows sent,
  /// retransmissions included.
  uint64_t payload_sent = 0;
  /// Self-time bookkeeping: child time accumulated by the innermost open
  /// span (null when no span is open on this shard's thread).
  uint64_t* child_ns = nullptr;
};

/// Self-time distribution of one span kind across every shard. `tail` is
/// the value with ten samples beyond it, the highest percentile a run can
/// report honestly (the maximum with ten or fewer samples).
struct SpanSummary {
  uint64_t p50 = 0;
  uint64_t tail = 0;
  uint64_t total_ns = 0;
};

/// Installs taps on every link direction of a topology and aggregates
/// what they measure. Must outlive the run; taps hold raw pointers into
/// the per-shard buffers owned here.
class LayerTrace {
 public:
  /// Splices the taps. Call after the topology (and any middlebox chains)
  /// is built and before traffic flows.
  explicit LayerTrace(mptcp::Topology& topo);
  ~LayerTrace();

  LayerTrace(const LayerTrace&) = delete;
  LayerTrace& operator=(const LayerTrace&) = delete;

  SpanSummary summary(SpanKind k) const;
  uint64_t payload_sent() const;

 private:
  class Tap;
  std::vector<ShardTrace> shards_;
  std::vector<std::unique_ptr<Tap>> taps_;
};

}  // namespace perfbench
