// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// histograms, cheap enough for per-cycle use.
//
// Design for the hot path:
//   * Names are resolved to integer handles ONCE (registration takes a
//     mutex); recording through a handle is a bounds-checked index into a
//     plain i64 slot — no locks, no atomics, no string hashing.
//   * The registry is DISABLED by default.  Every record operation first
//     branches on a single bool; when disabled the whole instrumentation
//     reduces to a handful of well-predicted branches (verified against
//     bench_perf, see docs/observability.md).
//   * Slot storage is pre-reserved (kMaxMetrics per kind) so recording
//     never reallocates; registration beyond the cap throws.
//
// Thread-safety: registration and snapshot() are mutex-protected and may
// run concurrently with recording.  Recording itself is intentionally not
// atomic — the instrumented paths in this codebase are single-threaded.
// Parallel code must NOT record from workers: it accumulates per-worker
// tallies and records the reduced total after the join (the ODR/UDR
// kernel in load/complete_exchange.cpp records from the calling thread
// only).
// If two threads do record to the same slot, counts may be lost but
// nothing crashes.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/util/math.h"
#include "src/util/thread_annotations.h"
#include "src/util/worker_context.h"

namespace tp::obs {

struct CounterHandle {
  i32 idx = -1;
};
struct GaugeHandle {
  i32 idx = -1;
};
struct HistogramHandle {
  i32 idx = -1;
};

/// Default histogram buckets: powers of two 1, 2, 4, ..., 2^20 plus an
/// overflow bucket.  Suits counts (queue depths, per-cycle rates,
/// latencies in cycles) across five orders of magnitude.
std::vector<i64> default_bucket_bounds();

/// Buckets for durations recorded in microseconds: powers of two up to
/// 2^26 us (~67 s) plus overflow.
std::vector<i64> duration_bucket_bounds();

/// A fixed-bucket histogram over i64 samples.  `bounds` are inclusive
/// upper edges in ascending order; counts has bounds.size() + 1 entries,
/// the last being the overflow bucket.  Usable standalone (SimMetrics
/// embeds one) or as a registry slot.
struct HistogramData {
  std::vector<i64> bounds;
  std::vector<i64> counts;
  i64 count = 0;
  i64 sum = 0;
  i64 min = 0;
  i64 max = 0;

  HistogramData() : HistogramData(default_bucket_bounds()) {}
  explicit HistogramData(std::vector<i64> bucket_bounds);

  void record(i64 v);
  double mean() const;

  /// Folds another histogram with identical bucket bounds into this one
  /// (counts, sum, count, min/max all combine).  The reduction step for
  /// worker pools that accumulate per-worker histograms.
  void merge_from(const HistogramData& other);

  /// Estimated q-quantile (q in [0, 1]) by linear interpolation within the
  /// containing bucket, clamped to the exact observed [min, max].  Exact
  /// for q = 1 (returns max).
  double percentile(double q) const;
};

/// A point-in-time copy of every registered metric.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, i64>> counters;
  std::vector<std::pair<std::string, i64>> gauges;
  std::vector<std::pair<std::string, HistogramData>> histograms;

  /// Lookup helpers; return nullptr when the name was never registered.
  const i64* counter(std::string_view name) const;
  const i64* gauge(std::string_view name) const;
  const HistogramData* histogram(std::string_view name) const;
};

class MetricsRegistry {
 public:
  /// Hard cap per metric kind; keeps slot storage reallocation-free so
  /// handles stay valid while other threads record.
  static constexpr std::size_t kMaxMetrics = 256;

  MetricsRegistry();

  /// Registration: resolves (or creates) the slot for `name`.  Takes a
  /// mutex — call once and keep the handle, not per record.
  CounterHandle counter(std::string_view name) TP_EXCLUDES(mu_);
  GaugeHandle gauge(std::string_view name) TP_EXCLUDES(mu_);
  HistogramHandle histogram(std::string_view name) TP_EXCLUDES(mu_);
  HistogramHandle histogram(std::string_view name, std::vector<i64> bounds)
      TP_EXCLUDES(mu_);

  /// False on pool-worker threads even when the registry is on: recording
  /// is single-writer by contract, and every record operation gates on
  /// this, so nested instrumentation (router counters, planner scopes)
  /// reached from parallel_for_blocks or engine workers drops out instead
  /// of racing.  See util/worker_context.h.
  bool enabled() const { return enabled_ && !in_pool_worker(); }
  void set_enabled(bool on) { enabled_ = on; }

  // --- hot path -----------------------------------------------------------

  void add(CounterHandle h, i64 v = 1) {
    if (enabled_ && h.idx >= 0)
      counter_slots_[static_cast<std::size_t>(h.idx)] += v;
  }
  void set(GaugeHandle h, i64 v) {
    if (enabled_ && h.idx >= 0)
      gauge_slots_[static_cast<std::size_t>(h.idx)] = v;
  }
  /// Raises the gauge to v if v is larger (high-water marks).
  void set_max(GaugeHandle h, i64 v) {
    if (enabled_ && h.idx >= 0) {
      i64& slot = gauge_slots_[static_cast<std::size_t>(h.idx)];
      if (v > slot) slot = v;
    }
  }
  void record(HistogramHandle h, i64 v) {
    if (enabled_ && h.idx >= 0)
      histogram_slots_[static_cast<std::size_t>(h.idx)].record(v);
  }

  // --- slow path ----------------------------------------------------------

  /// Records a scope duration into the histogram `<scope>_us` (created on
  /// first use with duration buckets).  Name lookup per call — intended
  /// for phase-granularity scopes, not inner loops.
  void record_duration_us(std::string_view scope, i64 us);

  /// Folds a locally accumulated histogram into the named slot (created
  /// on first use with `local`'s bounds).  This is how multi-threaded
  /// components publish latency distributions under the registry's
  /// threading contract: workers accumulate private HistogramData, one
  /// thread merges the reduction (see src/service/engine.cpp).  No-op
  /// when disabled or `local` is empty.
  void merge_histogram(std::string_view name, const HistogramData& local);

  /// Thread-safe copy of all metrics.
  MetricsSnapshot snapshot() const TP_EXCLUDES(mu_);

  /// Zeroes every slot (registrations survive).
  void reset() TP_EXCLUDES(mu_);

 private:
  bool enabled_ = false;
  mutable Mutex mu_;
  std::vector<std::string> counter_names_ TP_GUARDED_BY(mu_);
  std::vector<std::string> gauge_names_ TP_GUARDED_BY(mu_);
  std::vector<std::string> histogram_names_ TP_GUARDED_BY(mu_);
  // Slot vectors are deliberately NOT guarded: the hot-path record
  // operations index them without the lock (see the threading contract in
  // the header comment — recording is single-threaded by design, and
  // reserve(kMaxMetrics) keeps the storage stable while registration
  // appends under mu_).
  std::vector<i64> counter_slots_;
  std::vector<i64> gauge_slots_;
  std::vector<HistogramData> histogram_slots_;
};

/// The process-wide registry used by all built-in instrumentation.
MetricsRegistry& registry();

}  // namespace tp::obs
