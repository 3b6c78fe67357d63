// Bounded-memory windowed time series.
//
// A TimeSeries buckets (tick, value) samples into contiguous time windows
// of equal width and keeps min/max/sum/count per window.  The window
// buffer has a fixed capacity: when a sample lands past the last window,
// adjacent windows are merged pairwise and the window width doubles, so an
// arbitrarily long run always fits in `capacity` windows and memory stays
// bounded.  Resolution degrades gracefully — a run of C cycles is covered
// at width ceil_pow2-ish C/capacity, never dropped.
//
// The simulators feed one series per telemetry channel (link forwards,
// queue depths, stalls) with tick = simulation cycle, which is what makes
// "when did the network saturate" answerable after the fact (see
// linkprobe.h and docs/observability.md).
//
// Not thread-safe; each series is owned by a single recording loop.

#pragma once

#include <cstddef>
#include <vector>

#include "src/obs/registry.h"
#include "src/util/math.h"

namespace tp::obs {

/// Aggregate statistics of the samples that landed in one window.
struct WindowStats {
  i64 count = 0;
  i64 sum = 0;
  i64 min = 0;  ///< meaningful only when count > 0
  i64 max = 0;

  void record(i64 v) {
    if (count == 0) {
      min = v;
      max = v;
    } else {
      if (v < min) min = v;
      if (v > max) max = v;
    }
    ++count;
    sum += v;
  }

  /// Folds another window into this one (used when windows merge).
  void merge(const WindowStats& o) {
    if (o.count == 0) return;
    if (count == 0) {
      *this = o;
      return;
    }
    if (o.min < min) min = o.min;
    if (o.max > max) max = o.max;
    count += o.count;
    sum += o.sum;
  }

  double mean() const {
    return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                     : 0.0;
  }
};

class TimeSeries {
 public:
  /// `initial_width` ticks per window (>= 1); `capacity` windows (>= 2).
  explicit TimeSeries(i64 initial_width = 1, std::size_t capacity = 64);

  /// Records one sample at tick t (>= 0).  Amortized O(1): a merge pass
  /// touches `capacity` windows but halves the occupied count, and widths
  /// only ever double.
  void record(i64 t, i64 v) {
    std::size_t idx = static_cast<std::size_t>(t / width_);
    if (idx >= windows_.size()) idx = grow_to(t);
    windows_[idx].record(v);
    if (idx >= used_) used_ = idx + 1;
  }

  i64 window_width() const { return width_; }
  std::size_t capacity() const { return windows_.size(); }

  /// Windows [0, num_windows()); trailing never-touched windows are not
  /// reported.  A window inside the range can still have count == 0 (no
  /// sample landed there).
  std::size_t num_windows() const { return used_; }
  const WindowStats& window(std::size_t i) const;
  /// First tick covered by window i (the window spans width() ticks).
  i64 window_start(std::size_t i) const {
    return static_cast<i64>(i) * width_;
  }

  /// Sum over all windows (total of every recorded value).
  i64 total_sum() const;
  i64 total_count() const;

  /// Zeroes all windows and restores the initial window width.
  void clear();

 private:
  /// Merges windows until tick t falls inside the buffer; returns t's
  /// window index.
  std::size_t grow_to(i64 t);

  i64 initial_width_ = 1;
  i64 width_ = 1;
  std::size_t used_ = 0;
  std::vector<WindowStats> windows_;
};

/// Ring of per-tick histograms answering "what happened over the last N
/// ticks" — the live-rate counterpart of TimeSeries (which covers a whole
/// run at degrading resolution; this covers only the recent past at full
/// resolution).  Tick is the caller's clock, one slot per tick value
/// (the service engine uses seconds since start, so a 64-slot ring holds
/// the 1s/10s/60s windows statusz reports).  Stale slots are lazily
/// overwritten when their ring position comes around again and ignored by
/// reads, so an idle stretch costs nothing.  merged() reduces the live
/// slots into one HistogramData with the configured bounds: windowed
/// count and sum as well as percentiles.
///
/// Not thread-safe; guard it with the owning component's lock.
class RollingHistogram {
 public:
  explicit RollingHistogram(std::vector<i64> bounds,
                            std::size_t capacity = 64);

  void record(i64 tick, i64 v);

  /// Histogram of every sample with tick in (now_tick - n, now_tick].
  /// `n` is clamped to the ring capacity (asking for more than the ring
  /// remembers answers with what it has).
  HistogramData merged(i64 now_tick, i64 n) const;

  std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    i64 tick = -1;  ///< -1 = never written
    HistogramData h;
  };
  std::vector<i64> bounds_;
  std::vector<Slot> slots_;
};

}  // namespace tp::obs
