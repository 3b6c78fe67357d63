#include "src/obs/timeseries.h"

#include <algorithm>

#include "src/util/error.h"

namespace tp::obs {

TimeSeries::TimeSeries(i64 initial_width, std::size_t capacity)
    : initial_width_(initial_width),
      width_(initial_width),
      windows_(capacity) {
  TP_REQUIRE(initial_width >= 1, "window width must be >= 1");
  TP_REQUIRE(capacity >= 2, "time series needs at least two windows");
}

const WindowStats& TimeSeries::window(std::size_t i) const {
  TP_REQUIRE(i < used_, "time series window index out of range");
  return windows_[i];
}

i64 TimeSeries::total_sum() const {
  i64 sum = 0;
  for (std::size_t i = 0; i < used_; ++i) sum += windows_[i].sum;
  return sum;
}

i64 TimeSeries::total_count() const {
  i64 count = 0;
  for (std::size_t i = 0; i < used_; ++i) count += windows_[i].count;
  return count;
}

void TimeSeries::clear() {
  for (WindowStats& w : windows_) w = WindowStats{};
  width_ = initial_width_;
  used_ = 0;
}

RollingHistogram::RollingHistogram(std::vector<i64> bounds,
                                   std::size_t capacity)
    : bounds_(std::move(bounds)), slots_(capacity) {
  TP_REQUIRE(capacity >= 1, "rolling histogram needs at least one slot");
  for (Slot& slot : slots_) slot.h = HistogramData(bounds_);
}

void RollingHistogram::record(i64 tick, i64 v) {
  TP_REQUIRE(tick >= 0, "rolling histogram tick must be >= 0");
  Slot& slot = slots_[static_cast<std::size_t>(tick) % slots_.size()];
  if (slot.tick != tick) {
    slot.tick = tick;
    slot.h = HistogramData(bounds_);
  }
  slot.h.record(v);
}

HistogramData RollingHistogram::merged(i64 now_tick, i64 n) const {
  HistogramData out(bounds_);
  n = std::min<i64>(n, static_cast<i64>(slots_.size()));
  for (const Slot& slot : slots_)
    if (slot.tick > now_tick - n && slot.tick <= now_tick)
      out.merge_from(slot.h);
  return out;
}

std::size_t TimeSeries::grow_to(i64 t) {
  TP_REQUIRE(t >= 0, "time series tick must be >= 0");
  const std::size_t cap = windows_.size();
  std::size_t idx = static_cast<std::size_t>(t / width_);
  while (idx >= cap) {
    // Pairwise merge: window j absorbs windows 2j and 2j+1 of the old
    // width, halving the occupied prefix.
    const std::size_t half = (used_ + 1) / 2;
    for (std::size_t j = 0; j < half; ++j) {
      WindowStats merged = windows_[2 * j];
      if (2 * j + 1 < used_) merged.merge(windows_[2 * j + 1]);
      windows_[j] = merged;
    }
    for (std::size_t j = half; j < used_; ++j) windows_[j] = WindowStats{};
    used_ = half;
    width_ *= 2;
    idx = static_cast<std::size_t>(t / width_);
  }
  return idx;
}

}  // namespace tp::obs
