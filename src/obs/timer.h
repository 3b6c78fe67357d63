// Monotonic wall-time measurement.
//
// Stopwatch is a thin steady_clock wrapper.  For the combined timer +
// trace-span RAII used by the phase instrumentation, see obs.h
// (TP_OBS_SCOPE).

#pragma once

#include <chrono>

#include "src/util/math.h"

namespace tp::obs {

/// Monotonic nanosecond stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(now_ns()) {}

  /// Nanoseconds of steady_clock time since an arbitrary fixed origin.
  static i64 now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void restart() { start_ = now_ns(); }
  i64 elapsed_ns() const { return now_ns() - start_; }

 private:
  i64 start_;
};

}  // namespace tp::obs
