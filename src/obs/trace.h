// Phase tracer emitting Chrome-trace-format events.
//
// The tracer records begin/end ("B"/"E") event pairs against a steady
// clock epoch fixed at process start.  export_chrome_trace() (export.h)
// serializes the buffer as a Chrome trace that loads directly in
// chrome://tracing and Perfetto.
//
// Like the metrics registry, the tracer is disabled by default; begin/end
// on a disabled tracer is a single predicted branch.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/util/math.h"
#include "src/util/thread_annotations.h"

namespace tp::obs {

/// One trace_event record.  Timestamps are nanoseconds since the tracer's
/// epoch; the exporter converts to the format's microseconds.
struct TraceEvent {
  std::string name;
  std::string cat;
  char phase = 'B';  ///< 'B' begin, 'E' end, 'i' instant, 'C' counter,
                     ///< 'X' complete (carries dur_ns)
  i64 ts_ns = 0;
  i64 tid = 0;
  i64 value = 0;   ///< counter events only: the sampled value
  i64 dur_ns = 0;  ///< complete events only: the span duration
};

class Tracer {
 public:
  Tracer();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span.  Every begin() must be matched by an end() with the
  /// same name (Chrome pairs them per tid by LIFO order).
  void begin(std::string_view name, std::string_view cat = "phase");
  void end(std::string_view name);

  /// A zero-duration marker event.
  void instant(std::string_view name, std::string_view cat = "event");

  /// A complete ('X') event: one self-contained span that ENDS now and
  /// lasted `dur_ns`.  Unlike begin/end pairs this needs no LIFO nesting
  /// per thread, which is what makes it safe for per-request spans whose
  /// lifetimes interleave arbitrarily across engine workers (the tracer
  /// itself is mutex-protected; see src/service/engine.cpp).
  void complete(std::string_view name, i64 dur_ns,
                std::string_view cat = "span");

  /// A counter sample: Chrome/Perfetto render successive samples of the
  /// same name as a filled value-over-time track, which is how the
  /// simulators surface per-window link saturation on the timeline.
  void counter(std::string_view name, i64 value,
               std::string_view cat = "counter");

  /// Copy of the recorded buffer (thread-safe).
  std::vector<TraceEvent> events() const TP_EXCLUDES(mu_);

  void clear() TP_EXCLUDES(mu_);

 private:
  void push(std::string_view name, std::string_view cat, char phase,
            i64 value = 0, i64 dur_ns = 0) TP_EXCLUDES(mu_);

  bool enabled_ = false;
  i64 epoch_ns_ = 0;
  mutable Mutex mu_;
  std::vector<TraceEvent> events_ TP_GUARDED_BY(mu_);
};

/// The process-wide tracer used by all built-in instrumentation.
Tracer& tracer();

}  // namespace tp::obs
