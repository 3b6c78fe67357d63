// Umbrella header for the observability subsystem.
//
//   MetricsRegistry  named counters / gauges / histograms (registry.h)
//   Stopwatch        steady_clock timing                  (timer.h)
//   Tracer           Chrome-trace phase spans + counters  (trace.h)
//   LinkProbe        per-directed-link accumulators       (linkprobe.h)
//   TimeSeries       bounded windowed time series         (timeseries.h)
//   export_json / export_chrome_trace / export_link_jsonl (export.h)
//
// Instrumentation idiom — a phase span that both times and traces:
//
//   void NetworkSim::run(...) {
//     TP_OBS_SCOPE("sim.run");          // histogram sim.run_us + trace span
//     ...
//   }
//
// and a named counter bumped from a hot call site:
//
//   TP_OBS_COUNT("router.tie_breaks");              // += 1
//   TP_OBS_COUNT("router.paths_enumerated", n);     // += n
//
// Both compile to the real instrumentation unconditionally; with the
// registry and tracer disabled (the default) they cost a handful of
// branch-predicted no-ops, verified against bench_perf (see
// docs/observability.md).  Naming conventions are documented there too.

#pragma once

#include "src/obs/export.h"
#include "src/obs/json.h"
#include "src/obs/linkprobe.h"
#include "src/obs/phase_stack.h"
#include "src/obs/profiler.h"
#include "src/obs/prometheus.h"
#include "src/obs/registry.h"
#include "src/obs/timer.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace.h"

namespace tp::obs {

/// RAII phase span: opens a trace span (if the tracer is enabled),
/// records the elapsed time into the histogram `<name>_us` (if the
/// registry is enabled), and pushes the name onto the profiler's phase
/// stack (if profiling is enabled — phase_stack.h).  Inactive when all
/// three are disabled.  Unlike the registry, the profiler is NOT gated
/// on pool workers: kernels running under parallel_for or the service
/// pool are exactly what phase attribution is for.
class Scope {
 public:
  explicit Scope(const char* name, const char* cat = "phase") : name_(name) {
    trace_ = tracer().enabled();
    const bool metrics = registry().enabled();
    active_ = trace_ || metrics;
    if (active_) {
      if (trace_) tracer().begin(name_, cat);
      start_ns_ = Stopwatch::now_ns();
    }
    if (prof::phases_on())
      prof_ = prof::phase_push(name, prof::ct_hash(name));
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  ~Scope() {
    if (prof_) prof::phase_pop();
    if (!active_) return;
    const i64 us = (Stopwatch::now_ns() - start_ns_) / 1000;
    if (trace_) tracer().end(name_);
    registry().record_duration_us(name_, us);
  }

 private:
  const char* name_;
  i64 start_ns_ = 0;
  bool active_ = false;
  bool trace_ = false;
  bool prof_ = false;
};

}  // namespace tp::obs

#define TP_OBS_CONCAT_INNER(a, b) a##b
#define TP_OBS_CONCAT(a, b) TP_OBS_CONCAT_INNER(a, b)

/// Times and traces the enclosing scope as a named phase.
#define TP_OBS_SCOPE(...) \
  const ::tp::obs::Scope TP_OBS_CONCAT(tp_obs_scope_, __LINE__)(__VA_ARGS__)

/// Adds to a named counter (default increment 1).  The handle is resolved
/// once per call site (function-local static); a disabled registry never
/// reaches the resolution, so the disabled cost is one load + branch.
#define TP_OBS_COUNT(name, ...)                                            \
  do {                                                                     \
    ::tp::obs::MetricsRegistry& tp_obs_reg = ::tp::obs::registry();        \
    if (tp_obs_reg.enabled()) {                                            \
      static const ::tp::obs::CounterHandle tp_obs_h =                     \
          ::tp::obs::registry().counter(name);                             \
      tp_obs_reg.add(tp_obs_h __VA_OPT__(, ) __VA_ARGS__);                 \
    }                                                                      \
  } while (false)
