// Umbrella header for the observability subsystem.
//
//   MetricsRegistry   named counters / gauges / histograms (registry.h)
//   Stopwatch         steady_clock timing                  (timer.h)
//   Tracer            Chrome-trace phase spans + counters  (trace.h)
//   Profiler          exact per-path phase times           (profiler.h)
//   LinkProbe         per-directed-link accumulators       (linkprobe.h)
//   TimeSeries        bounded windowed time series         (timeseries.h)
//   RollingHistogram  sliding-window latency histograms    (timeseries.h)
//   export_json / export_chrome_trace / export_link_jsonl (export.h)
//   Prometheus text exposition of a registry snapshot    (prometheus.h)
//
// Instrumentation idiom — a phase span that times, traces and profiles:
//
//   void NetworkSim::run(...) {
//     TP_OBS_SCOPE("sim.run");   // sim.run_us + trace span + profiler phase
//     ...
//   }
//
// a profiler-only phase, for a grain too fine for a metric or a span:
//
//   TP_PROF_PHASE("odr.walk");   // profiler phase only
//
// and a named counter bumped from a hot call site:
//
//   TP_OBS_COUNT("router.tie_breaks");              // += 1
//   TP_OBS_COUNT("router.paths_enumerated", n);     // += n
//
// All compile to the real instrumentation unconditionally; with the
// registry, tracer and profiler disabled (the default) they cost a
// handful of branch-predicted no-ops, verified against bench_perf (see
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

/// A phase name and its path hash, both fixed at compile time.  The
/// consteval constructor takes only a constant string, which the
/// profiler's tables keep by pointer (phase_stack.h).
struct PhaseName {
  // Implicit, so a literal converts where a PhaseName is expected.
  consteval PhaseName(const char* n) : name(n), hash(prof::ct_hash(n)) {}
  const char* name;
  u64 hash;
};

/// RAII phase span with up to three sinks: a trace span (if the tracer is
/// enabled), the histogram `<name>_us` (if the registry is enabled), and
/// the profiler's phase stack (if profiling is enabled).  Sinks::kProfiler
/// keeps only the last, for a grain too fine for a metric or a span but
/// right for attribution; profile-only phases never reach a trace.
/// Inactive when its sinks are disabled.  Unlike the registry, the
/// profiler is NOT gated on pool workers: kernels running under
/// parallel_for or the service pool are exactly what phase attribution is
/// for.
class Scope {
 public:
  enum class Sinks { kAll, kProfiler };

  explicit Scope(PhaseName phase, Sinks sinks = Sinks::kAll)
      : name_(phase.name) {
    if (sinks == Sinks::kAll) {
      trace_ = tracer().enabled();
      timed_ = trace_ || registry().enabled();
      if (trace_) tracer().begin(name_);
      if (timed_) start_ns_ = Stopwatch::now_ns();
    }
    if (prof::phases_on()) prof_ = prof::phase_push(phase.name, phase.hash);
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  ~Scope() {
    if (prof_) prof::phase_pop();
    if (!timed_) return;
    const i64 us = (Stopwatch::now_ns() - start_ns_) / 1000;
    if (trace_) tracer().end(name_);
    registry().record_duration_us(name_, us);
  }

 private:
  const char* name_;
  i64 start_ns_ = 0;
  bool timed_ = false;
  bool trace_ = false;
  bool prof_ = false;
};

}  // namespace tp::obs

#define TP_OBS_CONCAT_INNER(a, b) a##b
#define TP_OBS_CONCAT(a, b) TP_OBS_CONCAT_INNER(a, b)

/// Times, traces and profiles the enclosing scope as phase `name` (a
/// string literal).
#define TP_OBS_SCOPE(name) \
  const ::tp::obs::Scope TP_OBS_CONCAT(tp_obs_scope_, __LINE__)(name)

/// Attributes the enclosing scope to phase `name` (a string literal) in
/// the profiler alone; one predicted branch when profiling is off.
#define TP_PROF_PHASE(name)                                       \
  const ::tp::obs::Scope TP_OBS_CONCAT(tp_prof_phase_, __LINE__)( \
      name, ::tp::obs::Scope::Sinks::kProfiler)

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
