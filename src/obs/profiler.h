// In-process profiler: phase attribution, SIGPROF sampling, flamegraph
// export.
//
// The Profiler turns the per-thread phase tables (phase_stack.h) into
// reports:
//
//   obs::profiler().start({});          // phases + sampling
//   ... run the workload ...
//   obs::PhaseReport r = obs::profiler().report();
//   std::cout << obs::format_phase_table(r);   // sorted self-time table
//   obs::write_collapsed(r, out);              // "a;b;c 42" flamegraph
//
// Two modes; start() always turns on the first, ProfilerConfig switches
// the second:
//   phases    deterministic wall-ns attribution at every TP_OBS_SCOPE /
//             TP_PROF_PHASE boundary (exclusive + inclusive, per path)
//   sampling  a per-thread timer_create(CLOCK_THREAD_CPUTIME_ID)/SIGPROF
//             sampler that attributes statistical samples to the current
//             phase path — fine-grain insight with no inner-loop
//             instrumentation
//
// report() merges every thread's table by path (calls/ns/samples summed),
// so results are thread-count invariant in paths and call counts.
// reset() clears the tables; call it only while no instrumented work is
// in flight (the tables are single-writer per thread).
//
// See docs/profiling.md for the phase model and the flamegraph workflow.

#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/phase_stack.h"
#include "src/obs/trace.h"
#include "src/util/thread_annotations.h"

namespace tp::obs {

struct ProfilerConfig {
  bool sampling = true;
  i64 sample_interval_us = 997;  ///< prime, to dodge lockstep with loops
};

/// One merged row: a phase path with its accumulated costs.
struct PhaseRow {
  std::vector<std::string> path;  ///< outermost first
  i64 calls = 0;
  i64 total_ns = 0;  ///< inclusive
  i64 self_ns = 0;   ///< exclusive
  i64 samples = 0;
};

struct PhaseReport {
  std::vector<PhaseRow> rows;  ///< sorted by self_ns descending
  i64 wall_ns = 0;             ///< start() (or reset()) to report()
  i64 total_samples = 0;
  i64 dropped_samples = 0;  ///< ring overflow
  i64 dropped_paths = 0;    ///< table saturation
  i64 depth_overflow = 0;   ///< pushes past kMaxPhaseDepth
  i32 threads = 0;          ///< threads that recorded at least one path
  bool sampling = false;

  /// Fraction of wall_ns covered by root phases (depth-1 paths) — the
  /// attribution coverage the acceptance gate checks.
  double coverage() const;
};

class Profiler {
 public:
  /// Enables profiling process-wide.  Safe to call again with a new
  /// config (bumps the sampling epoch so threads re-arm).
  void start(const ProfilerConfig& config = {}) TP_EXCLUDES(mu_);

  /// Disables all modes and disarms every thread's sampler.  Tables are
  /// kept for a final report().
  void stop() TP_EXCLUDES(mu_);

  bool enabled() const { return prof::phases_on(); }
  bool sampling_enabled() const;

  /// Merges every thread's table into one report.  Callable while
  /// threads are still running (single-writer tables, atomic fields);
  /// numbers are then a live snapshot.
  PhaseReport report() TP_EXCLUDES(mu_);

  /// Clears every thread's table, sample ring, and the report epoch.
  /// Only call while no instrumented work is in flight.
  void reset() TP_EXCLUDES(mu_);

  /// Drains every thread's sample ring into the tracer as timestamped
  /// instant events (cat "sample", one lane per profiled thread) so
  /// --trace exports carry the sampler's view.  No-op when the tracer is
  /// disabled.
  void emit_samples(Tracer& tracer) TP_EXCLUDES(mu_);

 private:
  friend prof::ThreadState& prof::register_thread();
  friend void prof::unregister_thread(prof::ThreadState& st);
  friend void prof::arm_sampler(prof::ThreadState& st);

  mutable Mutex mu_;
  std::vector<std::shared_ptr<prof::ThreadState>> states_ TP_GUARDED_BY(mu_);
  ProfilerConfig config_ TP_GUARDED_BY(mu_);
  i64 epoch_ns_ TP_GUARDED_BY(mu_) = 0;  ///< wall_ns origin
  i64 next_tid_ TP_GUARDED_BY(mu_) = 0;
  bool handler_installed_ TP_GUARDED_BY(mu_) = false;
};

/// The process-wide profiler used by all built-in instrumentation.
Profiler& profiler();

/// Writes the report in collapsed-stack format ("a;b;c 42\n"), one line
/// per path, suitable for flamegraph.pl / speedscope.  Weights are sample
/// counts when the sampler ran, else self-µs (min 1) so phase-only runs
/// still produce a well-formed flamegraph.
void write_collapsed(const PhaseReport& report, std::ostream& out);

/// Renders the sorted phase table (self%, total%, calls, ns/call, self
/// and total ns, and samples when the sampler ran).
std::string format_phase_table(const PhaseReport& report);

/// Compact profiler state for statusz: {"enabled":..., "sampling":...,
/// "paths":N, "samples":N}.
JsonValue profiler_status_json();

}  // namespace tp::obs
