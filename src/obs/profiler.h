// In-process profiler: phase attribution and flamegraph export.
//
// The Profiler turns the per-thread phase tables (phase_stack.h) into
// reports:
//
//   obs::profiler().start();
//   ... run the workload ...
//   obs::PhaseReport r = obs::profiler().report();
//   std::cout << obs::format_phase_table(r);   // sorted self-time table
//   obs::write_collapsed(r, out);              // "a;b;c 42" flamegraph
//
// One mode: exact wall-ns attribution at every TP_OBS_SCOPE /
// TP_PROF_PHASE boundary, exclusive and inclusive, per phase path.
//
// report() merges every thread's table by path (calls/ns summed), so
// results are thread-count invariant in paths and call counts.  reset()
// clears the tables; call it only while no instrumented work is in
// flight (the tables are single-writer per thread).
//
// See docs/profiling.md for the phase model and the flamegraph workflow.

#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/json.h"
#include "src/obs/phase_stack.h"
#include "src/util/thread_annotations.h"

namespace tp::obs {

/// One merged row: a phase path with its accumulated costs.
struct PhaseRow {
  std::vector<std::string> path;  ///< outermost first
  i64 calls = 0;
  i64 total_ns = 0;  ///< inclusive
  i64 self_ns = 0;   ///< exclusive
};

struct PhaseReport {
  std::vector<PhaseRow> rows;  ///< sorted by self_ns descending
  i64 wall_ns = 0;             ///< start() (or reset()) to report()
  i64 dropped_paths = 0;       ///< table saturation
  i64 depth_overflow = 0;      ///< pushes past kMaxPhaseDepth
  i32 threads = 0;             ///< threads that recorded at least one path

  /// Fraction of wall_ns covered by root phases (depth-1 paths) — the
  /// attribution coverage the acceptance gate checks.
  double coverage() const;
};

class Profiler {
 public:
  /// Enables profiling process-wide and restarts the report's wall
  /// clock.  Safe to call again.
  void start() TP_EXCLUDES(mu_);

  /// Disables profiling.  Tables are kept for a final report().
  void stop();

  bool enabled() const { return prof::phases_on(); }

  /// Merges every thread's table into one report.  Callable while
  /// threads are still running (single-writer tables, atomic fields);
  /// numbers are then a live snapshot.
  PhaseReport report() TP_EXCLUDES(mu_);

  /// Clears every thread's table and the report epoch.  Only call while
  /// no instrumented work is in flight.
  void reset() TP_EXCLUDES(mu_);

 private:
  friend prof::ThreadState& prof::register_thread();
  friend void prof::unregister_thread(prof::ThreadState& st);

  mutable Mutex mu_;
  std::vector<std::shared_ptr<prof::ThreadState>> states_ TP_GUARDED_BY(mu_);
  i64 epoch_ns_ TP_GUARDED_BY(mu_) = 0;  ///< wall_ns origin
};

/// The process-wide profiler used by all built-in instrumentation.
Profiler& profiler();

/// Writes the report in collapsed-stack format ("a;b;c 42\n"), one line
/// per path, suitable for flamegraph.pl / speedscope.  Weights are self-µs
/// (min 1), so every recorded path appears.
void write_collapsed(const PhaseReport& report, std::ostream& out);

/// Renders the sorted phase table (self%, total%, calls, ns/call, self
/// and total ns).
std::string format_phase_table(const PhaseReport& report);

/// Compact profiler state for statusz/metricsz: {"enabled":..., "paths":N}.
JsonValue profiler_status_json();

}  // namespace tp::obs
