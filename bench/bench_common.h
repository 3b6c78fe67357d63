// Shared scaffolding for the experiment benches.
//
// Every bench binary regenerates one experiment of DESIGN.md's index: it
// first prints the paper-vs-measured table for that experiment (the
// "rows/series the paper reports"), then runs google-benchmark timings of
// the underlying computation.  TP_BENCH_MAIN wires the two together.
//
// Observability: setting TP_OBS=1 in the environment enables the global
// metrics registry for the run, and the bench prints the accumulated
// counters/histograms after the timing section — library counters (path
// enumerations, pairs evaluated, sim cycles, ...) land next to the wall
// times.  TP_OBS_STATS=<path> additionally appends the snapshot as a JSON
// line (the same format as the CLI's --stats-json).  NOTE: enabling the
// registry perturbs the timings by the recording cost; leave TP_OBS unset
// for clean numbers.
//
// Profiling: TP_PROF=1 turns the in-process phase profiler on for the
// whole run and prints the phase cost table after the timing section;
// TP_PROF=<path> additionally writes collapsed stacks (flamegraph input)
// to <path>.  Same caveat as TP_OBS: the phase push/pop cost is inside
// the timed regions, so leave it unset for numbers meant for benchstat
// gating.

#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "src/analysis/table.h"
#include "src/obs/obs.h"

#define TP_BENCH_MAIN(print_fn)                                   \
  int main(int argc, char** argv) {                               \
    ::tp::bench_obs_init();                                       \
    print_fn();                                                   \
    ::benchmark::Initialize(&argc, argv);                         \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv))     \
      return 1;                                                   \
    ::benchmark::RunSpecifiedBenchmarks();                        \
    ::benchmark::Shutdown();                                      \
    ::tp::bench_obs_report();                                     \
    ::tp::bench_prof_report();                                    \
    return 0;                                                     \
  }

namespace tp {

inline void bench_banner(const char* experiment, const char* claim) {
  std::cout << "\n=== " << experiment << " ===\n" << claim << "\n\n";
}

/// Enables the metrics registry when TP_OBS is set in the environment,
/// and the in-process profiler when TP_PROF is set (TP_PROF=<path> also
/// selects a collapsed-stack output file, reported by bench_obs_report).
inline void bench_obs_init() {
  if (std::getenv("TP_OBS") != nullptr) obs::registry().set_enabled(true);
  if (std::getenv("TP_PROF") != nullptr) obs::profiler().start();
}

/// Prints the accumulated registry contents (and appends a JSON line to
/// $TP_OBS_STATS if set).  No-op when the registry is disabled.
inline void bench_obs_report() {
  if (!obs::registry().enabled()) return;
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  std::cout << "\n--- observability counters (TP_OBS) ---\n";
  Table table({"metric", "value"});
  for (const auto& [name, v] : snap.counters)
    table.add_row({name, fmt(static_cast<long long>(v))});
  for (const auto& [name, v] : snap.gauges)
    table.add_row({name, fmt(static_cast<long long>(v))});
  for (const auto& [name, h] : snap.histograms)
    table.add_row(
        {name, "n=" + fmt(static_cast<long long>(h.count)) +
                   " mean=" + fmt(h.mean(), 2) +
                   " p50=" + fmt(h.percentile(0.50), 2) +
                   " p95=" + fmt(h.percentile(0.95), 2) +
                   " max=" + fmt(static_cast<long long>(h.max))});
  table.print(std::cout);
  if (const char* path = std::getenv("TP_OBS_STATS"))
    obs::export_json(snap, path, /*append=*/true);
}

/// Prints the profiler's phase table (and writes collapsed stacks when
/// TP_PROF names a file).  No-op when TP_PROF was unset at init.
inline void bench_prof_report() {
  if (!obs::profiler().enabled()) return;
  obs::profiler().stop();
  const obs::PhaseReport report = obs::profiler().report();
  std::cout << "\n--- phase profile (TP_PROF) ---\n"
            << obs::format_phase_table(report);
  const char* path = std::getenv("TP_PROF");
  if (path != nullptr && std::strcmp(path, "1") != 0 && *path != '\0') {
    std::ofstream folded(path);
    if (folded.good()) {
      obs::write_collapsed(report, folded);
      std::cout << "wrote collapsed stacks to " << path << "\n";
    }
  }
}

}  // namespace tp
