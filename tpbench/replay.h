// In-process replay of a workload's request stream, for the per-layer
// numbers.
//
// The replay feeds the seeded stream, single-threaded, through the same
// library calls TcpServer and compute_query make, in the same order:
// net::LineBuffer, service::parse_request_line, a PlanCache with the
// workload's capacity, Torus + plan_placement, measure_loads(threads=1),
// all_bounds / best_slab_bound, and response_to_json + dump.  Spans are
// recorded around each call from outside the library (nothing inside the
// program is instrumented).
//
// Span model: name, start, end, parent span and request id.  Consecutive
// spans share their boundary timestamp, so one clock read ends a span and
// starts the next, and a request's time is split among its layer spans
// without gaps.  Work between two spans that belongs to neither (filling
// the result record inside a compute) is the enclosing span's self time.
// Queue wait exists only under concurrency and is not replayed.

#pragma once

#include <map>
#include <string>
#include <vector>

#include "universe.h"

namespace tpbench {

struct Span {
  const char* name;
  i64 start_ns;
  i64 end_ns;
  i32 parent;  ///< index into the span list, -1 for a request's root
  i64 request;
};

/// Count, total and self time of one span name.
struct SpanTotals {
  i64 count = 0;
  i64 total_ns = 0;
  i64 self_ns = 0;
};

struct ReplayResult {
  /// The replay's answer line (no newline) per key index; empty when the
  /// stream never asked for the key.
  std::vector<std::string> answers;
  i64 requests = 0;
  i64 wall_ns = 0;               ///< first request start to last end
  std::vector<Span> spans;       ///< empty when untraced
  std::map<std::string, SpanTotals> by_name;  ///< traced only
  double computed_hops = 0.0;    ///< Σ expected_total_load over measured keys
};

/// Replays `stream` (indices into `universe`) through a fresh PlanCache
/// of `cache_capacity` entries.  Throws tp::Error if a request fails.
ReplayResult replay(const std::vector<QueryKey>& universe,
                    const std::vector<i64>& stream, std::size_t cache_capacity,
                    bool traced);

/// The layer of a span name ("load.odr" -> "load"); the root span
/// "request" belongs to the harness.
std::string layer_of(const std::string& span_name);

/// Writes spans as Chrome-trace JSON ("X" complete events, loadable in
/// Perfetto or chrome://tracing).
void write_chrome_trace(const std::vector<Span>& spans, const std::string& path);

/// Per-name and per-layer self-time table, as text.
std::string self_time_table(const ReplayResult& result);

}  // namespace tpbench
