// Per-directed-link telemetry accumulators.
//
// A LinkProbe attributes simulator activity to individual directed links:
// for every link it accumulates busy cycles, messages forwarded, the peak
// queue depth seen, and stall cycles (cycles a message waited behind a
// busy link).  Alongside the per-link totals it keeps three bounded
// windowed TimeSeries (forwards, queue depths, stalls, tick = cycle) so
// the run's time profile survives without per-cycle storage.
//
// The probe deliberately depends only on tp_util: links are identified by
// their dense edge ids (EdgeId = node * 2d + 2*dim + dir_bit, see
// torus/torus.h), so dimension and direction attribution needs only the
// dimension count, and the LoadMap conversion lives with the analysis code
// (analysis/imbalance.h: probe_load_map) instead of creating an obs->load
// dependency cycle.
//
// Hot-path contract: the simulators carry a `LinkProbe*` that is null when
// probing is off, so a disabled run costs one well-predicted null check
// per instrumentation site (verified against bench_perf, see
// docs/observability.md).  Methods assume the probe is live; they do not
// re-check an enabled flag.  Not thread-safe — one probe per simulator
// run.

#pragma once

#include <cstddef>
#include <vector>

#include "src/obs/timeseries.h"
#include "src/util/math.h"

namespace tp::obs {

/// Totals for one directed link.
struct LinkCounters {
  i64 forwards = 0;     ///< messages (or flits, wormhole) sent across
  i64 busy_cycles = 0;  ///< cycles the link spent transmitting
  i64 peak_queue = 0;   ///< deepest backlog observed at the link
  i64 stalls = 0;       ///< message-cycles spent waiting behind the link
};

class LinkProbe {
 public:
  /// `num_directed_edges` and `dims` come from the torus being simulated
  /// (Torus::num_directed_edges() / dims()); the probe only needs the
  /// numbers, not the torus.
  LinkProbe(i64 num_directed_edges, i32 dims, i64 window_width = 16,
            std::size_t window_capacity = 64);

  // --- hot path (probe known live) ---------------------------------------

  /// One transmission across `edge` starting at `cycle`, occupying the
  /// link for `busy` cycles (the flit-serialization factor).
  void on_forward(i64 edge, i64 cycle, i64 busy = 1) {
    LinkCounters& c = links_[static_cast<std::size_t>(edge)];
    ++c.forwards;
    c.busy_cycles += busy;
    forwards_series_.record(cycle, 1);
  }

  /// Backlog at `edge` reached `depth` (records the per-link peak and the
  /// windowed depth distribution).
  void on_queue_depth(i64 edge, i64 cycle, i64 depth) {
    LinkCounters& c = links_[static_cast<std::size_t>(edge)];
    if (depth > c.peak_queue) c.peak_queue = depth;
    queue_series_.record(cycle, depth);
  }

  /// `waiting` messages spent `cycle` queued behind a busy `edge`.
  void on_stall(i64 edge, i64 cycle, i64 waiting = 1) {
    links_[static_cast<std::size_t>(edge)].stalls += waiting;
    stall_series_.record(cycle, waiting);
  }

  // --- attribution --------------------------------------------------------

  i64 num_links() const { return static_cast<i64>(links_.size()); }
  i32 dims() const { return dims_; }

  /// Dimension the link travels along (decoded from the edge id).
  i32 dim_of(i64 edge) const {
    return static_cast<i32>((edge % (2 * dims_)) / 2);
  }
  /// True for the + direction, false for the - direction.
  bool is_positive(i64 edge) const { return (edge & 1) == 0; }

  // --- snapshot -----------------------------------------------------------

  const LinkCounters& link(i64 edge) const {
    return links_[static_cast<std::size_t>(edge)];
  }
  const std::vector<LinkCounters>& links() const { return links_; }

  const TimeSeries& forwards_series() const { return forwards_series_; }
  const TimeSeries& queue_series() const { return queue_series_; }
  const TimeSeries& stall_series() const { return stall_series_; }

  i64 total_forwards() const;
  i64 total_stalls() const;
  /// Number of links with any recorded activity.
  i64 active_links() const;

  void reset();

 private:
  i32 dims_;
  std::vector<LinkCounters> links_;
  TimeSeries forwards_series_;
  TimeSeries queue_series_;
  TimeSeries stall_series_;
};

}  // namespace tp::obs
