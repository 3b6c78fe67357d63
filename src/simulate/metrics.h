// Result metrics of a network simulation run.

#pragma once

#include <algorithm>
#include <vector>

#include "src/obs/registry.h"
#include "src/simulate/recovery.h"
#include "src/torus/torus.h"

namespace tp {

/// Store-and-forward results; the recovery counters come from
/// RecoveryStats.
struct SimMetrics : RecoveryStats {
  i64 cycles = 0;            ///< makespan: cycle at which the last message arrived
  i64 injected = 0;          ///< messages entering the network
  i64 delivered = 0;         ///< messages that reached their destination
  i64 unroutable = 0;        ///< messages with no fault-free path (dropped at source)
  i64 flits_per_message = 1; ///< serialization factor the run used
  double mean_latency = 0.0; ///< mean deliver-inject cycle difference
  i64 max_queue_depth = 0;   ///< peak backlog on any single link
  i64 max_link_forwards = 0; ///< busiest link's total transmissions
  std::vector<i64> link_forwards;  ///< per directed link, indexed by EdgeId

  /// Per-message latency distribution (deliver - inject cycles); filled on
  /// every run, independent of the global metrics registry.
  obs::HistogramData latency;

  /// Counts the delivery of a message injected at `inject_cycle` whose
  /// last hop completes at `arrive_cycle`; returns its latency.
  i64 record_delivery(i64 inject_cycle, i64 arrive_cycle) {
    ++delivered;
    const i64 cycles_taken = arrive_cycle - inject_cycle;
    latency.record(cycles_taken);
    cycles = std::max(cycles, arrive_cycle);
    return cycles_taken;
  }

  /// End of a run: the busiest link and the mean latency, in which a
  /// self-delivery counts with latency 0.  Latencies are integers, so
  /// their i64 sum is exact and the mean is one correctly rounded division.
  void finish() {
    max_link_forwards =
        link_forwards.empty()
            ? 0
            : *std::max_element(link_forwards.begin(), link_forwards.end());
    mean_latency = delivered > 0 ? static_cast<double>(latency.sum) /
                                       static_cast<double>(delivered)
                                 : 0.0;
  }

  double latency_p50() const { return latency.percentile(0.50); }
  double latency_p95() const { return latency.percentile(0.95); }
  i64 latency_max() const { return latency.max; }

  /// Fraction of the makespan the busiest link spent transmitting: each
  /// forward occupies the link for flits_per_message cycles, so 1.0 means
  /// some link was busy every cycle (the network ran at that link's
  /// capacity).
  double bottleneck_utilization() const {
    return cycles > 0
               ? static_cast<double>(max_link_forwards * flits_per_message) /
                     static_cast<double>(cycles)
               : 0.0;
  }
};

}  // namespace tp
