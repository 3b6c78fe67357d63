// Graceful-degradation analysis under dynamic wire faults.
//
// The paper's Section 7 argument is qualitative: richer path sets (UDR's
// s! paths per pair, or full minimal adaptivity) keep the network
// functional when wires fail, while ODR's single canonical path per pair
// makes every wire a single point of failure for the pairs routed across
// it.  This module makes the claim measurable.  A complete exchange is
// simulated twice over the same sampled paths — once fault-free, once
// under a FaultSchedule with retry/reroute recovery — and the two runs are
// compared: what fraction of messages still arrived, how much the
// completion time inflated, and how much the busiest link's measured load
// (the degraded E_max, read from an obs::LinkProbe) grew as traffic
// squeezed around the dead wires.
//
// wire_criticality ranks individual wires by the damage their loss causes
// (delivered-fraction under that single permanent fault); for ODR the
// dropped count per wire equals the number of ordered pairs whose unique
// canonical path crosses it, which is exactly count_unroutable_pairs of
// fault.h — the tests pin that identity.

#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/placement/placement.h"
#include "src/routing/router.h"
#include "src/simulate/recovery.h"
#include "src/torus/torus.h"

namespace tp {

/// Knobs shared by every resilience analysis.
struct ResilienceConfig {
  u64 traffic_seed = 1;    ///< complete-exchange path sampling
  u64 schedule_seed = 7;   ///< Bernoulli fault-timeline generation
  u64 recovery_seed = 11;  ///< reroute path re-sampling inside the sims
  i64 max_retries = 8;     ///< per-message retry budget
  i64 backoff_base = 1;    ///< first backoff wait; doubles per retry
  double repair_prob = 0.0;  ///< per-cycle repair probability (0 = permanent)
  i64 horizon = 0;  ///< fault-event window; 0 = the fault-free makespan
};

/// One degraded run compared against its fault-free baseline; the
/// recovery counters are the degraded run's (dropped == unroutable pairs
/// when the faults are one permanent wire).
struct DegradationReport : RecoveryStats {
  std::string router_name;
  double fault_rate = 0.0;  ///< per-wire per-cycle failure probability
  i64 injected = 0;
  i64 delivered = 0;
  double delivered_fraction = 1.0;  ///< delivered / injected
  i64 baseline_cycles = 0;          ///< fault-free makespan
  i64 cycles = 0;                   ///< degraded makespan
  double completion_inflation = 1.0;  ///< cycles / baseline_cycles
  double baseline_emax = 0.0;  ///< busiest link's forwards, fault-free
  double degraded_emax = 0.0;  ///< busiest link's forwards, degraded
  double emax_inflation = 1.0;
};

/// Simulates the complete exchange of `p` twice — fault-free, then under
/// `schedule` with retry/reroute recovery through `router` — and reports
/// the degradation.  Deterministic given the config seeds.
DegradationReport degradation_report(const Torus& torus, const Placement& p,
                                     const Router& router,
                                     const FaultSchedule& schedule,
                                     const ResilienceConfig& config = {});

/// The fault-event window resilience_sweep uses: config.horizon when
/// positive, otherwise the design's own fault-free makespan (at least 1).
/// Exposed so checkpointed sweeps (tools CLI --checkpoint) can compute
/// individual (rate, router) cells identically to an uninterrupted
/// resilience_sweep call.
i64 resilience_horizon(const Torus& torus, const Placement& p,
                       const Router& router,
                       const ResilienceConfig& config = {});

/// Degradation curve across Bernoulli fault rates: one report per rate,
/// each over FaultSchedule::bernoulli(rate, repair_prob, horizon).  A rate
/// of 0 produces an empty schedule and must reproduce the baseline
/// exactly (the zero-overhead-when-disabled check).
std::vector<DegradationReport> resilience_sweep(
    const Torus& torus, const Placement& p, const Router& router,
    const std::vector<double>& fault_rates,
    const ResilienceConfig& config = {});

/// Exact binary round trip of one report (doubles travel as raw bit
/// patterns), used by the resilience checkpoint journal so a resumed
/// curve is byte-identical to an uninterrupted one.  decode throws
/// tp::Error on malformed input.
std::string encode_degradation_report(const DegradationReport& r);
DegradationReport decode_degradation_report(std::string_view payload);

/// One wire's ranking entry: the outcome of the complete exchange when
/// that wire alone fails permanently at cycle 0.
struct WireCriticality {
  EdgeId wire = 0;  ///< canonical undirected id (torus.undirected_id)
  double delivered_fraction = 1.0;
  i64 dropped = 0;
  i64 rerouted = 0;
};

/// Ranks every wire of the torus, most critical (lowest delivered
/// fraction, then most drops, then lowest id) first.  The per-wire runs
/// are independent and execute on `threads` workers; the result is
/// identical for any thread count.
std::vector<WireCriticality> wire_criticality(
    const Torus& torus, const Placement& p, const Router& router,
    const ResilienceConfig& config = {}, i32 threads = 1);

/// One report as a single JSON line (stable key order, JSONL-ready).
std::string degradation_json_line(const DegradationReport& r);

/// The whole curve as JSONL (one line per report, in order).
std::string resilience_jsonl(const std::vector<DegradationReport>& curve);

/// Writes resilience_jsonl(curve) to `path` (replacing the file).
void export_resilience_jsonl(const std::vector<DegradationReport>& curve,
                             const std::string& path);

}  // namespace tp
