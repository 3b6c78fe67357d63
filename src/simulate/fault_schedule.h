// Dynamic fault injection: a deterministic timeline of wire failures and
// repairs, replayed by the simulators.
//
// The static fault model (fault.h / sample_wire_faults) freezes a fault
// set before routing begins — the regime of Section 7's connectivity
// argument.  Real networks fail *during* operation: links die and recover
// mid-exchange, and messages in flight must be retried or rerouted.  A
// FaultSchedule is a seeded, reproducible sequence of
// {cycle, wire, FAIL|REPAIR} events over the torus's wires (a wire is an
// undirected link; failing it takes out both directed links, exactly as
// sample_wire_faults does).  A FaultClock replays a schedule against a
// live EdgeSet as simulated time advances, bumping an epoch counter on
// every change so path caches (FaultTolerantRouter) know to invalidate.
//
// Generators:
//   * bernoulli — every live wire fails with probability fail_prob per
//     cycle; every dead wire repairs with probability repair_prob per
//     cycle (memoryless MTBF/MTTR).
//   * periodic  — fixed MTBF/MTTR: each wire fails every mtbf + mttr
//     cycles and stays dead for mttr, with a per-wire random phase.
//   * single_wire — one permanent failure, the unit of the per-wire
//     criticality analysis (analysis/resilience.h).
// All generators are deterministic given (torus, parameters, seed).

#pragma once

#include <vector>

#include "src/torus/graph.h"
#include "src/torus/torus.h"

namespace tp {

class Router;  // routing/router.h; referenced by RecoveryConfig

enum class FaultEventKind { Fail, Repair };

/// One timeline entry.  `wire` is a canonical undirected link id
/// (Torus::undirected_id(wire) == wire); applying the event affects both
/// directed links of the wire.
struct FaultEvent {
  i64 cycle = 0;
  EdgeId wire = 0;
  FaultEventKind kind = FaultEventKind::Fail;
};

/// An immutable, cycle-sorted fault timeline.
class FaultSchedule {
 public:
  /// The empty schedule: no dynamic faults.  Simulators treat a null or
  /// empty schedule as "dynamic machinery off" and reproduce their
  /// fault-free behaviour bit-for-bit.
  FaultSchedule() = default;

  /// Validates and stably sorts arbitrary events by cycle (events at the
  /// same cycle apply in the given order).  Throws tp::Error on a
  /// non-canonical wire id or negative cycle.
  static FaultSchedule from_events(const Torus& torus,
                                   std::vector<FaultEvent> events);

  /// One wire fails at `fail_cycle` and never recovers.
  static FaultSchedule single_wire(const Torus& torus, EdgeId wire,
                                   i64 fail_cycle = 0);

  /// Bernoulli-per-cycle failures over [0, horizon): each live wire fails
  /// with probability `fail_prob` per cycle, each dead wire repairs with
  /// probability `repair_prob` per cycle.  Deterministic given `seed`.
  static FaultSchedule bernoulli(const Torus& torus, double fail_prob,
                                 double repair_prob, i64 horizon, u64 seed);

  /// Fixed MTBF/MTTR over [0, horizon): each wire cycles through
  /// `mtbf` cycles up, `mttr` cycles down, starting at a per-wire random
  /// phase drawn from `seed`.
  static FaultSchedule periodic(const Torus& torus, i64 mtbf, i64 mttr,
                                i64 horizon, u64 seed);

  bool empty() const { return events_.empty(); }
  const std::vector<FaultEvent>& events() const { return events_; }
  /// Cycle of the last event (0 for the empty schedule).
  i64 last_cycle() const { return events_.empty() ? 0 : events_.back().cycle; }
  i64 num_failures() const;
  i64 num_repairs() const;

 private:
  std::vector<FaultEvent> events_;
};

/// Replays a FaultSchedule against a live fault set as time advances.
/// The schedule (and the optional initial fault set) must outlive the
/// clock.  Redundant events (failing a dead wire, repairing a live one)
/// are no-ops and do not bump the epoch.
class FaultClock {
 public:
  /// `initial` seeds the live set with pre-existing (static) faults; its
  /// links count as dead but are not wires the clock ever repairs unless
  /// the schedule says so.
  FaultClock(const Torus& torus, const FaultSchedule& schedule,
             const EdgeSet* initial = nullptr);

  /// Applies every event with event.cycle <= `cycle`.  Returns true if
  /// the live set changed (and the epoch advanced).
  bool advance_to(i64 cycle);

  const EdgeSet& dead() const { return dead_; }
  bool is_dead(EdgeId e) const { return dead_.contains(e); }

  /// Monotone counter, bumped once per advance_to() call that changed the
  /// set.  FaultTolerantRouter watches it to invalidate cached paths.
  u64 epoch() const { return epoch_; }
  /// Stable reference for binding a FaultTolerantRouter to this clock.
  const u64& epoch_ref() const { return epoch_; }

  i64 dead_wires() const { return dead_wires_; }
  i64 fails_applied() const { return fails_; }
  i64 repairs_applied() const { return repairs_; }

 private:
  const Torus& torus_;
  const FaultSchedule& schedule_;
  EdgeSet dead_;
  std::size_t next_ = 0;
  u64 epoch_ = 0;
  i64 dead_wires_ = 0;
  i64 fails_ = 0;
  i64 repairs_ = 0;
};

/// Shared recovery knobs for the simulators' dynamic-fault mode, validated
/// and applied by FaultRecovery (recovery.h).  The schedule pointer is not
/// owned; null (or an empty schedule) disables the dynamic machinery
/// entirely — the hot loops then run their fault-free code paths
/// bit-for-bit.
struct RecoveryConfig {
  const FaultSchedule* schedule = nullptr;

  /// Router used to find replacement paths when a message's next hop
  /// crosses a dead wire; the adaptive simulator, which reroutes natively,
  /// uses it as its reachability oracle.  Wrapped in a FaultTolerantRouter
  /// over the live fault set.
  const Router* reroute_router = nullptr;

  /// Backoff waits per message before it is counted as dropped.
  i64 max_retries = 8;

  /// First retry waits this many cycles; each further attempt doubles the
  /// wait (exponential backoff, capped at backoff_base << 20).
  i64 backoff_base = 1;

  /// Seed for the reroute path draws (independent of traffic seeds).
  u64 seed = 1;

  bool enabled() const { return schedule != nullptr && !schedule->empty(); }
};

}  // namespace tp
