// Fault recovery shared by the three simulators.
//
// Under a dynamic FaultSchedule, NetworkSim, AdaptiveNetworkSim and
// WormholeSim recover the same way: the live fault set advances with
// simulated time, a message that meets a dead wire waits out an
// exponential backoff before it tries again, and a message whose retry
// budget runs out is dropped, never crashed.  FaultRecovery is the per-run
// object that owns this: the FaultClock, the live FaultTolerantRouter with
// its reroute RNG, the backoff/drop policy, the wake queue, the cycle
// slack, the RecoveryStats counters and the recovery trace events.  Each
// simulator keeps its flow control and its recovery choice, and — since
// every wake may draw from the reroute RNG — its wake order within a cycle
// (docs/robustness.md).  With a null or empty schedule the object is
// dormant: nothing is dead, nothing waits, and the simulators run their
// fault-free code paths bit for bit.

#pragma once

#include <cstddef>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "src/routing/fault_router.h"
#include "src/routing/path.h"
#include "src/simulate/fault_schedule.h"
#include "src/torus/graph.h"
#include "src/torus/torus.h"
#include "src/util/prng.h"

namespace tp {

/// Dynamic-fault recovery accounting (zero unless a FaultSchedule ran).
struct RecoveryStats {
  i64 dropped = 0;        ///< messages that exhausted their retry budget
  i64 retries = 0;        ///< backoff waits scheduled
  i64 rerouted = 0;       ///< recoveries over a replacement path or hop
  i64 fail_events = 0;    ///< wire failures applied during the run
  i64 repair_events = 0;  ///< wire repairs applied during the run
};

class FaultRecovery {
 public:
  /// resume_at's "no injection left".
  static constexpr i64 kNever = std::numeric_limits<i64>::max();

  /// Throws tp::Error when an enabled config is unusable: no
  /// reroute_router, max_retries < 0, backoff_base < 1, or a budget whose
  /// largest wait or cycle slack overflows i64.  A disabled config is not
  /// checked.
  static void validate(const RecoveryConfig& config);

  /// One run's recovery state for messages 0 .. num_messages - 1; throws
  /// like validate().  The schedule, the reroute router and
  /// `static_faults` (null = none) must outlive the object.
  FaultRecovery(const Torus& torus, const RecoveryConfig& config,
                std::size_t num_messages,
                const EdgeSet* static_faults = nullptr);
  FaultRecovery(const FaultRecovery&) = delete;
  FaultRecovery& operator=(const FaultRecovery&) = delete;

  bool enabled() const { return clock_.has_value(); }

  /// `base` plus the livelock slack for backoff waits and the schedule's
  /// tail (retries of distinct messages overlap, so per-message slack
  /// suffices); `base` itself when dormant.
  i64 cycle_budget(i64 base) const;

  /// Applies the events up to `cycle`; true if the live set changed.
  bool advance_to(i64 cycle);

  bool is_dead(EdgeId e) const { return clock_ && clock_->is_dead(e); }
  i64 dead_wires() const { return clock_ ? clock_->dead_wires() : 0; }

  /// Fault-free paths from p to q under the live fault set (0 = cut off).
  i64 num_paths(NodeId p, NodeId q) const {
    return router_->num_paths(torus_, p, q);
  }

  /// Draws a fault-free path from `from` to `to` with the reroute RNG and
  /// counts the reroute.  The path stays valid for the rest of the run.
  const Path& reroute(NodeId from, NodeId to);
  /// Counts a reroute that needed no drawn path.
  void count_reroute();

  /// Charges message `id` one backoff wait starting at `cycle` and queues
  /// its wake.  Once max_retries waits are spent it counts a drop instead
  /// and returns false.
  bool back_off(std::size_t id, i64 cycle);

  /// Pops a message whose wait ended by `cycle` into `id`, FIFO among
  /// equal wake cycles; false when none is due.
  bool pop_wake(i64 cycle, std::size_t& id) {
    if (wakes_.empty() || wakes_.begin()->first > cycle) return false;
    id = wakes_.begin()->second;
    wakes_.erase(wakes_.begin());
    return true;
  }

  /// Messages waiting out a backoff.
  std::size_t waiting() const { return wakes_.size(); }

  /// Where an idle network resumes: the earlier of `next_inject` and the
  /// next wake when that lies after `cycle`; `cycle` otherwise, and always
  /// when dormant.
  i64 resume_at(i64 cycle, i64 next_inject = kNever) const;

  /// The counters so far, fail and repair events included.
  RecoveryStats stats() const;

 private:
  const Torus& torus_;
  RecoveryConfig config_;
  bool trace_on_ = false;
  std::optional<FaultClock> clock_;
  std::optional<FaultTolerantRouter> router_;
  Xoshiro256SS rng_;
  std::deque<Path> paths_;  // deque: drawn paths keep stable addresses
  std::vector<i64> attempts_;  // backoff waits consumed, per message
  std::multimap<i64, std::size_t> wakes_;  // wake cycle -> message
  RecoveryStats stats_;
};

}  // namespace tp
