#include "src/simulate/recovery.h"

#include <algorithm>
#include <string>

#include "src/obs/trace.h"
#include "src/util/error.h"

namespace tp {

namespace {

constexpr i64 kMaxBackoffShift = 20;

/// The livelock slack of a config with max_retries >= 0 and
/// backoff_base >= 1: 2 * (max_retries + 1) times the largest wait, plus
/// the schedule's tail.  Throws when any step overflows i64.
i64 cycle_slack(const RecoveryConfig& config) {
  const i64 shift = std::min(config.max_retries, kMaxBackoffShift);
  i64 attempts = 0;
  i64 slack = 0;
  const bool fits =
      config.backoff_base <= (std::numeric_limits<i64>::max() >> shift) &&
      !__builtin_add_overflow(config.max_retries, 1, &attempts) &&
      !__builtin_mul_overflow(config.backoff_base << shift, 2, &slack) &&
      !__builtin_mul_overflow(slack, attempts, &slack) &&
      !__builtin_add_overflow(slack, config.schedule->last_cycle(), &slack) &&
      !__builtin_add_overflow(slack, 2, &slack);
  TP_REQUIRE(fits, "max_retries = " + std::to_string(config.max_retries) +
                       " with backoff_base = " +
                       std::to_string(config.backoff_base) +
                       " overflows the simulation's cycle budget");
  return slack;
}

}  // namespace

void FaultRecovery::validate(const RecoveryConfig& config) {
  if (!config.enabled()) return;
  TP_REQUIRE(config.reroute_router != nullptr,
             "a dynamic fault schedule needs recovery.reroute_router");
  TP_REQUIRE(config.max_retries >= 0, "max_retries must be non-negative");
  TP_REQUIRE(config.backoff_base >= 1, "backoff_base must be >= 1");
  cycle_slack(config);
}

FaultRecovery::FaultRecovery(const Torus& torus, const RecoveryConfig& config,
                             std::size_t num_messages,
                             const EdgeSet* static_faults)
    : torus_(torus),
      config_(config),
      trace_on_(obs::tracer().enabled()),
      rng_(config.seed) {
  validate(config_);
  if (!config_.enabled()) return;
  clock_.emplace(torus_, *config_.schedule, static_faults);
  router_.emplace(*config_.reroute_router, clock_->dead(),
                  clock_->epoch_ref());
  attempts_.assign(num_messages, 0);
}

i64 FaultRecovery::cycle_budget(i64 base) const {
  if (!enabled()) return base;
  i64 budget = 0;
  TP_REQUIRE(!__builtin_add_overflow(base, cycle_slack(config_), &budget),
             "simulation cycle budget overflows");
  return budget;
}

bool FaultRecovery::advance_to(i64 cycle) {
  if (!clock_ || !clock_->advance_to(cycle)) return false;
  if (trace_on_) {
    obs::Tracer& tr = obs::tracer();
    tr.instant("sim.fault_event", "fault");
    tr.counter("sim.dead_wires", clock_->dead_wires(), "sim");
  }
  return true;
}

const Path& FaultRecovery::reroute(NodeId from, NodeId to) {
  paths_.push_back(router_->sample_path(torus_, from, to, rng_));
  count_reroute();
  return paths_.back();
}

void FaultRecovery::count_reroute() {
  ++stats_.rerouted;
  if (trace_on_) obs::tracer().instant("sim.reroute", "fault");
}

bool FaultRecovery::back_off(std::size_t id, i64 cycle) {
  i64& attempts = attempts_[id];
  if (attempts >= config_.max_retries) {
    ++stats_.dropped;
    if (trace_on_) obs::tracer().instant("sim.drop", "fault");
    return false;
  }
  const i64 wait = config_.backoff_base
                   << std::min(attempts, kMaxBackoffShift);
  i64 wake = 0;
  TP_REQUIRE(!__builtin_add_overflow(cycle, wait, &wake),
             "backoff wake cycle overflows");
  ++attempts;
  ++stats_.retries;
  if (trace_on_) obs::tracer().instant("sim.retry", "fault");
  wakes_.emplace(wake, id);
  return true;
}

i64 FaultRecovery::resume_at(i64 cycle, i64 next_inject) const {
  if (!enabled()) return cycle;
  const i64 next =
      wakes_.empty() ? next_inject : std::min(next_inject, wakes_.begin()->first);
  return next != kNever && next > cycle ? next : cycle;
}

RecoveryStats FaultRecovery::stats() const {
  RecoveryStats s = stats_;
  if (clock_) {
    s.fail_events = clock_->fails_applied();
    s.repair_events = clock_->repairs_applied();
  }
  return s;
}

}  // namespace tp
