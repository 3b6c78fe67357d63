#include "src/simulate/fault_schedule.h"

#include <algorithm>

#include "src/util/error.h"
#include "src/util/prng.h"

namespace tp {

namespace {

void check_wire(const Torus& torus, EdgeId wire) {
  TP_REQUIRE(wire >= 0 && wire < torus.num_directed_edges(),
             "fault event wire " + std::to_string(wire) +
                 " out of range (torus has " +
                 std::to_string(torus.num_directed_edges()) +
                 " directed links)");
  TP_REQUIRE(torus.undirected_id(wire) == wire,
             "fault event wire " + std::to_string(wire) +
                 " is not a canonical undirected id");
}

/// Canonical wire ids in ascending order (one per undirected link).
std::vector<EdgeId> all_wires(const Torus& torus) {
  std::vector<EdgeId> wires;
  wires.reserve(static_cast<std::size_t>(torus.num_undirected_edges()));
  for (EdgeId e = 0; e < torus.num_directed_edges(); ++e)
    if (torus.undirected_id(e) == e) wires.push_back(e);
  return wires;
}

}  // namespace

FaultSchedule FaultSchedule::from_events(const Torus& torus,
                                         std::vector<FaultEvent> events) {
  for (const FaultEvent& ev : events) {
    TP_REQUIRE(ev.cycle >= 0, "fault event cycle must be non-negative");
    check_wire(torus, ev.wire);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.cycle < b.cycle;
                   });
  FaultSchedule schedule;
  schedule.events_ = std::move(events);
  return schedule;
}

FaultSchedule FaultSchedule::single_wire(const Torus& torus, EdgeId wire,
                                         i64 fail_cycle) {
  return from_events(torus, {{fail_cycle, torus.undirected_id(wire),
                              FaultEventKind::Fail}});
}

FaultSchedule FaultSchedule::bernoulli(const Torus& torus, double fail_prob,
                                       double repair_prob, i64 horizon,
                                       u64 seed) {
  TP_REQUIRE(fail_prob >= 0.0 && fail_prob <= 1.0,
             "fail probability must be in [0, 1]");
  TP_REQUIRE(repair_prob >= 0.0 && repair_prob <= 1.0,
             "repair probability must be in [0, 1]");
  TP_REQUIRE(horizon >= 0, "horizon must be non-negative");
  const std::vector<EdgeId> wires = all_wires(torus);
  std::vector<bool> dead(wires.size(), false);
  Xoshiro256SS rng(seed);
  std::vector<FaultEvent> events;
  for (i64 cycle = 0; cycle < horizon; ++cycle) {
    for (std::size_t w = 0; w < wires.size(); ++w) {
      // One draw per (cycle, wire) regardless of state keeps the stream
      // alignment independent of the evolving fault pattern.
      const double draw = rng.uniform();
      if (!dead[w]) {
        if (draw < fail_prob) {
          dead[w] = true;
          events.push_back({cycle, wires[w], FaultEventKind::Fail});
        }
      } else if (draw < repair_prob) {
        dead[w] = false;
        events.push_back({cycle, wires[w], FaultEventKind::Repair});
      }
    }
  }
  FaultSchedule schedule;
  schedule.events_ = std::move(events);  // generated in cycle order
  return schedule;
}

FaultSchedule FaultSchedule::periodic(const Torus& torus, i64 mtbf, i64 mttr,
                                      i64 horizon, u64 seed) {
  TP_REQUIRE(mtbf >= 1, "MTBF must be >= 1 cycle");
  TP_REQUIRE(mttr >= 1, "MTTR must be >= 1 cycle");
  TP_REQUIRE(horizon >= 0, "horizon must be non-negative");
  const std::vector<EdgeId> wires = all_wires(torus);
  const i64 period = mtbf + mttr;
  Xoshiro256SS rng(seed);
  std::vector<FaultEvent> events;
  for (const EdgeId wire : wires) {
    // First failure lands uniformly inside one period, so the fleet's
    // outages are spread rather than synchronized.
    const i64 phase = static_cast<i64>(rng.below(static_cast<u64>(period)));
    for (i64 fail = phase; fail < horizon; fail += period) {
      events.push_back({fail, wire, FaultEventKind::Fail});
      const i64 repair = fail + mttr;
      if (repair < horizon)
        events.push_back({repair, wire, FaultEventKind::Repair});
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.cycle < b.cycle;
                   });
  FaultSchedule schedule;
  schedule.events_ = std::move(events);
  return schedule;
}

i64 FaultSchedule::num_failures() const {
  i64 n = 0;
  for (const FaultEvent& ev : events_)
    if (ev.kind == FaultEventKind::Fail) ++n;
  return n;
}

i64 FaultSchedule::num_repairs() const {
  return static_cast<i64>(events_.size()) - num_failures();
}

FaultClock::FaultClock(const Torus& torus, const FaultSchedule& schedule,
                       const EdgeSet* initial)
    : torus_(torus), schedule_(schedule), dead_(torus) {
  if (initial != nullptr) {
    for (EdgeId e = 0; e < torus.num_directed_edges(); ++e)
      if (initial->contains(e)) {
        dead_.insert(e);
        if (torus.undirected_id(e) == e) ++dead_wires_;
      }
  }
}

bool FaultClock::advance_to(i64 cycle) {
  const auto& events = schedule_.events();
  bool changed = false;
  while (next_ < events.size() && events[next_].cycle <= cycle) {
    const FaultEvent& ev = events[next_++];
    const EdgeId fwd = ev.wire;
    const EdgeId rev = torus_.reverse_edge(fwd);
    if (ev.kind == FaultEventKind::Fail) {
      if (!dead_.contains(fwd)) {
        dead_.insert(fwd);
        dead_.insert(rev);
        ++dead_wires_;
        ++fails_;
        changed = true;
      }
    } else if (dead_.contains(fwd)) {
      dead_.erase(fwd);
      dead_.erase(rev);
      --dead_wires_;
      ++repairs_;
      changed = true;
    }
  }
  if (changed) ++epoch_;
  return changed;
}

}  // namespace tp
