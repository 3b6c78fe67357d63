#include "src/simulate/adaptive_sim.h"

#include <algorithm>
#include <deque>

#include "src/simulate/link_queues.h"
#include "src/util/error.h"
#include "src/util/small_vec.h"

namespace tp {

AdaptiveNetworkSim::AdaptiveNetworkSim(const Torus& torus,
                                       AdaptivePolicy policy,
                                       const EdgeSet* faults,
                                       obs::LinkProbe* probe,
                                       RecoveryConfig recovery)
    : torus_(torus),
      policy_(policy),
      faults_(torus),
      probe_(probe),
      recovery_(recovery) {
  if (faults != nullptr) {
    has_faults_ = true;
    for (EdgeId e = 0; e < torus.num_directed_edges(); ++e)
      if (faults->contains(e)) faults_.insert(e);
  }
  FaultRecovery::validate(recovery_);
}

SimMetrics AdaptiveNetworkSim::run(const std::vector<Demand>& demands,
                                   u64 seed, i64 max_cycles) {
  FaultRecovery recovery(torus_, recovery_, demands.size(),
                         has_faults_ ? &faults_ : nullptr);
  SimMetrics metrics;
  LinkQueues links(torus_, metrics, probe_);

  std::vector<std::size_t> by_inject(demands.size());
  i64 total_work = 0;
  i64 last_inject = 0;
  for (std::size_t id = 0; id < demands.size(); ++id) {
    const Demand& d = demands[id];
    TP_REQUIRE(torus_.valid_node(d.src) && torus_.valid_node(d.dst),
               "demand node out of range");
    TP_REQUIRE(d.inject_cycle >= 0, "negative injection cycle");
    by_inject[id] = id;
    total_work += torus_.lee_distance(d.src, d.dst);
    last_inject = std::max(last_inject, d.inject_cycle);
  }
  std::stable_sort(by_inject.begin(), by_inject.end(),
                   [&](std::size_t a, std::size_t b) {
                     return demands[a].inject_cycle < demands[b].inject_cycle;
                   });
  if (max_cycles == 0)
    max_cycles = recovery.cycle_budget(total_work + last_inject + 2);

  std::vector<NodeId> at(demands.size());  // node each message sits at
  Xoshiro256SS rng(seed);

  // Minimal outgoing links from `node` toward `dst`, skipping dead links
  // (static faults, plus the live dynamic set when a schedule runs).
  SmallVec<i64, 2 * kMaxDims> candidates;
  auto link_alive = [&](EdgeId e) {
    return !(has_faults_ && faults_.contains(e)) && !recovery.is_dead(e);
  };
  auto minimal_links = [&](NodeId node, NodeId dst) {
    candidates.clear();
    for (i32 dim = 0; dim < torus_.dims(); ++dim) {
      const i32 a = torus_.coord_of(node, dim);
      const i32 b = torus_.coord_of(dst, dim);
      const Way way = torus_.shortest_way(dim, a, b);
      if (way == Way::None) continue;
      if (way != Way::Neg) {
        const EdgeId e = torus_.edge_id(node, dim, Dir::Pos);
        if (link_alive(e)) candidates.push_back(e);
      }
      if (way != Way::Pos) {
        const EdgeId e = torus_.edge_id(node, dim, Dir::Neg);
        if (link_alive(e)) candidates.push_back(e);
      }
    }
  };

  i64 cycle = 0;
  i64 in_flight = 0;
  // Joins the queue the policy picks among the live minimal links; false
  // when every minimal link is currently dead.
  auto try_route = [&](std::size_t id) -> bool {
    const NodeId dst = demands[id].dst;
    minimal_links(at[id], dst);
    if (recovery.dead_wires() > 0 && !candidates.empty()) {
      // Reachability lookahead: only enter links from whose head the
      // oracle still sees a fault-free path, so a message never wanders
      // into a region the live faults cut off from its destination.
      std::size_t keep = 0;
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        const EdgeId e = static_cast<EdgeId>(candidates[i]);
        const NodeId head = torus_.link(e).head;
        if (head == dst || recovery.num_paths(head, dst) > 0)
          candidates[keep++] = candidates[i];
      }
      candidates.resize(keep);
    }
    if (candidates.empty()) return false;
    EdgeId pick = static_cast<EdgeId>(candidates[0]);
    if (policy_ == AdaptivePolicy::RandomMinimal) {
      pick = static_cast<EdgeId>(
          candidates[static_cast<std::size_t>(rng.below(candidates.size()))]);
    } else {
      for (std::size_t i = 1; i < candidates.size(); ++i) {
        const EdgeId e = static_cast<EdgeId>(candidates[i]);
        if (links.depth(e) < links.depth(pick)) pick = e;
      }
    }
    links.push(pick, id, cycle);
    return true;
  };

  // Every minimal link is dead right now.  Statically that is terminal
  // (unroutable); under a dynamic schedule the message waits out a backoff
  // at its node and retries until the budget is spent.
  auto handle_blocked = [&](std::size_t id) {
    if (!recovery.enabled()) {
      ++metrics.unroutable;
      --in_flight;
    } else if (!recovery.back_off(id, cycle)) {
      --in_flight;
    }
  };

  std::size_t next_inject = 0;
  std::vector<std::size_t> arrivals;
  while (next_inject < by_inject.size() || in_flight > 0) {
    TP_REQUIRE(cycle <= max_cycles, "simulation exceeded cycle budget");
    recovery.advance_to(cycle);
    // Wake messages whose backoff expired.
    std::size_t id = 0;
    while (recovery.pop_wake(cycle, id)) {
      if (try_route(id)) {
        recovery.count_reroute();
        continue;
      }
      // Cut off where it sits but the pair still connected end-to-end:
      // retransmit from the original source.
      const Demand& d = demands[id];
      if (at[id] != d.src && recovery.num_paths(d.src, d.dst) > 0) {
        at[id] = d.src;
        if (try_route(id)) {
          recovery.count_reroute();
          continue;
        }
      }
      handle_blocked(id);
    }
    while (next_inject < by_inject.size() &&
           demands[by_inject[next_inject]].inject_cycle == cycle) {
      id = by_inject[next_inject++];
      ++metrics.injected;
      if (demands[id].src == demands[id].dst) {
        ++metrics.delivered;
        continue;
      }
      ++in_flight;
      at[id] = demands[id].src;
      if (!try_route(id)) handle_blocked(id);
    }

    arrivals.clear();
    links.sweep([&](EdgeId e, std::deque<std::size_t>& q) {
      if (recovery.is_dead(e)) {
        // The wire died with a backlog: the node immediately re-routes
        // each queued message over its other minimal links (native
        // adaptivity), backing off only when all of them are dead too.
        while (!q.empty()) {
          const std::size_t queued = q.front();
          q.pop_front();
          if (!try_route(queued)) handle_blocked(queued);
        }
        return false;
      }
      const std::size_t sent = q.front();
      q.pop_front();
      links.forward(e, cycle);
      // One message crosses per cycle; the rest of the backlog waits.
      if (probe_ != nullptr && !q.empty())
        probe_->on_stall(e, cycle, static_cast<i64>(q.size()));
      at[sent] = torus_.link(e).head;
      if (at[sent] == demands[sent].dst) {
        --in_flight;
        metrics.record_delivery(demands[sent].inject_cycle, cycle + 1);
      } else {
        arrivals.push_back(sent);
      }
      return true;
    });
    for (std::size_t arrived : arrivals)
      if (!try_route(arrived)) handle_blocked(arrived);
    links.window_counters(cycle, recovery);
    ++cycle;
    // Nothing queued anywhere: jump to the next injection or retry wake
    // instead of spinning through backoff waits.
    if (links.idle())
      cycle = recovery.resume_at(
          cycle, next_inject < by_inject.size()
                     ? demands[by_inject[next_inject]].inject_cycle
                     : FaultRecovery::kNever);
  }
  links.last_counters();

  metrics.finish();
  static_cast<RecoveryStats&>(metrics) = recovery.stats();
  return metrics;
}

}  // namespace tp
