#include "src/simulate/network_sim.h"

#include <algorithm>
#include <deque>

#include "src/obs/obs.h"
#include "src/simulate/link_queues.h"
#include "src/util/error.h"

namespace tp {

NetworkSim::NetworkSim(const Torus& torus, const EdgeSet* faults,
                       SimConfig config)
    : torus_(torus), faults_(torus), config_(config) {
  TP_REQUIRE(config_.flits_per_message >= 1, "flits_per_message must be >= 1");
  if (faults != nullptr) {
    has_faults_ = true;
    for (EdgeId e = 0; e < torus.num_directed_edges(); ++e)
      if (faults->contains(e)) faults_.insert(e);
  }
  FaultRecovery::validate(config_.recovery);
}

SimMetrics NetworkSim::run(const std::vector<SimMessage>& messages,
                           i64 max_cycles) {
  // Where a message is: the path it follows (original or reroute) and the
  // hops it has taken.  Indexed like `messages`.
  struct MsgState {
    const Path* path = nullptr;
    std::size_t hop = 0;
  };
  // A message crossing a link, arriving at `arrive`.
  struct Transit {
    i64 arrive = 0;
    EdgeId edge = 0;
    std::size_t id = 0;
  };

  TP_OBS_SCOPE("sim.run");
  obs::MetricsRegistry& reg = obs::registry();
  const bool obs_on = reg.enabled();
  obs::HistogramHandle h_qdepth, h_inj_cycle, h_del_cycle, h_latency;
  if (obs_on) {
    h_qdepth = reg.histogram("sim.queue_depth");
    h_inj_cycle = reg.histogram("sim.injected_per_cycle");
    h_del_cycle = reg.histogram("sim.delivered_per_cycle");
    h_latency = reg.histogram("sim.latency");
  }
  obs::Tracer& tr = obs::tracer();
  const bool trace_on = tr.enabled();
  obs::LinkProbe* const probe = config_.probe;
  FaultRecovery recovery(torus_, config_.recovery, messages.size(),
                         has_faults_ ? &faults_ : nullptr);
  SimMetrics metrics;
  metrics.flits_per_message = config_.flits_per_message;
  LinkQueues links(torus_, metrics, probe);

  // Sort injections by cycle (stable: FIFO among same-cycle injections).
  std::vector<std::size_t> by_inject(messages.size());
  i64 total_work = 0;
  i64 last_inject = 0;
  {
    TP_PROF_PHASE("sim.prepare");
    for (std::size_t id = 0; id < messages.size(); ++id) {
      const SimMessage& m = messages[id];
      TP_REQUIRE(m.inject_cycle >= 0, "negative injection cycle");
      m.path.verify_connected(torus_);
      by_inject[id] = id;
      total_work += m.path.length();
      last_inject = std::max(last_inject, m.inject_cycle);
    }
    std::stable_sort(by_inject.begin(), by_inject.end(),
                     [&](std::size_t a, std::size_t b) {
                       return messages[a].inject_cycle <
                              messages[b].inject_cycle;
                     });
  }
  const i64 flits = config_.flits_per_message;
  if (max_cycles == 0)
    max_cycles = recovery.cycle_budget(total_work * flits + last_inject + 2);

  std::vector<MsgState> state(messages.size());
  i64 cycle = 0;
  i64 in_flight = 0;
  auto enqueue = [&](EdgeId e, std::size_t id) {
    const i64 depth = links.push(e, id, cycle);
    if (obs_on) reg.record(h_qdepth, depth);
  };
  auto back_off = [&](std::size_t id) {
    if (!recovery.back_off(id, cycle)) --in_flight;
  };

  std::vector<i64> busy_until(
      static_cast<std::size_t>(torus_.num_directed_edges()), 0);
  std::size_t next_inject = 0;
  std::deque<Transit> in_transit;

  // Phase spans: "sim.inject" while sources still have messages to issue,
  // "sim.drain" once the network is only emptying.
  if (trace_on) tr.begin("sim.inject", "sim");
  bool draining = false;

  TP_PROF_PHASE("sim.cycles");
  while (next_inject < by_inject.size() || in_flight > 0) {
    TP_REQUIRE(cycle <= max_cycles, "simulation exceeded cycle budget");
    const i64 injected_before = metrics.injected;
    const i64 delivered_before = metrics.delivered;
    // Apply this cycle's fault/repair events before any link transmits.
    recovery.advance_to(cycle);
    // Land messages whose link traversal completes now.
    while (!in_transit.empty() && in_transit.front().arrive <= cycle) {
      const Transit landed = in_transit.front();
      in_transit.pop_front();
      enqueue(landed.edge, landed.id);
    }
    // Wake messages whose backoff expired: reroute from where they sit,
    // against the live fault set, or back off again.
    std::size_t id = 0;
    while (recovery.pop_wake(cycle, id)) {
      MsgState& s = state[id];
      const NodeId at = s.hop == 0 ? s.path->source
                                   : torus_.link(s.path->edges[s.hop - 1]).head;
      const NodeId dst = s.path->target;
      NodeId from = at;
      if (recovery.num_paths(at, dst) == 0) {
        // Cornered: no fault-free path from where the message sits, but
        // the pair may still be connected end-to-end — fall back to a
        // retransmission from the original source.  A pair is dropped
        // only once its source-to-target path set is (still) dead when
        // the budget runs out.
        from = messages[id].path.source;
        if (from == at || recovery.num_paths(from, dst) == 0) {
          back_off(id);
          continue;
        }
      }
      s = {&recovery.reroute(from, dst), 0};
      enqueue(s.path->edges.front(), id);
    }
    // Inject this cycle's messages.
    while (next_inject < by_inject.size() &&
           messages[by_inject[next_inject]].inject_cycle == cycle) {
      id = by_inject[next_inject++];
      const Path& path = messages[id].path;
      ++metrics.injected;
      if (path.edges.empty()) {
        ++metrics.delivered;  // self-delivery (not generated normally)
        continue;
      }
      // With dynamic recovery the static pre-check is skipped: a blocked
      // hop is discovered at forward time and rerouted, not dropped.
      if (!recovery.enabled() && has_faults_ &&
          std::any_of(path.edges.begin(), path.edges.end(),
                      [&](EdgeId e) { return faults_.contains(e); })) {
        ++metrics.unroutable;
        continue;
      }
      state[id] = {&path, 0};
      enqueue(path.edges.front(), id);
      ++in_flight;
    }
    if (trace_on && !draining && next_inject == by_inject.size()) {
      tr.end("sim.inject");
      tr.begin("sim.drain", "sim");
      draining = true;
    }

    // Every free active link starts forwarding one message; the traversal
    // completes `flits` cycles later.
    links.sweep([&](EdgeId e, std::deque<std::size_t>& q) {
      if (recovery.is_dead(e)) {
        // The wire died with a backlog: every queued message backs off and
        // reroutes (an in-progress transmission already left the wire).
        for (std::size_t queued : q) back_off(queued);
        q.clear();
        return false;
      }
      if (busy_until[static_cast<std::size_t>(e)] > cycle) {
        // Still transmitting an earlier message: everything queued here
        // waits the cycle out.
        if (probe != nullptr)
          probe->on_stall(e, cycle, static_cast<i64>(q.size()));
        return true;
      }
      const std::size_t sent = q.front();
      q.pop_front();
      busy_until[static_cast<std::size_t>(e)] = cycle + flits;
      links.forward(e, cycle, flits);
      MsgState& s = state[sent];
      if (++s.hop == s.path->edges.size()) {
        --in_flight;
        const i64 latency = metrics.record_delivery(
            messages[sent].inject_cycle, cycle + flits);
        if (obs_on) reg.record(h_latency, latency);
      } else {
        in_transit.push_back({cycle + flits, s.path->edges[s.hop], sent});
      }
      return true;
    });
    if (obs_on) {
      reg.record(h_inj_cycle, metrics.injected - injected_before);
      reg.record(h_del_cycle, metrics.delivered - delivered_before);
    }
    links.window_counters(cycle, recovery);
    ++cycle;
    // Nothing moving and nothing in transit: jump to the next injection
    // or retry wake instead of spinning through backoff waits.
    if (links.idle() && in_transit.empty())
      cycle = recovery.resume_at(
          cycle, next_inject < by_inject.size()
                     ? messages[by_inject[next_inject]].inject_cycle
                     : FaultRecovery::kNever);
  }
  links.last_counters();
  if (trace_on) tr.end(draining ? "sim.drain" : "sim.inject");

  metrics.finish();
  static_cast<RecoveryStats&>(metrics) = recovery.stats();
  if (obs_on) {
    reg.add(reg.counter("sim.cycles"), metrics.cycles);
    reg.add(reg.counter("sim.injected"), metrics.injected);
    reg.add(reg.counter("sim.delivered"), metrics.delivered);
    reg.add(reg.counter("sim.unroutable"), metrics.unroutable);
    reg.set_max(reg.gauge("sim.max_queue_depth"), metrics.max_queue_depth);
    reg.set_max(reg.gauge("sim.max_link_forwards"),
                metrics.max_link_forwards);
    if (recovery.enabled()) {
      reg.add(reg.counter("sim.dropped"), metrics.dropped);
      reg.add(reg.counter("sim.retries"), metrics.retries);
      reg.add(reg.counter("sim.rerouted"), metrics.rerouted);
      reg.add(reg.counter("sim.fail_events"), metrics.fail_events);
      reg.add(reg.counter("sim.repair_events"), metrics.repair_events);
    }
  }
  return metrics;
}

}  // namespace tp
