// Per-link store-and-forward state shared by NetworkSim and
// AdaptiveNetworkSim.
//
// Both simulators queue messages FIFO on every directed link and visit,
// each cycle, only the links that hold a backlog.  LinkQueues owns the
// queues (of message ids), the active-link list and the accounting both
// repeat around them: queue depths and forwards (into SimMetrics and the
// optional LinkProbe) and the per-window trace counters.  What a link does
// with its backlog in a cycle — the flow-control model — stays with the
// simulator, as the `step` passed to sweep().

#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <vector>

#include "src/obs/linkprobe.h"
#include "src/obs/trace.h"
#include "src/simulate/metrics.h"
#include "src/simulate/recovery.h"
#include "src/torus/torus.h"
#include "src/util/error.h"

namespace tp {

class LinkQueues {
 public:
  /// Sizes `metrics.link_forwards`; `probe` may be null.  `metrics` and
  /// `probe` must outlive the object.
  LinkQueues(const Torus& torus, SimMetrics& metrics, obs::LinkProbe* probe)
      : metrics_(metrics),
        probe_(probe),
        trace_on_(obs::tracer().enabled()),
        queues_(static_cast<std::size_t>(torus.num_directed_edges())),
        is_active_(queues_.size(), false) {
    if (probe_ != nullptr)
      TP_REQUIRE(probe_->num_links() == torus.num_directed_edges(),
                 "link probe sized for a different torus");
    metrics_.link_forwards.assign(queues_.size(), 0);
  }

  std::size_t depth(EdgeId e) const {
    return queues_[static_cast<std::size_t>(e)].size();
  }

  /// Appends message `id` to e's queue at `cycle`; returns the new depth.
  i64 push(EdgeId e, std::size_t id, i64 cycle) {
    const auto i = static_cast<std::size_t>(e);
    queues_[i].push_back(id);
    const i64 depth = static_cast<i64>(queues_[i].size());
    metrics_.max_queue_depth = std::max(metrics_.max_queue_depth, depth);
    if (probe_ != nullptr) probe_->on_queue_depth(e, cycle, depth);
    if (!is_active_[i]) {
      is_active_[i] = true;
      active_.push_back(e);
    }
    return depth;
  }

  /// Counts one transmission across e starting at `cycle`, keeping the
  /// link busy for `flits` cycles.
  void forward(EdgeId e, i64 cycle, i64 flits = 1) {
    ++metrics_.link_forwards[static_cast<std::size_t>(e)];
    if (probe_ != nullptr) probe_->on_forward(e, cycle, flits);
    ++window_forwards_;
  }

  /// Calls `step(e, queue)` once for every link with a backlog, in
  /// active-list order; links activated during the sweep are visited in
  /// it too.  A link leaves the list when its queue is empty or `step`
  /// returns false.
  template <class Step>
  void sweep(Step&& step) {
    for (std::size_t ai = 0; ai < active_.size();) {
      const EdgeId e = active_[ai];
      std::deque<std::size_t>& q = queues_[static_cast<std::size_t>(e)];
      if (!q.empty() && step(e, q)) {
        ++ai;
        continue;
      }
      is_active_[static_cast<std::size_t>(e)] = false;
      active_[ai] = active_.back();
      active_.pop_back();
    }
  }

  bool idle() const { return active_.empty(); }

  /// End of `cycle`: every kCounterWindow cycles, the window's forwards,
  /// the active links and the messages waiting out a backoff.
  void window_counters(i64 cycle, const FaultRecovery& recovery) {
    if (!trace_on_ || cycle % kCounterWindow != kCounterWindow - 1) return;
    obs::Tracer& tr = obs::tracer();
    tr.counter("sim.forwards_per_window", window_forwards_, "sim");
    tr.counter("sim.active_links", static_cast<i64>(active_.size()), "sim");
    if (recovery.enabled())
      tr.counter("sim.retries_pending",
                 static_cast<i64>(recovery.waiting()), "sim");
    window_forwards_ = 0;
  }

  /// The closing counter samples of a run.
  void last_counters() {
    if (!trace_on_) return;
    obs::Tracer& tr = obs::tracer();
    if (window_forwards_ > 0)
      tr.counter("sim.forwards_per_window", window_forwards_, "sim");
    tr.counter("sim.active_links", 0, "sim");
  }

 private:
  static constexpr i64 kCounterWindow = 64;

  SimMetrics& metrics_;
  obs::LinkProbe* const probe_;
  const bool trace_on_;
  std::vector<std::deque<std::size_t>> queues_;
  std::vector<EdgeId> active_;
  std::vector<bool> is_active_;
  i64 window_forwards_ = 0;
};

}  // namespace tp
