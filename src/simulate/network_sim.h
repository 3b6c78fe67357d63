// Cycle-accurate store-and-forward simulator for torus networks.
//
// The model matches the paper's notion of load: every directed link can
// transmit one message per cycle, messages follow the full path assigned at
// injection (source routing, as Definition 3's random choice over C_{p->q}),
// and links queue messages FIFO.  Under complete exchange the makespan is
// therefore lower-bounded by the busiest link's message count — i.e. by
// E_max — which is exactly the connection the experiments probe.
//
// Statically failed links never transmit; messages are never assigned
// paths through them (path selection happens in traffic generation, see
// traffic.h).  A FaultSchedule (config.recovery) additionally fails and
// repairs wires *during* the run: a message whose next hop crosses a
// currently-dead wire is pulled out of the link queue and rerouted through
// a FaultTolerantRouter against the live fault set, waiting out an
// exponential backoff between attempts; messages that exhaust the retry
// budget (or whose surviving path set is empty on the final attempt) are
// counted as dropped, never crashed.  The shared recovery machinery is
// FaultRecovery (recovery.h); the link queues are LinkQueues
// (link_queues.h).

#pragma once

#include <vector>

#include "src/obs/linkprobe.h"
#include "src/routing/path.h"
#include "src/simulate/fault_schedule.h"
#include "src/simulate/metrics.h"
#include "src/torus/graph.h"
#include "src/torus/torus.h"

namespace tp {

/// A message to simulate: a source-routed path plus its injection time.
struct SimMessage {
  Path path;
  i64 inject_cycle = 0;
};

/// Simulator knobs.
struct SimConfig {
  /// Flits per message: a link forwarding a message stays busy this many
  /// cycles (store-and-forward serialization).  1 = single-flit messages,
  /// the model matching the paper's unit loads.
  i64 flits_per_message = 1;

  /// Optional per-link telemetry sink (not owned; must outlive run()).
  /// Null = link probing off; the hot path then pays one predicted null
  /// check per site.  See obs/linkprobe.h.
  obs::LinkProbe* probe = nullptr;

  /// Dynamic fault injection and retry/reroute recovery.  With a null or
  /// empty schedule the dynamic machinery stays dormant and results match
  /// the fault-free path bit-for-bit.  A non-empty schedule requires
  /// recovery.reroute_router.
  RecoveryConfig recovery;
};

class NetworkSim {
 public:
  /// `faults` may be null (no failed links).  The fault set is copied.
  NetworkSim(const Torus& torus, const EdgeSet* faults = nullptr,
             SimConfig config = {});

  /// Runs all messages to delivery and returns the metrics.  Messages whose
  /// path crosses a failed link are counted as unroutable and dropped at
  /// the source (traffic generation normally prevents this).
  /// `max_cycles` guards against livelock bugs; 0 means automatic
  /// (a generous bound derived from total work).
  SimMetrics run(const std::vector<SimMessage>& messages, i64 max_cycles = 0);

 private:
  const Torus& torus_;
  EdgeSet faults_;
  bool has_faults_ = false;
  SimConfig config_;
};

}  // namespace tp
