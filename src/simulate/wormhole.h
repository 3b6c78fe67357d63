// Flit-level wormhole simulation with virtual channels.
//
// The store-and-forward simulator (network_sim.h) cannot deadlock: queues
// are unbounded and a message occupies one link at a time.  Wormhole
// routers — the hardware the paper's networks used in practice (its
// ref. [11] is the wormhole survey) — stretch a message across a chain of
// small per-link buffers, so messages hold several links at once and
// cyclic waits become real deadlocks.  This simulator makes the static
// channel-dependency analysis of routing/deadlock.h observable:
//
//   * one VC per link + dimension-ordered routing on a ring -> deadlock
//   * two VCs with the dateline discipline -> same traffic drains
//
// Model.  Each directed link has `vcs_per_link` virtual channels; a VC is
// an input buffer of `buffer_flits` flits at the link's head node,
// allocated to one message from head arrival until the tail leaves.  Each
// link transfers at most one flit per cycle (VCs share the wire,
// round-robin).  A message of `message_flits` flits follows a source-
// routed path; its head must allocate a VC on the next link (per the
// policy below) before any flit crosses.  Ejection at the destination is
// unbounded.  If no flit moves for `stall_threshold` cycles while
// messages are outstanding, the run reports deadlock.

#pragma once

#include <vector>

#include "src/obs/linkprobe.h"
#include "src/routing/path.h"
#include "src/simulate/recovery.h"
#include "src/torus/torus.h"

namespace tp {

/// How the head picks a virtual channel on the next link.
enum class VcPolicy {
  SingleVc,    ///< always VC 0 (equivalent to no virtual channels)
  AnyFree,     ///< lowest-index unallocated VC (no deadlock protection)
  Dateline,    ///< VC 0, switching to VC 1 after crossing the ring's
               ///< dateline in the dimension being traversed
};

struct WormholeConfig {
  i32 vcs_per_link = 2;
  i32 buffer_flits = 2;
  i64 message_flits = 8;
  VcPolicy policy = VcPolicy::Dateline;
  i64 stall_threshold = 1000;  ///< idle cycles before declaring deadlock

  /// Optional per-link telemetry sink (not owned; must outlive run()).
  /// Null = link probing off; the hot path then pays one predicted null
  /// check per site.  See obs/linkprobe.h.
  obs::LinkProbe* probe = nullptr;

  /// Dynamic fault injection (fault_schedule.h).  Wormhole recovery is
  /// teardown-and-retry: when a wire carrying any part of a worm (or the
  /// head's next hop) dies, the whole worm is torn down — its VCs freed,
  /// all flits discarded — and the message waits out an exponential
  /// backoff before re-injecting from its source over a path freshly
  /// sampled from recovery.reroute_router against the live fault set.
  /// Retransmission restarts the full message_flits payload.  A non-empty
  /// schedule requires recovery.reroute_router; with a null/empty
  /// schedule results match the fault-free run bit-for-bit.
  RecoveryConfig recovery;
};

/// Wormhole results; the recovery counters come from RecoveryStats
/// (rerouted counts re-injections over a fresh path).
struct WormholeResult : RecoveryStats {
  bool deadlocked = false;
  i64 cycles = 0;          ///< cycle of last flit ejection (or of the stall)
  i64 delivered = 0;       ///< messages fully ejected
  i64 stuck_messages = 0;  ///< in flight when deadlock was declared
  i64 flits_moved = 0;     ///< total flit transfers (excludes ejections)
};

class WormholeSim {
 public:
  WormholeSim(const Torus& torus, WormholeConfig config);

  /// Runs the messages (all injected at cycle 0) to completion or
  /// deadlock.  Paths must be non-empty walks.
  WormholeResult run(const std::vector<Path>& messages);

 private:
  const Torus& torus_;
  WormholeConfig config_;
};

}  // namespace tp
