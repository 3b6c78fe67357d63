// Traffic generation for the simulator.
//
// complete_exchange_traffic realizes the paper's all-to-all personalized
// communication: every processor of the placement sends one message to
// every other processor, with each message's path drawn uniformly from the
// routing algorithm's path set C_{p->q} (Definition 3).  When a fault set
// is supplied, the draw is uniform over the fault-free subset of C_{p->q};
// pairs whose entire path set is faulted are recorded as unroutable (the
// returned message carries an empty path and is skipped at injection).

#pragma once

#include <vector>

#include "src/placement/placement.h"
#include "src/routing/router.h"
#include "src/simulate/network_sim.h"
#include "src/torus/graph.h"

namespace tp {

struct TrafficResult {
  std::vector<SimMessage> messages;
  i64 unroutable_pairs = 0;  ///< ordered pairs with no fault-free path
};

/// All-to-all personalized traffic over the placement, injected at cycle 0.
/// `faults` may be null.  Deterministic given `seed`.
TrafficResult complete_exchange_traffic(const Torus& torus,
                                        const Placement& p,
                                        const Router& router, u64 seed,
                                        const EdgeSet* faults = nullptr);

/// Random permutation traffic: each processor sends one message, and the
/// destinations form a random derangement-free permutation of the
/// processors (fixed points are skipped).  A lighter load pattern used by
/// the throughput experiments for contrast.
TrafficResult permutation_traffic(const Torus& torus, const Placement& p,
                                  const Router& router, u64 seed,
                                  const EdgeSet* faults = nullptr);

/// Hot-spot traffic: every other processor sends one message to `target`
/// (which must be in the placement).  The worst case for link contention
/// around the target; used to contrast with complete exchange.
TrafficResult hotspot_traffic(const Torus& torus, const Placement& p,
                              const Router& router, NodeId target, u64 seed,
                              const EdgeSet* faults = nullptr);

/// BSP-style h-relation (Valiant): every processor sends exactly h
/// messages to destinations drawn uniformly from the other processors.
/// The makespan of an h-relation divided by h estimates the BSP gap g of
/// the placement+routing design.
TrafficResult h_relation_traffic(const Torus& torus, const Placement& p,
                                 const Router& router, i64 h, u64 seed,
                                 const EdgeSet* faults = nullptr);

/// Open-loop random traffic for saturation studies: during cycles
/// [0, horizon) every processor independently injects a message with
/// probability `rate` per cycle, destined to a uniformly random other
/// processor.  rate = 1 means one message per processor per cycle.
TrafficResult random_rate_traffic(const Torus& torus, const Placement& p,
                                  const Router& router, double rate,
                                  i64 horizon, u64 seed,
                                  const EdgeSet* faults = nullptr);

}  // namespace tp
