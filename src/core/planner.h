// The headline API: plan an optimal placement + routing for a torus.
//
// Given a torus T_k^d and a multiplicity t, plan_placement() constructs the
// paper's optimal design — the (multiple) linear placement of size t·k^{d-1}
// with ODR (minimal load) or UDR (fault tolerance) — together with its
// predicted maximum load, the theoretical lower bounds, and optionally the
// measured exact load.
//
// plan_design() is the same plan without the placement: |P|, the layer
// counts the bounds read and Section 4's c are closed forms in (d, k, t),
// so it builds nothing per node.  It is what a served key computes;
// plan_placement() calls it and attaches multiple_linear_placement().

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/bounds/lower_bounds.h"
#include "src/load/complete_exchange.h"
#include "src/load/load_map.h"
#include "src/placement/layer_counts.h"
#include "src/placement/placement.h"
#include "src/routing/router.h"

namespace tp {

/// Creates the router for a kind (ODR/UDR use the canonical tie-break).
std::unique_ptr<Router> make_router(RouterKind kind);

/// A planned placement + routing design for one torus, without the nodes.
struct DesignPlan {
  std::string placement_name;  ///< multiple_linear_name(t)
  LayerCounts counts;          ///< multiple_linear_counts: |P|, layers, ...
  RouterKind router_kind = RouterKind::Odr;
  std::unique_ptr<Router> router;

  double predicted_emax = 0.0;     ///< exact E_max, or a closed form that
                                   ///< bounds it (not for adaptive)
  bool prediction_exact = false;   ///< exact (ODR, t = 1, d >= 2) vs bound
  double lower_bound = 0.0;        ///< best applicable lower bound
  /// Every lower bound (all_bounds); .back() is the best, lower_bound.
  std::vector<BoundValue> bounds;
  std::string summary;             ///< one-line human-readable description
};

/// A DesignPlan with its placement.
struct PlacementPlan : DesignPlan {
  Placement placement;
};

/// Plans the optimal design for T_k^d from (d, k, t) alone: a multiple
/// linear placement of multiplicity t routed by `kind`.  Requires a
/// uniform-radix torus and 1 <= t <= k.  O(d·k²), whatever N is.
DesignPlan plan_design(const Torus& torus, i32 t = 1,
                       RouterKind kind = RouterKind::Odr);

/// plan_design plus the placement itself (multiple_linear_placement).
PlacementPlan plan_placement(const Torus& torus, i32 t = 1,
                             RouterKind kind = RouterKind::Odr);

/// Measures the exact maximum load of a plan on its torus (complete
/// exchange, Definition 4) using the fast load analyzers.
double measure_emax(const Torus& torus, const PlacementPlan& plan);

/// Exact loads per link orbit for any router kind on any placement — what
/// E_max, the mean and the loaded-link count are read from.  The one
/// dispatch point: a placement that is a union of cosets of {x : Σx ≡ 0
/// (mod k)} on a uniform torus (coset_union_of: |P| == |C|·k^{d-1} for
/// the residue set C of its nodes) is counted by counted_orbit_loads,
/// which ignores `threads`; every other placement is walked by the
/// folded kernels with `threads` analyzer workers (ODR and UDR results
/// are bit-identical at any width; the adaptive walk has no parallel
/// analyzer).  The choice reads the placement's nodes, never its name.
FoldedLoads measure_orbit_loads(const Torus& torus, const Placement& p,
                                RouterKind kind, i32 threads = 1);

/// Exact per-link loads: measure_orbit_loads with `threads` analyzer
/// workers, broadcast to every link.
LoadMap measure_loads(const Torus& torus, const Placement& p,
                      RouterKind kind, i32 threads = 1);

}  // namespace tp
