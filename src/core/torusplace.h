// torusplace — umbrella header.
//
// Optimal processor placements and shortest-path routing algorithms for
// partially populated torus networks, reproducing Azizoglu & Egecioglu,
// "Lower Bounds on Communication Loads and Optimal Placements in Torus
// Networks" (IPPS 1998 / IEEE TC 49(3), 2000).
//
// Quick start:
//
//   #include "src/core/torusplace.h"
//
//   tp::Torus torus(/*d=*/3, /*k=*/8);
//   tp::PlacementPlan plan = tp::plan_placement(torus, /*t=*/1,
//                                               tp::RouterKind::Odr);
//   double emax = tp::measure_emax(torus, plan);   // 32 == plan.predicted_emax
//
// See examples/ for complete programs.

#pragma once

#include "src/analysis/imbalance.h"
#include "src/analysis/load_profile.h"
#include "src/analysis/resilience.h"
#include "src/bisection/cut.h"
#include "src/bisection/dimension_cut.h"
#include "src/bisection/exact_bisection.h"
#include "src/bisection/hyperplane_sweep.h"
#include "src/bounds/lower_bounds.h"
#include "src/bounds/optimal_size.h"
#include "src/bounds/slab_search.h"
#include "src/core/optimize.h"
#include "src/core/planner.h"
#include "src/core/verifier.h"
#include "src/load/complete_exchange.h"
#include "src/load/formulas.h"
#include "src/load/load_map.h"
#include "src/placement/factory.h"
#include "src/placement/io.h"
#include "src/placement/modular.h"
#include "src/placement/placement.h"
#include "src/placement/uniformity.h"
#include "src/routing/adaptive.h"
#include "src/routing/deadlock.h"
#include "src/routing/disjoint.h"
#include "src/routing/fault_router.h"
#include "src/routing/odr.h"
#include "src/routing/table_router.h"
#include "src/routing/udr.h"
#include "src/simulate/adaptive_sim.h"
#include "src/simulate/fault.h"
#include "src/simulate/fault_schedule.h"
#include "src/simulate/network_sim.h"
#include "src/simulate/traffic.h"
#include "src/simulate/wormhole.h"
#include "src/torus/graph.h"
#include "src/torus/torus.h"
