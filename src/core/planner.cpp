#include "src/core/planner.h"

#include <optional>

#include "src/obs/obs.h"
#include "src/load/counted_loads.h"
#include "src/load/formulas.h"
#include "src/routing/adaptive.h"
#include "src/routing/odr.h"
#include "src/routing/udr.h"
#include "src/util/error.h"

namespace tp {

std::unique_ptr<Router> make_router(RouterKind kind) {
  switch (kind) {
    case RouterKind::Odr:
      return std::make_unique<OdrRouter>();
    case RouterKind::Udr:
      return std::make_unique<UdrRouter>();
    case RouterKind::Adaptive:
      return std::make_unique<AdaptiveMinimalRouter>();
  }
  TP_ASSERT(false, "unknown router kind");
}

PlacementPlan plan_placement(const Torus& torus, i32 t, RouterKind kind) {
  TP_OBS_SCOPE("plan.plan");
  TP_REQUIRE(torus.is_uniform_radix(),
             "planning requires the paper's T_k^d (uniform radix)");
  const i32 k = torus.radix(0);
  const i32 d = torus.dims();
  TP_REQUIRE(t >= 1 && t <= k, "multiplicity t must be in [1, k]");

  std::optional<Placement> placement;
  {
    TP_OBS_SCOPE("plan.place");
    placement.emplace(multiple_linear_placement(torus, t));
  }
  PlacementPlan plan{std::move(*placement), kind, nullptr, 0.0, false, 0.0,
                     {}, ""};

  {
    TP_OBS_SCOPE("plan.route");
    plan.router = make_router(kind);
    switch (kind) {
      case RouterKind::Odr:
        // The paper's Section 6.1 count (odr_linear_emax) is the maximum
        // over interior dimensions only; the measured maximum over every
        // link is the overall form.
        if (t == 1 && d >= 2) {
          plan.predicted_emax = odr_linear_emax_overall(k, d);
          plan.prediction_exact = true;
        } else {
          plan.predicted_emax = multiple_odr_upper(t, k, d);
          plan.prediction_exact = false;
        }
        break;
      case RouterKind::Udr:
        plan.predicted_emax = multiple_udr_upper(t, k, d);
        plan.prediction_exact = false;
        break;
      case RouterKind::Adaptive:
        // No closed form in the paper.  UDR's bound is served, but it does
        // not bound adaptive: the exact adaptive E_max passes it on 2-D
        // tori from k = 115 on (T_115^2, t = 1: 230.448 > 230).
        plan.predicted_emax = multiple_udr_upper(t, k, d);
        plan.prediction_exact = false;
        break;
    }
  }
  {
    TP_OBS_SCOPE("plan.bound");
    plan.bounds = all_bounds(torus, plan.placement);
    plan.lower_bound = plan.bounds.back().value;
  }
  plan.summary = plan.placement.name() + " + " + plan.router->name() +
                 " on T_" + std::to_string(k) + "^" + std::to_string(d) +
                 ": |P| = " + std::to_string(plan.placement.size()) +
                 ", predicted E_max " +
                 (plan.prediction_exact ? "= " : "<= ") +
                 std::to_string(plan.predicted_emax) + ", lower bound " +
                 std::to_string(plan.lower_bound);
  return plan;
}

LoadMap measure_loads(const Torus& torus, const Placement& p,
                      RouterKind kind, i32 threads) {
  return measure_orbit_loads(torus, p, kind, threads).broadcast(torus);
}

FoldedLoads measure_orbit_loads(const Torus& torus, const Placement& p,
                                RouterKind kind, i32 threads) {
  TP_OBS_SCOPE("plan.measure");
  TP_REQUIRE(threads >= 1, "need at least one analyzer thread");
  if (const std::optional<CosetUnion> u = coset_union_of(torus, p))
    return counted_orbit_loads(*u, kind);
  switch (kind) {
    case RouterKind::Odr:
      return odr_orbit_loads(torus, p, TieBreak::PositiveOnly, threads);
    case RouterKind::Udr:
      return udr_orbit_loads(torus, p, TieBreak::PositiveOnly, threads);
    case RouterKind::Adaptive:
      return adaptive_orbit_loads(torus, p);
  }
  TP_ASSERT(false, "unknown router kind");
}

double measure_emax(const Torus& torus, const PlacementPlan& plan) {
  return measure_orbit_loads(torus, plan.placement, plan.router_kind)
      .max_load();
}

}  // namespace tp
