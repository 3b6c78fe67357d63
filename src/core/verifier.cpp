#include "src/core/verifier.h"

#include <algorithm>

#include "src/util/error.h"

namespace tp {

VerificationReport verify_linear_load(i32 d, const std::vector<i32>& ks,
                                      const PlacementFamily& family,
                                      RouterKind kind, double slack) {
  TP_REQUIRE(!ks.empty(), "need at least one k");
  VerificationReport report;
  for (i32 k : ks) {
    const Torus torus(d, k);
    const Placement p = family(torus);
    if (report.family_name.empty()) report.family_name = p.name();
    report.points.push_back(ScalingPoint{
        k, p.size(), measure_orbit_loads(torus, p, kind).max_load()});
  }
  report.router_name = make_router(kind)->name();
  report.c1 = fitted_load_coefficient(report.points);
  report.linear = report.points.size() >= 2
                      ? is_load_linear(report.points, slack)
                      : true;
  return report;
}

DimensionReport verify_dimension_independence(
    const std::vector<i32>& ds, const std::vector<i32>& ks,
    const PlacementFamily& family, RouterKind kind, double slack) {
  TP_REQUIRE(!ds.empty(), "need at least one dimension");
  TP_REQUIRE(slack >= 1.0, "slack must be >= 1");
  DimensionReport report;
  for (i32 d : ds)
    report.per_dimension.push_back(
        verify_linear_load(d, ks, family, kind, slack));

  double base_c1 = report.per_dimension.front().c1;
  report.d_independent = true;
  for (const VerificationReport& vr : report.per_dimension) {
    report.worst_c1 = std::max(report.worst_c1, vr.c1);
    if (!vr.linear || (base_c1 > 0.0 && vr.c1 > slack * base_c1))
      report.d_independent = false;
  }
  return report;
}

}  // namespace tp
