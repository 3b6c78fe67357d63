// Tests for the core public API: the placement planner, the linear-load
// verifier, and router construction.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "src/core/planner.h"
#include "src/core/verifier.h"
#include "src/load/complete_exchange.h"
#include "src/load/formulas.h"
#include "src/service/query.h"
#include "src/util/error.h"

namespace tp {
namespace {

TEST(Planner, MakeRouterNames) {
  EXPECT_EQ(make_router(RouterKind::Odr)->name(), "ODR");
  EXPECT_EQ(make_router(RouterKind::Udr)->name(), "UDR");
  EXPECT_EQ(make_router(RouterKind::Adaptive)->name(), "ADAPTIVE");
}

TEST(Planner, OdrPlanPredictsOverallFormAt3D) {
  // The paper's Section 6.1 count, odr_linear_emax(8, 3) = 10, is the
  // interior-dimension maximum only; the exact E_max is 4·8 = 32.
  Torus t(3, 8);
  const PlacementPlan plan = plan_placement(t, 1, RouterKind::Odr);
  EXPECT_EQ(plan.placement.size(), 64);
  EXPECT_TRUE(plan.prediction_exact);
  EXPECT_EQ(plan.predicted_emax, odr_linear_emax_overall(8, 3));
  EXPECT_EQ(plan.predicted_emax, measure_emax(t, plan));
  EXPECT_GT(plan.lower_bound, 0.0);
  EXPECT_FALSE(plan.summary.empty());
}

TEST(Planner, MeasuredLoadWithinPredictedBound) {
  for (RouterKind kind : {RouterKind::Odr, RouterKind::Udr}) {
    for (i32 tt = 1; tt <= 2; ++tt) {
      Torus t(3, 4);
      const PlacementPlan plan = plan_placement(t, tt, kind);
      const double measured = measure_emax(t, plan);
      if (!plan.prediction_exact) {
        EXPECT_LE(measured, plan.predicted_emax + 1e-9);
      }
      EXPECT_GE(measured, plan.lower_bound - 1e-9);
    }
  }
}

TEST(Planner, TwoDimensionalOdrPlanIsExact) {
  Torus t(2, 6);
  const PlacementPlan plan = plan_placement(t, 1, RouterKind::Odr);
  EXPECT_TRUE(plan.prediction_exact);  // floor(k/2)·k^{d-2} holds for d = 2
  EXPECT_EQ(plan.predicted_emax, odr_linear_emax_overall(6, 2));
  EXPECT_EQ(plan.predicted_emax, measure_emax(t, plan));
  // Multiplicity t > 1 keeps Theorem 3's upper bound.
  const PlacementPlan multiple = plan_placement(t, 2, RouterKind::Odr);
  EXPECT_FALSE(multiple.prediction_exact);
  EXPECT_EQ(multiple.predicted_emax, multiple_odr_upper(2, 6, 2));
}

TEST(Planner, AdaptiveKindMeasures) {
  Torus t(2, 4);
  const PlacementPlan plan = plan_placement(t, 1, RouterKind::Adaptive);
  const double measured = measure_emax(t, plan);
  EXPECT_GT(measured, 0.0);
  EXPECT_LE(measured, plan.predicted_emax + 1e-9);
}

TEST(Planner, ValidatesArguments) {
  Torus t(2, 4);
  EXPECT_THROW(plan_placement(t, 0), Error);
  EXPECT_THROW(plan_placement(t, 5), Error);
  Torus mixed(Radices{3, 4});
  EXPECT_THROW(plan_placement(mixed, 1), Error);
}

TEST(Planner, MeasureLoadsMatchesDirectCalls) {
  Torus t(2, 5);
  const Placement p = linear_placement(t);
  EXPECT_LT(measure_loads(t, p, RouterKind::Odr).max_abs_diff(odr_loads(t, p)),
            1e-12);
  EXPECT_LT(measure_loads(t, p, RouterKind::Udr).max_abs_diff(udr_loads(t, p)),
            1e-12);
  EXPECT_LT(measure_loads(t, p, RouterKind::Adaptive)
                .max_abs_diff(adaptive_loads(t, p)),
            1e-12);
}

// --- answers ------------------------------------------------------------

/// Sum of Lee distances over ordered pairs of P, dimension by dimension
/// from coordinate histograms: independent of the load kernels.
i64 sum_of_lee_distances(const Torus& torus, const Placement& p) {
  i64 sum = 0;
  for (i32 dim = 0; dim < torus.dims(); ++dim) {
    const i32 k = torus.radix(dim);
    std::vector<i64> count(static_cast<std::size_t>(k), 0);
    for (const NodeId n : p.nodes())
      ++count[static_cast<std::size_t>(torus.coord_of(n, dim))];
    for (i32 a = 0; a < k; ++a)
      for (i32 b = 0; b < k; ++b)
        sum += count[static_cast<std::size_t>(a)] *
               count[static_cast<std::size_t>(b)] * torus.cyclic_dist(dim, a, b);
  }
  return sum;
}

TEST(Answers, ExactClaimsHoldAndBoundsBracketTheMeasurement) {
  // `analyze` over d = 1..4, k = 2..12, t = 1..k and the tori of the
  // benchmark's cold sweep, under every router.  Identities are checked
  // with ==; inequalities with 1e-9 relative slack.  The full rings of odd
  // size (d = 1, t = k odd) catch a bisection row above the exact E_max.
  std::set<std::pair<i32, i32>> tori;  // (d, k)
  for (i32 d = 1; d <= 4; ++d)
    for (i32 k = 2; k <= 12; ++k) tori.insert({d, k});
  for (const auto& dk : {std::pair{2, 32}, std::pair{2, 64}, std::pair{3, 12},
                         std::pair{4, 5}})
    tori.insert(dk);
  const auto at_most = [](double a, double b) {
    return a <= b + 1e-9 * std::abs(b);
  };
  i64 answers = 0;
  for (const auto& [d, k] : tori) {
    const Torus torus(d, k);
    for (i32 t = 1; t <= k; ++t) {
      const double links = static_cast<double>(torus.num_directed_edges());
      const double mean =
          static_cast<double>(sum_of_lee_distances(
              torus, multiple_linear_placement(torus, t))) /
          links;
      for (const RouterKind kind :
           {RouterKind::Odr, RouterKind::Udr, RouterKind::Adaptive}) {
        const service::QueryResult r = service::compute_query(
            service::make_query_key(torus.radices(), t, kind,
                                    service::QueryOp::Analyze));
        SCOPED_TRACE(r.key.str());
        if (r.prediction_exact)
          EXPECT_EQ(r.measured_emax, r.predicted_emax);
        else
          EXPECT_TRUE(at_most(r.measured_emax, r.predicted_emax))
              << r.measured_emax << " > " << r.predicted_emax;
        EXPECT_EQ(r.mean_load, mean);
        EXPECT_TRUE(at_most(r.lower_bound, r.measured_emax))
            << r.lower_bound << " > " << r.measured_emax;
        EXPECT_TRUE(at_most(r.lower_bound, r.predicted_emax))
            << r.lower_bound << " > " << r.predicted_emax;
        for (const BoundValue& b : r.bound_table) {
          if (b.applicable) {
            EXPECT_TRUE(at_most(b.value, r.measured_emax))
                << b.name << " " << b.value << " > " << r.measured_emax;
          }
        }
        if (r.has_slab) {
          EXPECT_TRUE(at_most(r.slab.value, r.measured_emax))
              << "slab " << r.slab.value << " > " << r.measured_emax;
        }
        ++answers;
      }
    }
  }
  // 4 · (2 + ... + 12) keys on the grid, plus T_32^2 and T_64^2.
  EXPECT_EQ(answers, 3 * (4 * 77 + 32 + 64));
}

TEST(Answers, ServedBoundsEqualTheBoundsOfTheBuiltPlacement) {
  // The server reads the bound table and the slab off closed-form layer
  // counts; a caller holding the placement (the CLI, the benchmark's
  // replay) scans it.  Both must give the same doubles and notes: d =
  // 1..5, k = 2..25, t = 1..k, N <= 20000.
  i64 keys = 0;
  for (i32 d = 1; d <= 5; ++d)
    for (i32 k = 2; k <= 25; ++k) {
      const Torus torus(d, k);
      if (torus.num_nodes() > 20000) continue;
      for (i32 t = 1; t <= k; ++t) {
        SCOPED_TRACE(testing::Message() << "T" << k << "^" << d << " t=" << t);
        const Placement p = multiple_linear_placement(torus, t);
        const service::QueryResult r = service::compute_query(
            service::make_query_key(torus.radices(), t, RouterKind::Odr,
                                    service::QueryOp::Bounds));
        const std::vector<BoundValue> scanned = all_bounds(torus, p);
        EXPECT_EQ(r.bound_table, scanned);
        EXPECT_EQ(r.lower_bound, scanned.back().value);
        EXPECT_EQ(r.placement_size, p.size());
        EXPECT_EQ(r.placement_name, p.name());
        EXPECT_EQ(r.summary, plan_placement(torus, t).summary);
        ASSERT_EQ(r.has_slab, p.size() >= 2);
        if (r.has_slab) {
          EXPECT_EQ(r.slab, best_slab_bound(torus, p));
        }
        ++keys;
      }
    }
  EXPECT_EQ(keys, 3 * 324 + 65 + 27);
}

TEST(Answers, AdaptivePredictionIsNotAnUpperBound) {
  // The adaptive prediction is UDR's bound, which the exact adaptive
  // E_max passes on 2-D tori from k = 115 on: 230.448... > 230 here.
  const service::QueryResult r = service::compute_query(
      service::make_query_key(Radices{115, 115}, 1, RouterKind::Adaptive,
                              service::QueryOp::Load));
  EXPECT_FALSE(r.prediction_exact);
  EXPECT_EQ(r.predicted_emax, 230.0);
  EXPECT_GT(r.measured_emax, r.predicted_emax);
  EXPECT_EQ(r.measured_emax, 230.4481430687286);
}

TEST(Verifier, CertifiesLinearPlacementFamily) {
  const auto family = [](const Torus& torus) {
    return linear_placement(torus);
  };
  const VerificationReport report =
      verify_linear_load(2, {4, 6, 8, 10}, family, RouterKind::Odr);
  EXPECT_TRUE(report.linear);
  EXPECT_DOUBLE_EQ(report.c1, 0.5);  // floor(k/2) / k = 1/2 for even k
  EXPECT_EQ(report.points.size(), 4u);
  EXPECT_EQ(report.router_name, "ODR");
  EXPECT_EQ(report.family_name, "linear(c=0)");
}

TEST(Verifier, RejectsFullPopulationFamily) {
  const auto family = [](const Torus& torus) {
    return full_population(torus);
  };
  const VerificationReport report =
      verify_linear_load(2, {4, 6, 8, 10}, family, RouterKind::Odr);
  EXPECT_FALSE(report.linear);
}

TEST(Verifier, UdrFamilyIsLinearToo) {
  const auto family = [](const Torus& torus) {
    return linear_placement(torus);
  };
  const VerificationReport report =
      verify_linear_load(2, {4, 6, 8}, family, RouterKind::Udr);
  EXPECT_TRUE(report.linear);
  EXPECT_LE(report.c1, 0.5 + 1e-9);
}

TEST(Verifier, LinearFamilyIsDimensionIndependent) {
  // The paper's Section 2 "desirable case": with the linear placement and
  // ODR, the load coefficient c1 = 1/2 does not grow with d.
  const auto family = [](const Torus& torus) {
    return linear_placement(torus);
  };
  const DimensionReport report = verify_dimension_independence(
      {2, 3, 4}, {4, 6}, family, RouterKind::Odr);
  EXPECT_TRUE(report.d_independent);
  EXPECT_NEAR(report.worst_c1, 0.5, 1e-9);
  ASSERT_EQ(report.per_dimension.size(), 3u);
  for (const VerificationReport& vr : report.per_dimension)
    EXPECT_NEAR(vr.c1, 0.5, 1e-9);
}

TEST(Verifier, FullPopulationIsNotDimensionIndependent) {
  const auto family = [](const Torus& torus) {
    return full_population(torus);
  };
  const DimensionReport report = verify_dimension_independence(
      {2, 3}, {4, 6, 8}, family, RouterKind::Odr);
  EXPECT_FALSE(report.d_independent);
}

TEST(Verifier, DimensionIndependenceValidation) {
  const auto family = [](const Torus& torus) {
    return linear_placement(torus);
  };
  EXPECT_THROW(
      verify_dimension_independence({}, {4}, family, RouterKind::Odr),
      Error);
  EXPECT_THROW(
      verify_dimension_independence({2}, {4}, family, RouterKind::Odr, 0.5),
      Error);
}

TEST(Verifier, NeedsAtLeastOneK) {
  const auto family = [](const Torus& torus) {
    return linear_placement(torus);
  };
  EXPECT_THROW(verify_linear_load(2, {}, family, RouterKind::Odr), Error);
}

}  // namespace
}  // namespace tp
