// Tests for the concrete bound calculators (Lemma 1, eqs. (1)/(8)/(9),
// Section 4) instantiated on real tori and placements.

#include <gtest/gtest.h>

#include "src/bounds/lower_bounds.h"
#include "src/bounds/optimal_size.h"
#include "src/load/complete_exchange.h"
#include "src/load/formulas.h"
#include "src/util/error.h"

namespace tp {
namespace {

TEST(BlaumBound, MatchesFormula) {
  Torus t(3, 4);
  const Placement p = linear_placement(t);
  const BoundValue b = blaum_bound(t, p);
  EXPECT_TRUE(b.applicable);
  EXPECT_DOUBLE_EQ(b.value, blaum_lower_bound(16, 3));
}

TEST(BlaumBound, TrivialForTinyPlacements) {
  Torus t(2, 3);
  const Placement p(t, {0}, "single");
  EXPECT_DOUBLE_EQ(blaum_bound(t, p).value, 0.0);
}

TEST(SeparatorBound, SingletonRecoversBlaum) {
  Torus t(2, 5);
  const Placement p = linear_placement(t);
  const BoundValue b = separator_bound(t, p, {p.nodes()[0]});
  EXPECT_TRUE(b.applicable);
  // |S| = 1 processor, |dS| = 4d boundary links around one node.
  EXPECT_DOUBLE_EQ(b.value, blaum_lower_bound(p.size(), 2));
}

TEST(SeparatorBound, LargerSubsetsTightenTheBoundInHighDimensions) {
  // The bisection-style subset only beats the singleton (Blaum) bound once
  // 2d outgrows the constant 8 of the c^2 k^{d-1}/8 form — i.e. for d >= 5
  // (the Section 4 motivation).  Check the crossover concretely at d = 5.
  Torus t(5, 3);
  const Placement p = linear_placement(t);  // |P| = 81
  std::vector<NodeId> layer0;
  for (NodeId n = 0; n < t.num_nodes(); ++n)
    if (t.coord_of(n, 0) == 0) layer0.push_back(n);
  const BoundValue b = separator_bound(t, p, layer0);
  EXPECT_TRUE(b.applicable);
  EXPECT_GT(b.value, blaum_bound(t, p).value);  // 9 > 80/10
}

TEST(SeparatorBound, MeasuredLoadRespectsIt) {
  Torus t(2, 6);
  const Placement p = linear_placement(t);
  std::vector<NodeId> half;
  for (NodeId n = 0; n < t.num_nodes(); ++n)
    if (t.coord_of(n, 0) < 3) half.push_back(n);
  const BoundValue b = separator_bound(t, p, half);
  EXPECT_GE(odr_loads(t, p).max_load(), b.value - 1e-9);
  EXPECT_GE(udr_loads(t, p).max_load(), b.value - 1e-9);
}

TEST(SeparatorBound, WholeTorusNotApplicable) {
  Torus t(2, 3);
  const Placement p = linear_placement(t);
  const BoundValue b = separator_bound(t, p, t.all_nodes());
  EXPECT_FALSE(b.applicable);
}

TEST(BisectionBound, UsesTheorem1ForUniformPlacements) {
  Torus t(3, 4);
  const Placement p = linear_placement(t);
  const BoundValue b = bisection_bound(t, p);
  EXPECT_TRUE(b.applicable);
  EXPECT_EQ(b.note, "dimension cut (Theorem 1)");
  EXPECT_DOUBLE_EQ(b.value,
                   bisection_lower_bound(16, uniform_bisection_width(4, 3)));
}

TEST(BisectionBound, FallsBackToPrefixCutWhenLayersCannotBalance) {
  // The full T_3^2: every layer holds 3 of the 9 processors, so no pair of
  // layer boundaries splits them within one.  The prefix {0, 1, 2, 3}
  // holds 4 of them behind 16 directed links: Lemma 1 gives 2·4·5/16.
  const Torus t(2, 3);
  const Placement full = full_population(t);
  const BoundValue b = bisection_bound(t, full);
  EXPECT_TRUE(b.applicable);
  EXPECT_EQ(b.note, "layer prefix cut (whole layers, then part of one)");
  EXPECT_EQ(b.value, 2.5);
  EXPECT_GE(odr_loads(t, full).max_load(), b.value);

  // T_9^3's linear placement: 9 processors a layer, 81 in all.  Processors
  // 39 and 40 sit at (4,3,2) and (4,4,1), ids 353 and 361, so r = 360 =
  // (4,4,0), the coarsest multiple between them: whole layers of
  // dimension 0, then whole rows.  Its 180 wires are 360 directed links.
  const Torus t93(3, 9);
  const BoundValue odd_k = bisection_bound(t93, linear_placement(t93));
  EXPECT_EQ(odd_k.note, b.note);
  EXPECT_EQ(odd_k.value, separator_lower_bound(40, 81, 360));

  // A placement deliberately unbalanced: two processors in one corner
  // cell and one elsewhere (odd count, clustered).  Whichever cut is
  // used, a measured load respects the bound.
  const Torus t42(2, 4);
  const Placement lopsided(t42, {0, 1, 5}, "lopsided");
  const BoundValue l = bisection_bound(t42, lopsided);
  EXPECT_TRUE(l.applicable);
  EXPECT_GE(odr_loads(t42, lopsided).max_load(), l.value - 1e-9);
}

TEST(BisectionBound, OddSizeServesLemma1ForTheSplitItMakes) {
  // T_5^2's linear placement: 5 processors, one per layer, split 2 : 3 by
  // the dimension cut's 20 links.  Lemma 1 proves 2·2·3/20 = 0.6; eq. (8)'s
  // 2·2.5²/20 = 0.625 assumes a split no cut makes.
  const Torus t(2, 5);
  const BoundValue b = bisection_bound(t, linear_placement(t));
  EXPECT_EQ(b.note, "dimension cut (Theorem 1)");
  EXPECT_EQ(b.value, 0.6);
  // For even |P| the Lemma 1 form is eq. (8), bit for bit.
  const Torus t43(3, 4);
  EXPECT_EQ(bisection_bound(t43, linear_placement(t43)).value,
            bisection_lower_bound(16, uniform_bisection_width(4, 3)));
}

TEST(BisectionBound, ReadsOnlyTheLayerCounts) {
  // The counts overload on the closed forms and the Placement overload on
  // the built placement agree, odd k (the prefix cut) included.
  for (i32 k : {4, 5, 9}) {
    const Torus t(3, k);
    for (i32 tt = 1; tt <= 3; ++tt)
      EXPECT_EQ(bisection_bound(t, multiple_linear_counts(t, tt)),
                bisection_bound(t, multiple_linear_placement(t, tt)));
  }
}

TEST(ImprovedBound, AppliesToUniformPlacements) {
  Torus t(3, 4);
  const BoundValue b = improved_bound(t, linear_placement(t));
  EXPECT_TRUE(b.applicable);
  EXPECT_DOUBLE_EQ(b.value, improved_lower_bound(1.0, 4, 3));
}

TEST(ImprovedBound, ScalesWithMultiplicity) {
  Torus t(3, 4);
  const BoundValue b1 = improved_bound(t, multiple_linear_placement(t, 1));
  const BoundValue b2 = improved_bound(t, multiple_linear_placement(t, 2));
  EXPECT_DOUBLE_EQ(b2.value, 4.0 * b1.value);  // c doubles, bound is c^2
}

TEST(ImprovedBound, RejectsNonUniformPlacements) {
  Torus t(2, 4);
  // Three nodes of one row: non-uniform along both dimensions.
  EXPECT_FALSE(improved_bound(t, Placement(t, {0, 1, 2}, "bad")).applicable);
  Torus mixed(Radices{3, 4});
  const Placement p(mixed, {0, 5}, "mixed");
  EXPECT_FALSE(improved_bound(mixed, p).applicable);
}

TEST(ImprovedBound, OneUniformDimensionSuffices) {
  // The paper's remark after Theorem 1: uniformity along a single
  // dimension already yields the 4k^{d-1} bisection.  A full row of T_4^2
  // is uniform along dim 1 only — still applicable.
  Torus t(2, 4);
  EXPECT_TRUE(improved_bound(t, clustered_placement(t, 4)).applicable);
}

TEST(AllBounds, BestIsTheMaxOfApplicable) {
  Torus t(3, 4);
  const Placement p = linear_placement(t);
  const auto bounds = all_bounds(t, p);
  ASSERT_EQ(bounds.size(), 4u);
  double expected = 0.0;
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i)
    if (bounds[i].applicable) expected = std::max(expected, bounds[i].value);
  EXPECT_DOUBLE_EQ(bounds.back().value, expected);
  EXPECT_DOUBLE_EQ(best_lower_bound(t, p), expected);
}

TEST(AllBounds, MeasuredLoadsRespectBest) {
  for (i32 d = 2; d <= 3; ++d)
    for (i32 k : {4, 5, 6}) {
      Torus t(d, k);
      for (i32 tt = 1; tt <= 2; ++tt) {
        const Placement p = multiple_linear_placement(t, tt);
        const double bound = best_lower_bound(t, p);
        EXPECT_GE(odr_loads(t, p).max_load(), bound - 1e-9)
            << "d=" << d << " k=" << k << " t=" << tt;
        EXPECT_GE(udr_loads(t, p).max_load(), bound - 1e-9)
            << "d=" << d << " k=" << k << " t=" << tt;
      }
    }
}

TEST(AllBounds, NoneExceedsTheMeasuredLoadOnOddRadixTori) {
  // With odd k no slab holds half of a uniform placement, so the paper's
  // c^2 k^{d-1}/8 overshoots (full T_3^3: 10.125 > 9); every bound must
  // stay at or below the exact E_max of every router.  ODR and UDR loads
  // are exact; adaptive sums doubles (full T_3^4: 26.999999999999964).
  for (i32 d = 2; d <= 4; ++d)
    for (i32 k : {3, 5, 7}) {
      const Torus torus(d, k);
      for (i32 t = 1; t <= k; ++t) {
        const Placement p = multiple_linear_placement(torus, t);
        const double odr = odr_loads(torus, p).max_load();
        const double udr = udr_loads(torus, p).max_load();
        const double adaptive = adaptive_loads(torus, p).max_load();
        for (const BoundValue& b : all_bounds(torus, p)) {
          if (!b.applicable) continue;
          SCOPED_TRACE(testing::Message() << "T" << k << "^" << d << " t="
                                          << t << " " << b.name);
          EXPECT_LE(b.value, odr);
          EXPECT_LE(b.value, udr);
          EXPECT_LE(b.value, adaptive + 1e-9);
        }
      }
    }
}

TEST(ImprovedBound, OddRadixUsesTheHalfSlab) {
  for (i32 d = 2; d <= 4; ++d) {
    const Torus t(d, 3);
    EXPECT_EQ(improved_bound(t, full_population(t)).value,
              static_cast<double>(powi(3, d - 1)));
  }
  const Torus t52(2, 5);
  EXPECT_EQ(improved_bound(t52, full_population(t52)).value, 15.0);
}

// --- optimal size (eq. 9) -----------------------------------------------------

TEST(OptimalSize, CeilingMatchesFormula) {
  Torus t(3, 4);
  EXPECT_DOUBLE_EQ(placement_size_ceiling(t, 0.5),
                   max_placement_size(0.5, 4, 3));
}

TEST(OptimalSize, LinearPlacementsFitUnderTheCeiling) {
  // With the measured c1 = 1/2 for ODR on linear placements, eq. (9)
  // allows up to 12d * (1/2) * k^{d-1} = 6d k^{d-1} processors; the linear
  // placement's k^{d-1} is comfortably below.
  for (i32 d = 2; d <= 4; ++d) {
    Torus t(d, 4);
    const Placement p = linear_placement(t);
    EXPECT_LT(static_cast<double>(p.size()), placement_size_ceiling(t, 0.5));
  }
}

TEST(OptimalSize, FittedCoefficientIsTheWorstRatio) {
  std::vector<ScalingPoint> pts{{4, 16, 8.0}, {6, 36, 18.0}, {8, 64, 40.0}};
  EXPECT_DOUBLE_EQ(fitted_load_coefficient(pts), 40.0 / 64.0);
  EXPECT_THROW(fitted_load_coefficient({}), Error);
}

TEST(OptimalSize, LinearityDetector) {
  // Constant ratio: linear.
  std::vector<ScalingPoint> linear{{4, 16, 8.0}, {6, 36, 18.0}, {8, 64, 32.0}};
  EXPECT_TRUE(is_load_linear(linear));
  // Ratio doubling with size: not linear.
  std::vector<ScalingPoint> quad{{4, 16, 8.0}, {6, 36, 40.0}, {8, 64, 150.0}};
  EXPECT_FALSE(is_load_linear(quad));
  EXPECT_THROW(is_load_linear({{4, 16, 8.0}}), Error);
  EXPECT_THROW(is_load_linear(linear, 0.5), Error);
}

TEST(OptimalSize, FullPopulationFailsLinearity) {
  // The motivating fact: fully populated tori have superlinear load.
  std::vector<ScalingPoint> pts;
  for (i32 k : {4, 6, 8, 10}) {
    Torus t(2, k);
    const Placement p = full_population(t);
    pts.push_back({k, p.size(), odr_loads(t, p).max_load()});
  }
  EXPECT_FALSE(is_load_linear(pts));
}

TEST(OptimalSize, LinearPlacementPassesLinearity) {
  std::vector<ScalingPoint> pts;
  for (i32 k : {4, 6, 8, 10}) {
    Torus t(2, k);
    const Placement p = linear_placement(t);
    pts.push_back({k, p.size(), odr_loads(t, p).max_load()});
  }
  EXPECT_TRUE(is_load_linear(pts));
}

}  // namespace
}  // namespace tp
