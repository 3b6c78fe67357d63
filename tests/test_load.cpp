// Tests for the exact load analysis (Definitions 4/5) and the paper's
// load theorems:
//   * fast analyzers agree with the literal Definition 4 oracle
//   * total-load conservation: sum_l E(l) == sum of Lee distances
//   * Theorem 2 / Section 6.1: interior-dimension ODR max equals the
//     paper's closed form exactly; overall max equals floor(k/2)k^{d-2}
//   * Theorem 3: multiple linear + ODR stays below t^2 k^{d-1}
//   * Theorem 4/5: UDR maxima below their bounds
//   * every measured E_max respects every lower bound

#include <gtest/gtest.h>

#include "src/load/complete_exchange.h"
#include "src/load/formulas.h"
#include "src/placement/placement.h"
#include "src/routing/adaptive.h"
#include "src/routing/odr.h"
#include "src/routing/udr.h"

namespace tp {
namespace {

constexpr double kTol = 1e-9;

// --- agreement with the literal Definition 4 oracle ------------------------

TEST(LoadOracle, OdrFastMatchesReference) {
  for (i32 d = 2; d <= 3; ++d)
    for (i32 k : {3, 4, 5}) {
      Torus t(d, k);
      const Placement p = linear_placement(t);
      OdrRouter odr;
      const LoadMap fast = odr_loads(t, p);
      const LoadMap ref = reference_loads(t, p, odr);
      EXPECT_LT(fast.max_abs_diff(ref), kTol) << "d=" << d << " k=" << k;
    }
}

TEST(LoadOracle, OdrBothTieBreakMatchesReference) {
  Torus t(2, 4);  // even k: ties are exercised
  const Placement p = linear_placement(t);
  OdrRouter both(TieBreak::BothDirections);
  const LoadMap fast = odr_loads(t, p, TieBreak::BothDirections);
  const LoadMap ref = reference_loads(t, p, both);
  EXPECT_LT(fast.max_abs_diff(ref), kTol);
}

TEST(LoadOracle, UdrSubsetWeightsMatchEnumeration) {
  for (i32 d = 2; d <= 3; ++d)
    for (i32 k : {3, 4, 5}) {
      Torus t(d, k);
      const Placement p = linear_placement(t);
      const LoadMap fast = udr_loads(t, p);
      const LoadMap ref = udr_loads_enumerated(t, p);
      EXPECT_LT(fast.max_abs_diff(ref), kTol) << "d=" << d << " k=" << k;
    }
}

TEST(LoadOracle, UdrBothTieBreakMatchesEnumeration) {
  Torus t(2, 4);
  const Placement p = linear_placement(t);
  const LoadMap fast = udr_loads(t, p, TieBreak::BothDirections);
  const LoadMap ref = udr_loads_enumerated(t, p, TieBreak::BothDirections);
  EXPECT_LT(fast.max_abs_diff(ref), kTol);
}

TEST(LoadOracle, AdaptiveMatchesReference) {
  for (i32 k : {3, 4, 5}) {
    Torus t(2, k);
    const Placement p = linear_placement(t);
    AdaptiveMinimalRouter router;
    const LoadMap fast = adaptive_loads(t, p);
    const LoadMap ref = reference_loads(t, p, router);
    EXPECT_LT(fast.max_abs_diff(ref), 1e-9) << "k=" << k;
  }
}

TEST(LoadOracle, AdaptiveMatchesReference3D) {
  Torus t(3, 4);
  const Placement p = linear_placement(t);
  AdaptiveMinimalRouter router;
  const LoadMap fast = adaptive_loads(t, p);
  const LoadMap ref = reference_loads(t, p, router);
  EXPECT_LT(fast.max_abs_diff(ref), 1e-9);
}

TEST(LoadOracle, RandomPlacementAgreement) {
  Torus t(2, 5);
  const Placement p = random_placement(t, 8, 42);
  EXPECT_LT(odr_loads(t, p).max_abs_diff(reference_loads(t, p, OdrRouter())),
            kTol);
  EXPECT_LT(udr_loads(t, p).max_abs_diff(udr_loads_enumerated(t, p)), kTol);
}

// --- conservation ------------------------------------------------------------

// A broadcast map's total_load() is the exact total its kernel carries,
// so the per-link loads are summed too.
double link_sum(const LoadMap& m) {
  double sum = 0.0;
  for (const double v : m.raw()) sum += v;
  return sum;
}

TEST(LoadConservation, TotalEqualsSumOfLeeDistances) {
  for (i32 d = 2; d <= 3; ++d)
    for (i32 k : {3, 4, 6}) {
      Torus t(d, k);
      const Placement p = linear_placement(t);
      const double expected = expected_total_load(t, p);
      EXPECT_NEAR(odr_loads(t, p).total_load(), expected, 1e-6)
          << "ODR d=" << d << " k=" << k;
      EXPECT_NEAR(udr_loads(t, p).total_load(), expected, 1e-6)
          << "UDR d=" << d << " k=" << k;
      EXPECT_NEAR(adaptive_loads(t, p).total_load(), expected, 1e-6)
          << "ADAPTIVE d=" << d << " k=" << k;
      EXPECT_NEAR(link_sum(odr_loads(t, p)), expected, 1e-9 * expected)
          << "ODR d=" << d << " k=" << k;
      EXPECT_NEAR(link_sum(udr_loads(t, p)), expected, 1e-9 * expected)
          << "UDR d=" << d << " k=" << k;
      EXPECT_NEAR(link_sum(adaptive_loads(t, p)), expected, 1e-9 * expected)
          << "ADAPTIVE d=" << d << " k=" << k;
    }
}

TEST(LoadConservation, HoldsForMultipleLinearAndFull) {
  Torus t(2, 4);
  for (const Placement& p :
       {multiple_linear_placement(t, 2), full_population(t)}) {
    const double expected = expected_total_load(t, p);
    EXPECT_NEAR(odr_loads(t, p).total_load(), expected, 1e-6) << p.name();
    EXPECT_NEAR(udr_loads(t, p).total_load(), expected, 1e-6) << p.name();
    EXPECT_NEAR(link_sum(odr_loads(t, p)), expected, 1e-9 * expected)
        << p.name();
    EXPECT_NEAR(link_sum(udr_loads(t, p)), expected, 1e-9 * expected)
        << p.name();
    EXPECT_NEAR(link_sum(adaptive_loads(t, p)), expected, 1e-9 * expected)
        << p.name();
  }
}

// --- Theorem 2 / Section 6.1 closed forms -----------------------------------

TEST(OdrClosedForm, InteriorDimensionMatchesPaperExactly) {
  // The paper's k^{d-1}/8 + k^{d-2}/4 (even) and k^{d-1}/8 - k^{d-3}/8
  // (odd) equal the measured maximum over interior-dimension links.
  for (i32 k = 3; k <= 8; ++k) {
    Torus t(3, k);
    const LoadMap loads = odr_loads(t, linear_placement(t));
    EXPECT_NEAR(loads.max_load_in_dim(t, 1), odr_linear_emax(k, 3), kTol)
        << "k=" << k;
  }
}

TEST(OdrClosedForm, InteriorDimensionMatchesPaperExactly4D) {
  for (i32 k : {3, 4, 5}) {
    Torus t(4, k);
    const LoadMap loads = odr_loads(t, linear_placement(t));
    EXPECT_NEAR(loads.max_load_in_dim(t, 1), odr_linear_emax(k, 4), kTol);
    EXPECT_NEAR(loads.max_load_in_dim(t, 2), odr_linear_emax(k, 4), kTol);
  }
}

TEST(OdrClosedForm, OverallMaxIsHalfKTimesKdMinus2) {
  // Reproduction finding: the overall maximum sits on first/last-dimension
  // links and equals floor(k/2) * k^{d-2} (see formulas.h).
  for (i32 d = 2; d <= 4; ++d)
    for (i32 k = 3; k <= (d == 4 ? 5 : 8); ++k) {
      Torus t(d, k);
      const LoadMap loads = odr_loads(t, linear_placement(t));
      EXPECT_NEAR(loads.max_load(), odr_linear_emax_overall(k, d), kTol)
          << "d=" << d << " k=" << k;
      // ... attained on the first and last dimensions.
      EXPECT_NEAR(loads.max_load_in_dim(t, 0),
                  odr_linear_emax_overall(k, d), kTol);
      EXPECT_NEAR(loads.max_load_in_dim(t, d - 1),
                  odr_linear_emax_overall(k, d), kTol);
    }
}

TEST(OdrClosedForm, Theorem2UpperBoundHolds) {
  for (i32 d = 2; d <= 3; ++d)
    for (i32 k = 3; k <= 8; ++k) {
      Torus t(d, k);
      const LoadMap loads = odr_loads(t, linear_placement(t));
      EXPECT_LE(loads.max_load(), odr_linear_emax_upper(k, d) + kTol);
    }
}

TEST(OdrClosedForm, LoadIsLinearInPlacementSize) {
  // E_max / |P| stays bounded by 1/2 + o(1) over a k sweep (Theorem 2's
  // actual content: linearity in |P|).
  for (i32 k : {4, 6, 8, 10, 12}) {
    Torus t(3, k);
    const Placement p = linear_placement(t);
    const double ratio = odr_loads(t, p).max_load() /
                         static_cast<double>(p.size());
    EXPECT_LE(ratio, 0.5 + kTol) << "k=" << k;
    EXPECT_GE(ratio, 0.25) << "k=" << k;
  }
}

// --- Theorem 3: multiple linear + ODR ---------------------------------------

TEST(MultipleLinearOdr, BelowTSquaredBound) {
  for (i32 k : {4, 5, 6})
    for (i32 tt = 1; tt <= 3; ++tt) {
      Torus t(3, k);
      const Placement p = multiple_linear_placement(t, tt);
      const double emax = odr_loads(t, p).max_load();
      EXPECT_LE(emax, multiple_odr_upper(tt, k, 3) + kTol)
          << "k=" << k << " t=" << tt;
    }
}

TEST(MultipleLinearOdr, LoadIsLinearInPlacementSizeForFixedT) {
  // Theorem 3's content: for any *fixed* t, E_max/|P| stays bounded as k
  // grows.  Measured ratios increase mildly with k (0.75 -> 0.9 for t=2)
  // but never pass t, and the growth decelerates.
  for (i32 tt = 1; tt <= 3; ++tt) {
    double first_ratio = 0.0, last_ratio = 0.0;
    for (i32 k : {4, 6, 8, 10}) {
      Torus t(3, k);
      const Placement p = multiple_linear_placement(t, tt);
      const double ratio =
          odr_loads(t, p).max_load() / static_cast<double>(p.size());
      EXPECT_LE(ratio, static_cast<double>(tt) + kTol)
          << "t=" << tt << " k=" << k;
      if (first_ratio == 0.0) first_ratio = ratio;
      last_ratio = ratio;
    }
    EXPECT_LE(last_ratio, 2.0 * first_ratio) << "t=" << tt;
  }
}

// --- Theorems 4 and 5: UDR ---------------------------------------------------

TEST(UdrBounds, Theorem4Holds) {
  for (i32 d = 2; d <= 3; ++d)
    for (i32 k = 3; k <= 6; ++k) {
      Torus t(d, k);
      const double emax = udr_loads(t, linear_placement(t)).max_load();
      EXPECT_LT(emax, udr_linear_emax_upper(k, d)) << "d=" << d << " k=" << k;
    }
}

TEST(UdrBounds, Theorem5Holds) {
  Torus t(3, 4);
  for (i32 tt = 1; tt <= 3; ++tt) {
    const double emax =
        udr_loads(t, multiple_linear_placement(t, tt)).max_load();
    EXPECT_LT(emax, multiple_udr_upper(tt, 4, 3)) << "t=" << tt;
  }
}

TEST(UdrVsOdr, UdrNeverWorseThanOdrOnLinearPlacements) {
  // Spreading each pair over s! paths flattens the worst link.
  for (i32 d = 2; d <= 3; ++d)
    for (i32 k : {4, 5, 6}) {
      Torus t(d, k);
      const Placement p = linear_placement(t);
      EXPECT_LE(udr_loads(t, p).max_load(),
                odr_loads(t, p).max_load() + kTol)
          << "d=" << d << " k=" << k;
    }
}

TEST(AdaptiveVsUdr, AdaptiveFlattensFurtherOnThisInstance) {
  // NOT a general law: uniform-over-minimal-paths concentrates traffic
  // mid-corridor and can exceed UDR's peak on 2-D tori (see
  // test_golden.cpp, GoldenAdaptive.UniformOverPathsCanBeWorseThanUdr).
  // On T_4^3 the comparison favors adaptive.
  Torus t(3, 4);
  const Placement p = linear_placement(t);
  EXPECT_LE(adaptive_loads(t, p).max_load(),
            udr_loads(t, p).max_load() + kTol);
}

// --- lower bounds respected ---------------------------------------------------

TEST(LowerBounds, BlaumBoundHoldsForEveryRouterAndPlacement) {
  for (i32 d = 2; d <= 3; ++d)
    for (i32 k : {3, 4, 5}) {
      Torus t(d, k);
      for (i32 tt = 1; tt <= 2; ++tt) {
        const Placement p = multiple_linear_placement(t, tt);
        const double bound = blaum_lower_bound(p.size(), d);
        EXPECT_GE(odr_loads(t, p).max_load(), bound - kTol);
        EXPECT_GE(udr_loads(t, p).max_load(), bound - kTol);
        EXPECT_GE(adaptive_loads(t, p).max_load(), bound - kTol);
      }
    }
}

TEST(LowerBounds, ImprovedBoundHoldsForUniformPlacements) {
  for (i32 k : {4, 6, 8}) {
    Torus t(3, k);
    const Placement p = linear_placement(t);
    const double bound = improved_lower_bound(1.0, k, 3);  // c = 1
    EXPECT_GE(odr_loads(t, p).max_load(), bound - kTol) << "k=" << k;
    EXPECT_GE(udr_loads(t, p).max_load(), bound - kTol) << "k=" << k;
  }
}

// --- fully populated torus (Section 1) ----------------------------------------

TEST(FullPopulation, LoadExceedsBisectionBound) {
  // Some link must carry more than k^{d+1}/8 messages.
  for (i32 k : {4, 6}) {
    Torus t(2, k);
    const double emax = odr_loads(t, full_population(t)).max_load();
    EXPECT_GT(emax, full_torus_load_lower_bound(k, 2)) << "k=" << k;
  }
}

TEST(FullPopulation, LoadIsSuperlinearInProcessorCount) {
  // E_max / |P| grows with k for the fully populated torus, while it stays
  // constant for the linear placement: the paper's motivating contrast.
  double prev_full_ratio = 0.0;
  for (i32 k : {4, 6, 8}) {
    Torus t(2, k);
    const Placement full = full_population(t);
    const double full_ratio =
        odr_loads(t, full).max_load() / static_cast<double>(full.size());
    EXPECT_GT(full_ratio, prev_full_ratio) << "k=" << k;
    prev_full_ratio = full_ratio;
  }
}

// --- LoadMap utilities ---------------------------------------------------------

TEST(LoadMap, ArgmaxAndHistogram) {
  Torus t(2, 4);
  LoadMap m(t);
  m.add(3, 2.0);
  m.add(7, 5.0);
  m.add(7, 1.0);
  EXPECT_DOUBLE_EQ(m.max_load(), 6.0);
  EXPECT_EQ(m.argmax(), std::vector<EdgeId>{7});
  EXPECT_EQ(m.num_loaded_edges(), 2);
  EXPECT_DOUBLE_EQ(m.total_load(), 8.0);
  const auto hist = m.histogram(3);
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_EQ(hist[2], 1);  // the 6.0 edge
  i64 sum = 0;
  for (i64 c : hist) sum += c;
  EXPECT_EQ(sum, t.num_directed_edges());
}

TEST(LoadMap, EmptyMap) {
  Torus t(2, 3);
  LoadMap m(t);
  EXPECT_DOUBLE_EQ(m.max_load(), 0.0);
  EXPECT_DOUBLE_EQ(m.mean_load(), 0.0);
  EXPECT_EQ(m.num_loaded_edges(), 0);
  const auto hist = m.histogram(4);
  EXPECT_EQ(hist[0], t.num_directed_edges());
}

TEST(LoadMap, MaxAbsDiffRequiresSameTorus) {
  Torus a(2, 3), b(2, 4);
  EXPECT_THROW(LoadMap(a).max_abs_diff(LoadMap(b)), Error);
}

}  // namespace
}  // namespace tp
