// Golden regression values: exact E_max of ODR and UDR on multiple linear
// placements over a (d, k, t) grid, and of adaptive routing on the analyze
// grid.
//
// These numbers were produced by this library's exact load analysis and
// cross-validated against the paper wherever a closed form exists (the
// t = 1 ODR values equal floor(k/2)·k^{d-2}; interior maxima equal the
// Section 6.1 forms; all values respect every lower/upper bound).  They
// pin the load analyzers against regressions: any change to routing,
// tie-breaks, or accumulation order that alters a single load will trip
// an exact comparison here.

#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "src/load/complete_exchange.h"
#include "src/load/counted_loads.h"
#include "src/load/formulas.h"
#include "src/placement/placement.h"
#include "src/routing/adaptive.h"
#include "src/service/query.h"
#include "src/util/rational.h"

namespace tp {
namespace {

struct Golden {
  i32 d;
  i32 k;
  i32 t;
  double odr_emax;
  double udr_emax;
};

// clang-format off
constexpr Golden kGolden[] = {
      {2, 3, 1, 1, 0.5},
      {2, 3, 2, 2, 2},
      {2, 4, 1, 2, 1},
      {2, 4, 2, 6, 4},
      {2, 4, 3, 9, 7.5},
      {2, 5, 1, 2, 1},
      {2, 5, 2, 6, 4},
      {2, 5, 3, 9, 7.5},
      {2, 6, 1, 3, 1.5},
      {2, 6, 2, 10, 6},
      {2, 6, 3, 18, 12},
      {2, 7, 1, 3, 1.5},
      {2, 7, 2, 10, 6},
      {2, 7, 3, 18, 12},
      {2, 8, 1, 4, 2},
      {2, 8, 2, 14, 8},
      {2, 8, 3, 27, 16.5},
      {2, 9, 1, 4, 2},
      {2, 9, 2, 14, 8},
      {2, 9, 3, 27, 16.5},
      {2, 10, 1, 5, 2.5},
      {2, 10, 2, 18, 10},
      {2, 10, 3, 36, 21},
      {3, 3, 1, 3, 4.0 / 3.0},
      {3, 3, 2, 6, 16.0 / 3.0},
      {3, 4, 1, 8, 11.0 / 3.0},
      {3, 4, 2, 24, 44.0 / 3.0},
      {3, 4, 3, 36, 29},
      {3, 5, 1, 10, 13.0 / 3.0},
      {3, 5, 2, 30, 52.0 / 3.0},
      {3, 5, 3, 45, 34},
      {3, 6, 1, 18, 8},
      {3, 6, 2, 60, 32},
      {3, 6, 3, 108, 66},
      {3, 7, 1, 21, 9},
      {3, 7, 2, 70, 36},
      {3, 7, 3, 126, 74},
      {3, 8, 1, 32, 14},
      {3, 8, 2, 112, 56},
      {3, 8, 3, 216, 118},
      {4, 3, 1, 9, 3.75},
      {4, 3, 2, 18, 15},
      {4, 4, 1, 32, 14},
      {4, 4, 2, 96, 56},
      {4, 4, 3, 144, 114},
      {4, 5, 1, 50, 20},
      {4, 5, 2, 150, 80},
      {4, 5, 3, 225, 161.25},
};
// clang-format on

class GoldenLoads : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenLoads, OdrAndUdrEmaxExact) {
  const Golden& g = GetParam();
  Torus torus(g.d, g.k);
  const Placement p = multiple_linear_placement(torus, g.t);
  EXPECT_NEAR(odr_loads(torus, p).max_load(), g.odr_emax, 1e-9);
  EXPECT_NEAR(udr_loads(torus, p).max_load(), g.udr_emax, 1e-9);
}

TEST_P(GoldenLoads, ConjecturedUdrClosedFormMatches) {
  const Golden& g = GetParam();
  if (g.t != 1) return;
  const double conjectured = udr_linear_emax_conjectured(g.k, g.d);
  if (conjectured < 0) return;  // outside the conjecture's domain
  EXPECT_NEAR(g.udr_emax, conjectured, 1e-9)
      << "d=" << g.d << " k=" << g.k;
}

TEST(GoldenAdaptive, EmaxOnLinearPlacements) {
  // Fully adaptive minimal routing flattens further than UDR; these exact
  // values pin the corridor-multinomial analyzer.
  struct AdaptiveGolden {
    i32 d;
    i32 k;
    double emax;
  };
  // clang-format off
  constexpr AdaptiveGolden kAdaptive[] = {
      {2, 3, 0.5},
      {2, 4, 0.833333333333},
      {2, 5, 1.33333333333},
      {2, 6, 1.73333333333},
      {2, 7, 2.43333333333},
      {2, 8, 2.89047619048},
      {3, 3, 1.33333333333},
      {3, 4, 3},
      {3, 5, 5.33333333333},
  };
  // clang-format on
  for (const AdaptiveGolden& g : kAdaptive) {
    Torus t(g.d, g.k);
    const Placement p = linear_placement(t);
    const double emax = adaptive_loads(t, p).max_load();
    EXPECT_NEAR(emax, g.emax, 1e-9) << "d=" << g.d << " k=" << g.k;
    // Theorem 4's bound still covers the adaptive router (its paths are a
    // superset spreading each pair's unit of traffic).
    EXPECT_LT(emax, udr_linear_emax_upper(g.k, g.d));
  }
}

TEST(GoldenAdaptive, UniformOverPathsCanBeWorseThanUdr) {
  // Reproduction finding: spreading uniformly over *all* minimal paths is
  // not uniformly better than UDR.  The multinomial path distribution
  // concentrates traffic through the middle of each routing corridor, and
  // on 2-D tori that mid-corridor pile-up exceeds UDR's boundary-hugging
  // s! paths (e.g. T_5^2: 1.33 vs 1.0).  In 3-D the comparison flips for
  // some k (T_4^3: 3.0 vs 3.67).
  Torus t2(2, 5);
  const Placement p2 = linear_placement(t2);
  EXPECT_GT(adaptive_loads(t2, p2).max_load(),
            udr_loads(t2, p2).max_load());
  Torus t3(3, 4);
  const Placement p3 = linear_placement(t3);
  EXPECT_LT(adaptive_loads(t3, p3).max_load(),
            udr_loads(t3, p3).max_load());
}

TEST(GoldenAdaptive, ServedEmaxIsTheExactRational) {
  // The exact E_max of every adaptive key of the analyze grid (d = 2..4,
  // k = 2..12, t = 1..3, t <= k) as num/den, from tools/adaptive_exact.py,
  // which sums each pair's corridor multinomials as exact Fractions.  The
  // served measured_emax is its correctly rounded double.
  struct Exact {
    i32 d, k, t;
    i64 num, den;
  };
  // clang-format off
  constexpr Exact kExact[] = {
      {2, 2, 1, 1, 4},
      {2, 2, 2, 1, 1},
      {2, 3, 1, 1, 2},
      {2, 3, 2, 2, 1},
      {2, 3, 3, 3, 1},
      {2, 4, 1, 5, 6},
      {2, 4, 2, 7, 2},
      {2, 4, 3, 11, 2},
      {2, 5, 1, 4, 3},
      {2, 5, 2, 16, 3},
      {2, 5, 3, 49, 6},
      {2, 6, 1, 26, 15},
      {2, 6, 2, 217, 30},
      {2, 6, 3, 2791, 240},
      {2, 7, 1, 73, 30},
      {2, 7, 2, 146, 15},
      {2, 7, 3, 937, 60},
      {2, 8, 1, 607, 210},
      {2, 8, 2, 503, 42},
      {2, 8, 3, 8363, 420},
      {2, 9, 1, 79, 21},
      {2, 9, 2, 316, 21},
      {2, 9, 3, 501, 20},
      {2, 10, 1, 269, 63},
      {2, 10, 2, 739, 42},
      {2, 10, 3, 37913, 1260},
      {2, 11, 1, 667, 126},
      {2, 11, 2, 1334, 63},
      {2, 11, 3, 11422, 315},
      {2, 12, 1, 8105, 1386},
      {2, 12, 2, 33263, 1386},
      {2, 12, 3, 26447, 630},
      {3, 2, 1, 1, 2},
      {3, 2, 2, 2, 1},
      {3, 3, 1, 4, 3},
      {3, 3, 2, 16, 3},
      {3, 3, 3, 9, 1},
      {3, 4, 1, 3, 1},
      {3, 4, 2, 182, 15},
      {3, 4, 3, 21, 1},
      {3, 5, 1, 16, 3},
      {3, 5, 2, 326, 15},
      {3, 5, 3, 562, 15},
      {3, 6, 1, 26, 3},
      {3, 6, 2, 106, 3},
      {3, 6, 3, 26219, 420},
      {3, 7, 1, 194, 15},
      {3, 7, 2, 5548, 105},
      {3, 7, 3, 9902, 105},
      {3, 8, 1, 55, 3},
      {3, 8, 2, 4714, 63},
      {3, 8, 3, 4749, 35},
      {3, 9, 1, 2614, 105},
      {3, 9, 2, 4574, 45},
      {3, 9, 3, 117157, 630},
      {3, 10, 1, 3434, 105},
      {3, 10, 2, 462158, 3465},
      {3, 10, 3, 854947, 3465},
      {3, 11, 1, 13192, 315},
      {3, 11, 2, 591688, 3465},
      {3, 11, 3, 2204879, 6930},
      {3, 12, 1, 16507, 315},
      {3, 12, 2, 9614974, 45045},
      {3, 12, 3, 36125917, 90090},
      {4, 2, 1, 1, 1},
      {4, 2, 2, 4, 1},
      {4, 3, 1, 15, 4},
      {4, 3, 2, 15, 1},
      {4, 3, 3, 27, 1},
      {4, 4, 1, 56, 5},
      {4, 4, 2, 1572, 35},
      {4, 4, 3, 408, 5},
      {4, 5, 1, 1709, 70},
      {4, 5, 2, 3433, 35},
      {4, 5, 3, 24737, 140},
      {4, 6, 1, 997327, 21120},
      {4, 6, 2, 4683139, 24640},
      {4, 6, 3, 7379269, 21120},
      {4, 7, 1, 376331, 4620},
      {4, 7, 2, 378902, 1155},
      {4, 7, 3, 5603519, 9240},
      {4, 8, 1, 655832, 5005},
      {4, 8, 2, 7930126, 15015},
      {4, 8, 3, 14863918, 15015},
      {4, 9, 1, 90582, 455},
      {4, 9, 2, 12049034, 15015},
      {4, 9, 3, 999019, 660},
      {4, 10, 1, 5124419539, 17736576},
      {4, 10, 2, 5562962281, 4775232},
      {4, 10, 3, 688762285339, 310390080},
      {4, 11, 1, 715066897, 1763580},
      {4, 11, 2, 7927886542, 4849845},
      {4, 11, 3, 12148228765, 3879876},
      {4, 12, 1, 22030999013, 39994240},
      {4, 12, 2, 1441449666091, 648997440},
      {4, 12, 3, 370828623455, 86532992},
  };
  // clang-format on
  EXPECT_EQ(std::size(kExact), 96u);
  for (const Exact& e : kExact) {
    const service::QueryResult r = service::compute_query(service::make_query_key(
        Radices(static_cast<std::size_t>(e.d), e.k), e.t, RouterKind::Adaptive,
        service::QueryOp::Load));
    EXPECT_EQ(r.measured_emax, Rational(e.num, e.den).to_double())
        << r.key.str() << ": exact " << e.num << "/" << e.den;
  }
  // The generator reproduces the literal Definition 4, summed as exact
  // Rationals, where that oracle takes at most a second (T_4^4 with t = 3
  // agrees too, in 16 s).
  for (const Exact& e : kExact) {
    const bool small = e.t == 3 && ((e.d == 2 && (e.k == 6 || e.k == 12)) ||
                                    (e.d == 3 && (e.k == 4 || e.k == 6)));
    if (!small) continue;
    const Torus torus(e.d, e.k);
    EXPECT_EQ(reference_loads(torus, multiple_linear_placement(torus, e.t),
                              AdaptiveMinimalRouter())
                  .max_load(),
              Rational(e.num, e.den).to_double())
        << "T_" << e.k << "^" << e.d;
  }
}

TEST(ConjecturedUdr, HoldsBeyondTheGoldenGrid) {
  // Every k of both parities, far past the golden table, compared with ==:
  // the counted E_max of the linear placement (C = {0}) is the correctly
  // rounded rational, and so is the form's one division.  A check, not a
  // proof, so the form stays out of prediction_exact.
  for (const i32 d : {2, 3})
    for (i32 k = 2; k <= 256; ++k) {
      CosetUnion linear{d, k, std::vector<bool>(static_cast<std::size_t>(k))};
      linear.classes[0] = true;
      EXPECT_EQ(counted_orbit_loads(linear, RouterKind::Udr).max_load(),
                udr_linear_emax_conjectured(k, d))
          << "d=" << d << " k=" << k;
    }
}

TEST_P(GoldenLoads, GoldenValuesAreInternallyConsistent) {
  const Golden& g = GetParam();
  // UDR never exceeds ODR; both respect the Blaum bound and Theorem
  // upper bounds — so the golden table itself is sane.
  EXPECT_LE(g.udr_emax, g.odr_emax + 1e-9);
  const i64 psize = g.t * powi(g.k, g.d - 1);
  EXPECT_GE(g.udr_emax, blaum_lower_bound(psize, g.d) - 1e-9);
  EXPECT_LE(g.odr_emax, multiple_odr_upper(g.t, g.k, g.d) + 1e-9);
  EXPECT_LT(g.udr_emax, multiple_udr_upper(g.t, g.k, g.d));
  if (g.t == 1) {
    EXPECT_NEAR(g.odr_emax, odr_linear_emax_overall(g.k, g.d), 1e-9);
  }
}

std::string golden_name(const ::testing::TestParamInfo<Golden>& info) {
  std::string name = "d";
  name += std::to_string(info.param.d);
  name += "_k";
  name += std::to_string(info.param.k);
  name += "_t";
  name += std::to_string(info.param.t);
  return name;
}

INSTANTIATE_TEST_SUITE_P(Grid, GoldenLoads, ::testing::ValuesIn(kGolden),
                         golden_name);

}  // namespace
}  // namespace tp
