// Tests for the closed-form expressions of src/load/formulas.h: hand-checked
// values, domain enforcement, and the relations between bounds the paper
// derives (e.g. the improved bound overtaking the Blaum bound as d grows).

#include <gtest/gtest.h>

#include "src/load/formulas.h"
#include "src/util/error.h"

namespace tp {
namespace {

TEST(Formulas, BlaumBoundValues) {
  // d = 2: (|P|-1)/4, d = 3: (|P|-1)/6, as in the paper's introduction.
  EXPECT_DOUBLE_EQ(blaum_lower_bound(9, 2), 2.0);
  EXPECT_DOUBLE_EQ(blaum_lower_bound(25, 2), 6.0);
  EXPECT_DOUBLE_EQ(blaum_lower_bound(13, 3), 2.0);
  EXPECT_THROW(blaum_lower_bound(0, 2), Error);
}

TEST(Formulas, SeparatorBoundReducesToBlaum) {
  // |S| = 1 and |dS| = 4d recovers (|P|-1)/2d (the paper's observation).
  for (i32 d = 1; d <= 4; ++d)
    for (i64 p = 2; p <= 20; p += 3)
      EXPECT_DOUBLE_EQ(separator_lower_bound(1, p, 4 * d),
                       blaum_lower_bound(p, d));
}

TEST(Formulas, SeparatorBoundValidation) {
  EXPECT_THROW(separator_lower_bound(5, 4, 8), Error);   // |S| > |P|
  EXPECT_THROW(separator_lower_bound(1, 4, 0), Error);   // empty boundary
}

TEST(Formulas, BisectionBoundValue) {
  // eq. (8): 2 (|P|/2)^2 / width.
  EXPECT_DOUBLE_EQ(bisection_lower_bound(8, 16), 2.0);
  EXPECT_DOUBLE_EQ(bisection_lower_bound(10, 4), 12.5);
}

TEST(Formulas, ImprovedBoundValue) {
  // c^2 k^{d-1} / 8 with c = 1: k^{d-1}/8.
  EXPECT_DOUBLE_EQ(improved_lower_bound(1.0, 8, 3), 8.0);
  EXPECT_DOUBLE_EQ(improved_lower_bound(2.0, 4, 2), 2.0);
}

TEST(Formulas, ImprovedBoundOddRadixIsTheHalfSlabValue) {
  // c^2 floor(k/2) ceil(k/2) k^{d-3} / 2: the full T_3^d (c = 3) gives
  // 3^{d-1}, the full T_5^2 (c = 5) gives 15.
  EXPECT_EQ(improved_lower_bound(3.0, 3, 2), 3.0);
  EXPECT_EQ(improved_lower_bound(3.0, 3, 3), 9.0);
  EXPECT_EQ(improved_lower_bound(3.0, 3, 4), 27.0);
  EXPECT_EQ(improved_lower_bound(5.0, 5, 2), 15.0);
  // The linear placement of T_7^3: 3·4·7^0/2 = 6, below 7^2/8 = 6.125.
  EXPECT_EQ(improved_lower_bound(1.0, 7, 3), 6.0);
}

TEST(Formulas, ImprovedBeatsBlaumForLargeD) {
  // With |P| = k^{d-1}, Blaum gives (k^{d-1}-1)/2d while improved gives
  // k^{d-1}/8: improved wins once 2d >= 8, i.e. d >= 4 (at d = 4 the -1
  // tips the comparison); for smaller d Blaum is stronger.  This is the
  // paper's Section 4 punchline.
  const i32 k = 4;
  for (i32 d = 2; d <= 7; ++d) {
    const i64 p = powi(k, d - 1);
    const double blaum = blaum_lower_bound(p, d);
    const double improved = improved_lower_bound(1.0, k, d);
    if (d >= 4) {
      EXPECT_GT(improved, blaum) << "d=" << d;
    } else {
      EXPECT_LE(improved, blaum) << "d=" << d;
    }
  }
}

TEST(Formulas, BisectionWidthBounds) {
  EXPECT_EQ(uniform_bisection_width(8, 3), 4 * 64);
  EXPECT_EQ(bisection_width_upper_bound(8, 3), 6 * 3 * 64);
  EXPECT_EQ(sweep_separator_upper_bound(8, 3), 2 * 3 * 64);
  // Theorem 1's width is always within Corollary 1's bound.
  for (i32 d = 1; d <= 5; ++d)
    for (i32 k = 2; k <= 8; ++k)
      EXPECT_LE(uniform_bisection_width(k, d),
                bisection_width_upper_bound(k, d));
}

TEST(Formulas, MaxPlacementSize) {
  // eq. (9): 12 d c1 k^{d-1}.
  EXPECT_DOUBLE_EQ(max_placement_size(1.0, 4, 2), 96.0);
  EXPECT_DOUBLE_EQ(max_placement_size(0.5, 4, 3), 288.0);
}

TEST(Formulas, FullTorusLoadBound) {
  EXPECT_DOUBLE_EQ(full_torus_load_lower_bound(4, 2), 8.0);
  EXPECT_DOUBLE_EQ(full_torus_load_lower_bound(8, 3), 512.0);  // 8^4 / 8
}

TEST(Formulas, OdrClosedFormValues) {
  // Even k: k^{d-1}/8 + k^{d-2}/4.
  EXPECT_DOUBLE_EQ(odr_linear_emax(8, 3), 10.0);
  EXPECT_DOUBLE_EQ(odr_linear_emax(4, 3), 3.0);
  EXPECT_DOUBLE_EQ(odr_linear_emax(4, 4), 12.0);
  // Odd k: k^{d-1}/8 - k^{d-3}/8.
  EXPECT_DOUBLE_EQ(odr_linear_emax(5, 3), 3.0);
  EXPECT_DOUBLE_EQ(odr_linear_emax(7, 3), 6.0);
  EXPECT_DOUBLE_EQ(odr_linear_emax(5, 4), 15.0);
  // Domain: the paper's counting needs an interior dimension.
  EXPECT_THROW(odr_linear_emax(4, 2), Error);
}

TEST(Formulas, OdrOverallMaxValues) {
  EXPECT_DOUBLE_EQ(odr_linear_emax_overall(8, 3), 32.0);
  EXPECT_DOUBLE_EQ(odr_linear_emax_overall(5, 3), 10.0);
  EXPECT_DOUBLE_EQ(odr_linear_emax_overall(6, 2), 3.0);
  EXPECT_DOUBLE_EQ(odr_linear_emax_overall(4, 4), 32.0);
  EXPECT_THROW(odr_linear_emax_overall(4, 1), Error);
}

TEST(Formulas, OdrOverallDominatesInterior) {
  for (i32 d = 3; d <= 5; ++d)
    for (i32 k = 3; k <= 9; ++k)
      EXPECT_GE(odr_linear_emax_overall(k, d), odr_linear_emax(k, d))
          << "d=" << d << " k=" << k;
}

TEST(Formulas, UpperBoundChain) {
  // interior form <= overall <= Theorem 2's k^{d-1} <= Theorem 4's UDR bound.
  for (i32 d = 3; d <= 5; ++d)
    for (i32 k = 3; k <= 8; ++k) {
      EXPECT_LE(odr_linear_emax(k, d), odr_linear_emax_upper(k, d));
      EXPECT_LE(odr_linear_emax_overall(k, d), odr_linear_emax_upper(k, d));
      EXPECT_LE(odr_linear_emax_upper(k, d), udr_linear_emax_upper(k, d));
    }
}

TEST(Formulas, MultipleBoundsScaleWithTSquared) {
  EXPECT_DOUBLE_EQ(multiple_odr_upper(1, 4, 3), 16.0);
  EXPECT_DOUBLE_EQ(multiple_odr_upper(3, 4, 3), 144.0);
  EXPECT_DOUBLE_EQ(multiple_udr_upper(2, 4, 3), 4.0 * 4.0 * 16.0);
}

TEST(Formulas, UdrPathCount) {
  EXPECT_EQ(udr_path_count(0), 1);
  EXPECT_EQ(udr_path_count(3), 6);
  EXPECT_EQ(udr_path_count(5), 120);
}

}  // namespace
}  // namespace tp
