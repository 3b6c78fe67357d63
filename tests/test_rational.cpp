// Tests for exact rational arithmetic and the exact loads: the Rational
// oracle (reference_loads) and the ODR/UDR kernels it pins.

#include <gtest/gtest.h>

#include <limits>

#include "src/load/complete_exchange.h"
#include "src/load/formulas.h"
#include "src/routing/odr.h"
#include "src/routing/udr.h"
#include "src/util/error.h"
#include "src/util/rational.h"

namespace tp {
namespace {

// --- Rational ---------------------------------------------------------------

TEST(Rational, NormalizationAndAccessors) {
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  EXPECT_EQ(Rational(-2, -4), Rational(1, 2));
  EXPECT_EQ(Rational(2, -4), Rational(-1, 2));
  EXPECT_EQ(Rational(0, 7), Rational(0));
  EXPECT_EQ(Rational(6, 3).num(), 2);
  EXPECT_EQ(Rational(6, 3).den(), 1);
  EXPECT_THROW(Rational(1, 0), Error);
}

TEST(Rational, Arithmetic) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2));
  EXPECT_EQ(-Rational(1, 2), Rational(-1, 2));
  EXPECT_THROW(Rational(1) / Rational(0), Error);
}

TEST(Rational, Ordering) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_EQ(Rational(7, 7), Rational(1));
}

TEST(Rational, StringAndDouble) {
  EXPECT_EQ(Rational(3, 2).str(), "3/2");
  EXPECT_EQ(Rational(4, 2).str(), "2");
  EXPECT_DOUBLE_EQ(Rational(1, 4).to_double(), 0.25);
}

TEST(Rational, ToDoubleRoundsOnceAboveTwoToThe53) {
  // (2^54 + 3) / 3 = 6004799503160662.33...; dividing the two rounded
  // doubles gave ...663.
  const i64 n = (i64{1} << 54) + 3;
  EXPECT_EQ(Rational(n, 3).to_double(), 6004799503160662.0);
  EXPECT_EQ(Rational(-n, 3).to_double(), -6004799503160662.0);
  // Ties go to even: 2^53 + 1 and 2^53 + 3 sit halfway between doubles.
  EXPECT_EQ(Rational((i64{1} << 53) + 1).to_double(), 9007199254740992.0);
  EXPECT_EQ(Rational((i64{1} << 53) + 3).to_double(), 9007199254740996.0);
  // Quotients that double division misrounds, checked against Python's
  // correctly rounded int / int.
  EXPECT_EQ(Rational(488237506811863913, 136169369683).to_double(),
            0x1.b5af631eaeb01p+21);
  EXPECT_EQ(Rational(8028009935186225314, 417670849963).to_double(),
            0x1.2549a4b4e4b4fp+24);
  EXPECT_EQ(Rational(1184209087075631206, 7586041681).to_double(),
            0x1.29be810e21636p+27);
  EXPECT_EQ(Rational(1, std::numeric_limits<i64>::max()).to_double(),
            1.0842021724855044e-19);
  EXPECT_EQ(Rational(-std::numeric_limits<i64>::max()).to_double(), -0x1p63);
  EXPECT_EQ(Rational(0, 5).to_double(), 0.0);
}

TEST(Rational, SumOfHarmonicLikeSeriesIsExact) {
  // 1/1 + 1/2 + ... + 1/10 = 7381/2520.
  Rational sum;
  for (i64 i = 1; i <= 10; ++i) sum += Rational(1, i);
  EXPECT_EQ(sum, Rational(7381, 2520));
}

TEST(Rational, CrossCancellationDelaysOverflow) {
  // (2^40 / 3) * (3 / 2^40) must not overflow intermediate products.
  const Rational big(1LL << 40, 3);
  const Rational inv(3, 1LL << 40);
  EXPECT_EQ(big * inv, Rational(1));
}

// --- exact loads -------------------------------------------------------------

TEST(ExactLoads, OdrMatchesDoubleAnalyzerExactly) {
  for (i32 d = 2; d <= 3; ++d)
    for (i32 k : {3, 4, 5}) {
      Torus t(d, k);
      const Placement p = linear_placement(t);
      EXPECT_EQ(reference_loads(t, p, OdrRouter()).raw(),
                odr_loads(t, p).raw())
          << "d=" << d << " k=" << k;
    }
}

TEST(ExactLoads, UdrMatchesDoubleAnalyzerExactly) {
  for (i32 d = 2; d <= 3; ++d)
    for (i32 k : {3, 4, 5}) {
      Torus t(d, k);
      const Placement p = linear_placement(t);
      EXPECT_EQ(reference_loads(t, p, UdrRouter()).raw(),
                udr_loads(t, p).raw())
          << "d=" << d << " k=" << k;
    }
}

// The kernels assert that their buckets sum to exactly 2·d! × lee_total
// units, so lee_total is the exact sum of every link's rational load.

TEST(ExactLoads, ConservationIsExactlyAnInteger) {
  Torus t(3, 4);
  const Placement p = linear_placement(t);
  const double expected = expected_total_load(t, p);  // ΣLee
  EXPECT_EQ(static_cast<double>(odr_orbit_loads(t, p).lee_total), expected);
  EXPECT_EQ(static_cast<double>(udr_orbit_loads(t, p).lee_total), expected);
}

TEST(ExactLoads, ConservationWithTieSplitting) {
  Torus t(2, 4);  // even k exercises the 1/2 weights
  const Placement p = linear_placement(t);
  const double expected = expected_total_load(t, p);
  EXPECT_EQ(static_cast<double>(
                odr_orbit_loads(t, p, TieBreak::BothDirections).lee_total),
            expected);
  EXPECT_EQ(static_cast<double>(
                udr_orbit_loads(t, p, TieBreak::BothDirections).lee_total),
            expected);
}

TEST(ExactLoads, UdrMaximaAreExactRationals) {
  // d=3, k=4: the golden value 11/3, correctly rounded.
  Torus t(3, 4);
  const Placement p = linear_placement(t);
  EXPECT_EQ(reference_loads(t, p, UdrRouter()).max_load(),
            Rational(11, 3).to_double());
  // d=3, k=6: (5*36+12)/24 = 8 (the conjectured closed form).
  Torus t6(3, 6);
  EXPECT_EQ(reference_loads(t6, linear_placement(t6), UdrRouter()).max_load(),
            8.0);
}

TEST(ExactLoads, OdrMaximaMatchClosedFormsExactly) {
  Torus t(3, 8);
  const Placement p = linear_placement(t);
  EXPECT_EQ(reference_loads(t, p, OdrRouter()).max_load(),
            32.0);  // floor(k/2)k
}

}  // namespace
}  // namespace tp
