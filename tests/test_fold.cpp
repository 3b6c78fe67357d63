// Randomized differential suite for the folded, integer-exact load
// kernels (src/load/complete_exchange.h), plus unit tests of the
// stabilizer detection they fold over.
//
// Seeded tori of d = 1..4 with uniform and mixed radices 2..7 carry every
// placement family: linear with random coefficients and offset, multiple
// linear for every t, shifted diagonal, modular, full, random, clustered
// and subtorus.  Under both tie-breaks, odr_loads, udr_loads and both
// *_parallel analyzers at widths 1..8 must equal the Rational oracles of
// exact_loads.h converted to double — `==` on raw(), not a tolerance —
// ODR in a non-identity correction order must equal reference_loads (its
// weights are dyadic, so the oracle's double sums are exact), and
// adaptive_loads must be within 1e-12 relative of reference_loads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "src/load/complete_exchange.h"
#include "src/load/exact_loads.h"
#include "src/placement/modular.h"
#include "src/placement/placement.h"
#include "src/routing/adaptive.h"
#include "src/routing/odr.h"
#include "src/util/prng.h"

namespace tp {
namespace {

// Oracle cost grows with |P|^2 (Rational adds per hop); the cap keeps the
// suite to seconds, and sanitizer builds to under a minute.
constexpr i64 kMaxProcessors = 96;
constexpr i64 kMaxNodes = 400;
constexpr int kTori = 48;

i32 draw(Xoshiro256SS& rng, i32 lo, i32 hi) {
  return lo + static_cast<i32>(rng.below(static_cast<u64>(hi - lo + 1)));
}

/// Radices 2..7, all equal or drawn per dimension, at most kMaxNodes nodes.
Radices draw_radices(Xoshiro256SS& rng, i32 d, bool uniform) {
  for (;;) {
    Radices r(static_cast<std::size_t>(d), draw(rng, 2, 7));
    if (!uniform)
      for (i32& k : r) k = draw(rng, 2, 7);
    i64 n = 1;
    for (const i32 k : r) n *= k;
    if (n <= kMaxNodes) return r;
  }
}

/// Every family that applies to the torus, with drawn parameters.
std::vector<Placement> placements_for(const Torus& torus, Xoshiro256SS& rng) {
  std::vector<Placement> out;
  const i64 n = torus.num_nodes();
  if (torus.is_uniform_radix()) {
    const i32 k = torus.radix(0);
    SmallVec<i32> coeffs;
    for (i32 i = 0; i < torus.dims(); ++i)
      coeffs.push_back(draw(rng, 0, k - 1));
    coeffs[static_cast<std::size_t>(draw(rng, 0, torus.dims() - 1))] = 1;
    out.push_back(linear_placement(torus, coeffs, draw(rng, 0, k - 1)));
    for (i32 t = 1; t <= k; ++t)
      out.push_back(multiple_linear_placement(torus, t));
    out.push_back(shifted_diagonal_placement(torus, draw(rng, 0, k - 1)));
  }
  i32 m = 0;  // gcd of the radices: a modulus every radix is a multiple of
  for (const i32 k : torus.radices()) m = static_cast<i32>(gcd(m, k));
  if (m > 1) {
    SmallVec<i32> coeffs;
    for (i32 i = 0; i < torus.dims(); ++i)
      coeffs.push_back(draw(rng, 0, m - 1));
    coeffs[0] = 1;
    out.push_back(modular_placement(torus, coeffs, m, draw(rng, 0, m - 1)));
  }
  out.push_back(full_population(torus));
  out.push_back(random_placement(torus, draw(rng, 2, static_cast<i32>(n)),
                                 rng.below(1000)));
  out.push_back(clustered_placement(torus, draw(rng, 2, static_cast<i32>(n))));
  const i32 dim = draw(rng, 0, torus.dims() - 1);
  out.push_back(
      subtorus_placement(torus, dim, draw(rng, 0, torus.radix(dim) - 1)));
  return out;
}

SmallVec<i32> shuffled_order(const Torus& torus, Xoshiro256SS& rng) {
  SmallVec<i32> order;
  for (i32 dim = 0; dim < torus.dims(); ++dim) order.push_back(dim);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.below(i))]);
  return order;
}

std::string label(const Torus& torus, const Placement& p, TieBreak tie) {
  std::string s = "T(";
  for (const i32 k : torus.radices()) s += std::to_string(k) + ",";
  s.back() = ')';
  return s + " " + p.name() +
         (tie == TieBreak::PositiveOnly ? " tie=+" : " tie=both");
}

TEST(FoldDifferential, OdrAndUdrEqualTheRationalOracles) {
  Xoshiro256SS rng(20260417);
  i64 compared = 0;
  for (int i = 0; i < kTori; ++i) {
    const Torus torus(draw_radices(rng, 1 + i % 4, (i / 4) % 2 == 0));
    for (const Placement& p : placements_for(torus, rng)) {
      if (p.size() > kMaxProcessors) continue;
      for (const TieBreak tie :
           {TieBreak::PositiveOnly, TieBreak::BothDirections}) {
        SCOPED_TRACE(label(torus, p, tie));
        const std::vector<double> odr =
            odr_loads_exact(torus, p, tie).to_load_map(torus).raw();
        const std::vector<double> udr =
            udr_loads_exact(torus, p, tie).to_load_map(torus).raw();
        EXPECT_EQ(odr_loads(torus, p, tie).raw(), odr);
        EXPECT_EQ(udr_loads(torus, p, tie).raw(), udr);
        for (i32 width = 1; width <= 8; ++width) {
          EXPECT_EQ(odr_loads_parallel(torus, p, width, tie).raw(), odr)
              << "width " << width;
          EXPECT_EQ(udr_loads_parallel(torus, p, width, tie).raw(), udr)
              << "width " << width;
        }
        const SmallVec<i32> order = shuffled_order(torus, rng);
        EXPECT_EQ(odr_loads_ordered(torus, p, order, tie).raw(),
                  reference_loads(torus, p, OdrRouter(order, tie)).raw());
        compared += 20;
      }
    }
  }
  EXPECT_GT(compared, 2000);
}

TEST(FoldDifferential, ParallelFanOutIsExact) {
  // Enough routed pairs (an aperiodic placement of 120) that widths >= 2
  // really split the representatives over workers.
  const Torus torus(Radices{5, 6, 7});
  const Placement p = random_placement(torus, 120, 11);
  ASSERT_EQ(translation_fold(torus, p).stabilizer_size, 1);
  const std::vector<double> udr =
      udr_loads_exact(torus, p).to_load_map(torus).raw();
  const std::vector<double> odr =
      odr_loads_exact(torus, p).to_load_map(torus).raw();
  for (i32 width = 1; width <= 8; ++width) {
    EXPECT_EQ(odr_loads_parallel(torus, p, width).raw(), odr) << width;
    EXPECT_EQ(udr_loads_parallel(torus, p, width).raw(), udr) << width;
  }
}

TEST(FoldDifferential, AdaptiveMatchesTheReference) {
  Xoshiro256SS rng(7);
  const AdaptiveMinimalRouter router;
  for (int i = 0; i < kTori; ++i) {
    const Torus torus(draw_radices(rng, 1 + i % 4, (i / 4) % 2 == 0));
    for (const Placement& p : placements_for(torus, rng)) {
      if (p.size() > 32 || torus.num_nodes() > 100) continue;
      SCOPED_TRACE(label(torus, p, TieBreak::BothDirections));
      const std::vector<double> got = adaptive_loads(torus, p).raw();
      const std::vector<double> want = reference_loads(torus, p, router).raw();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t e = 0; e < got.size(); ++e)
        EXPECT_LE(std::abs(got[e] - want[e]), 1e-12 * std::abs(want[e]))
            << "link " << e;
    }
  }
}

TEST(FoldDifferential, UdrIsTheCorrectlyRoundedRational) {
  // T8^3 t=1: summing the UDR weights in double used to give
  // 14.00000000000001; the exact E_max is 14.
  const Torus torus(3, 8);
  EXPECT_EQ(udr_loads(torus, linear_placement(torus)).max_load(), 14.0);
}

// --- stabilizer detection ------------------------------------------------

/// Every placement node lies in the orbit of exactly one representative,
/// each orbit holds |H| placement nodes, and orbits partition the torus.
void expect_consistent(const Torus& torus, const Placement& p,
                       const TranslationFold& fold) {
  EXPECT_EQ(fold.num_orbits * fold.stabilizer_size, torus.num_nodes());
  std::set<i64> rep_orbits;
  for (const NodeId r : fold.reps) rep_orbits.insert(fold.orbit_of(r));
  EXPECT_EQ(rep_orbits.size(), fold.reps.size());
  std::vector<i64> per_orbit(static_cast<std::size_t>(fold.num_orbits), 0);
  for (const NodeId q : p.nodes()) {
    EXPECT_TRUE(rep_orbits.count(fold.orbit_of(q))) << torus.node_str(q);
    ++per_orbit[static_cast<std::size_t>(fold.orbit_of(q))];
  }
  for (const i64 o : rep_orbits)
    EXPECT_EQ(per_orbit[static_cast<std::size_t>(o)], fold.stabilizer_size);
}

TEST(TranslationFold, LinearPlacementIsOneCosetOfKToTheDMinus1) {
  Xoshiro256SS rng(3);
  for (i32 d = 1; d <= 4; ++d) {
    for (i32 k = 2; k <= 7; ++k) {
      const Torus torus(d, k);
      if (torus.num_nodes() > 2401) continue;
      SmallVec<i32> coeffs;
      for (i32 i = 0; i < d; ++i) coeffs.push_back(draw(rng, 0, k - 1));
      coeffs[static_cast<std::size_t>(draw(rng, 0, d - 1))] = 1;
      const Placement p = linear_placement(torus, coeffs, draw(rng, 0, k - 1));
      const TranslationFold fold = translation_fold(torus, p);
      EXPECT_EQ(fold.stabilizer_size, powi(k, d - 1)) << p.name();
      EXPECT_EQ(fold.reps.size(), 1u) << p.name();
      expect_consistent(torus, p, fold);
    }
  }
}

TEST(TranslationFold, MultipleLinearPlacementIsTCosets) {
  for (i32 d = 1; d <= 4; ++d) {
    for (i32 k = 2; k <= 7; ++k) {
      const Torus torus(d, k);
      if (torus.num_nodes() > 2401) continue;
      for (i32 t = 1; t < k; ++t) {
        const Placement p = multiple_linear_placement(torus, t);
        const TranslationFold fold = translation_fold(torus, p);
        EXPECT_EQ(fold.stabilizer_size, powi(k, d - 1)) << p.name();
        EXPECT_EQ(fold.reps.size(), static_cast<std::size_t>(t)) << p.name();
        expect_consistent(torus, p, fold);
      }
    }
  }
}

TEST(TranslationFold, FullPopulationIsOneOrbit) {
  for (const Radices& r : {Radices{5}, Radices{4, 4}, Radices{2, 3, 5}}) {
    const Torus torus(r);
    const Placement p = full_population(torus);
    const TranslationFold fold = translation_fold(torus, p);
    EXPECT_EQ(fold.stabilizer_size, torus.num_nodes());
    EXPECT_EQ(fold.num_orbits, 1);
    EXPECT_EQ(fold.reps, std::vector<NodeId>{0});
  }
}

TEST(TranslationFold, SubtorusIsStabilizedByItsOwnTranslations) {
  const Torus torus(Radices{3, 4, 5});
  const Placement p = subtorus_placement(torus, 1, 2);
  const TranslationFold fold = translation_fold(torus, p);
  EXPECT_EQ(fold.stabilizer_size, 15);
  EXPECT_EQ(fold.reps.size(), 1u);
  expect_consistent(torus, p, fold);
}

TEST(TranslationFold, RandomAndClusteredAreAperiodic) {
  // Clustered sizes that are not whole rows of the last dimension.
  const Torus torus(3, 6);
  for (const Placement& p :
       {random_placement(torus, 40, 1), random_placement(torus, 150, 2),
        clustered_placement(torus, 7), clustered_placement(torus, 100)}) {
    const TranslationFold fold = translation_fold(torus, p);
    EXPECT_EQ(fold.stabilizer_size, 1) << p.name();
    EXPECT_EQ(fold.reps, p.nodes()) << p.name();
    EXPECT_TRUE(fold.orbit.empty()) << p.name();
    EXPECT_EQ(fold.num_orbits, torus.num_nodes());
  }
}

TEST(TranslationFold, TinyPlacementsAreTrivial) {
  const Torus torus(2, 4);
  for (const i64 n : {0, 1}) {
    const TranslationFold fold =
        translation_fold(torus, clustered_placement(torus, n));
    EXPECT_EQ(fold.stabilizer_size, 1);
    EXPECT_EQ(fold.reps.size(), static_cast<std::size_t>(n));
  }
}

}  // namespace
}  // namespace tp
