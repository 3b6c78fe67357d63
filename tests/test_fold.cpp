// Randomized differential suite for the folded, integer-exact load
// kernels (src/load/complete_exchange.h), plus unit tests of the
// stabilizer detection they fold over, of its arithmetic coset labels,
// and of the summaries read off the link-orbit buckets.
//
// Seeded tori of d = 1..4 with uniform and mixed radices 2..7 carry every
// placement family: linear with random coefficients and offset, multiple
// linear for every t, shifted diagonal, modular, full, random, clustered
// and subtorus.  Under both tie-breaks, odr_loads, udr_loads and the
// ODR/UDR kernels at widths 1..8 must equal reference_loads, the literal
// Definition 4 summed as exact Rationals and rounded once — `==` on raw(),
// not a tolerance — and so must ODR in a non-identity correction order.
// adaptive_loads must be within 1e-13 relative of reference_loads.  On
// the coset unions among those families, the counted kernels
// (src/load/counted_loads.h) must equal the walk under ==, and adaptive
// counting must equal reference_loads under ==.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/load/complete_exchange.h"
#include "src/load/counted_loads.h"
#include "src/load/formulas.h"
#include "src/placement/modular.h"
#include "src/placement/placement.h"
#include "src/routing/adaptive.h"
#include "src/routing/odr.h"
#include "src/routing/udr.h"
#include "src/util/prng.h"
#include "src/util/rational.h"

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

/// The kernels' per-link loads at `width` workers, broadcast.
std::vector<double> odr_at(const Torus& torus, const Placement& p,
                           TieBreak tie, i32 width) {
  return odr_orbit_loads(torus, p, tie, width).broadcast(torus).raw();
}
std::vector<double> udr_at(const Torus& torus, const Placement& p,
                           TieBreak tie, i32 width) {
  return udr_orbit_loads(torus, p, tie, width).broadcast(torus).raw();
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
            reference_loads(torus, p, OdrRouter(tie)).raw();
        const std::vector<double> udr =
            reference_loads(torus, p, UdrRouter(tie)).raw();
        EXPECT_EQ(odr_loads(torus, p, tie).raw(), odr);
        EXPECT_EQ(udr_loads(torus, p, tie).raw(), udr);
        for (i32 width = 1; width <= 8; ++width) {
          EXPECT_EQ(odr_at(torus, p, tie, width), odr) << "width " << width;
          EXPECT_EQ(udr_at(torus, p, tie, width), udr) << "width " << width;
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
  const TieBreak tie = TieBreak::PositiveOnly;
  const std::vector<double> udr =
      reference_loads(torus, p, UdrRouter(tie)).raw();
  const std::vector<double> odr =
      reference_loads(torus, p, OdrRouter(tie)).raw();
  for (i32 width = 1; width <= 8; ++width) {
    EXPECT_EQ(odr_at(torus, p, tie, width), odr) << width;
    EXPECT_EQ(udr_at(torus, p, tie, width), udr) << width;
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
        EXPECT_LE(std::abs(got[e] - want[e]), 1e-13 * std::abs(want[e]))
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
    EXPECT_EQ(fold.num_orbits, torus.num_nodes());
    for (NodeId n = 0; n < torus.num_nodes(); ++n)
      ASSERT_EQ(fold.orbit_of(n), n) << p.name();  // the label is the node id
  }
}

// --- coset labels ------------------------------------------------------

/// {x : x_i even for every i}: a subgroup of T_k^d for even k whose
/// quotient is Z_2^d, not cyclic.
Placement even_sublattice(const Torus& torus) {
  std::vector<NodeId> nodes;
  for (NodeId n = 0; n < torus.num_nodes(); ++n) {
    bool even = true;
    for (i32 i = 0; i < torus.dims(); ++i)
      even = even && torus.coord_of(n, i) % 2 == 0;
    if (even) nodes.push_back(n);
  }
  return Placement(torus, std::move(nodes), "even");
}

/// One torus and placement of every family the labels must handle,
/// small enough to check by brute force.
std::vector<std::pair<Torus, Placement>> label_cases() {
  std::vector<std::pair<Torus, Placement>> out;
  const auto add = [&out](const Radices& r, auto make) {
    const Torus torus(r);
    out.emplace_back(torus, make(torus));
  };
  add(Radices{8, 8, 8}, [](const Torus& t) { return linear_placement(t); });
  add(Radices{6, 6, 6}, [](const Torus& t) {
    return multiple_linear_placement(t, 3);
  });
  add(Radices{5, 5, 5, 5}, [](const Torus& t) {
    return multiple_linear_placement(t, 2);
  });
  add(Radices{4, 6}, [](const Torus& t) {
    return modular_placement(t, SmallVec<i32>{1, 1}, 2, 1);
  });
  add(Radices{10, 10}, [](const Torus& t) { return perfect_lee_placement(t); });
  add(Radices{3, 4, 5}, [](const Torus& t) {
    return subtorus_placement(t, 1, 2);
  });
  add(Radices{4, 4}, [](const Torus& t) { return full_population(t); });
  add(Radices{5, 6, 7}, [](const Torus& t) {
    return random_placement(t, 40, 3);
  });
  add(Radices{6, 6, 6}, [](const Torus& t) {
    return clustered_placement(t, 25);
  });
  add(Radices{4, 4}, [](const Torus& t) { return even_sublattice(t); });
  add(Radices{6, 6, 6}, [](const Torus& t) { return even_sublattice(t); });
  add(Radices{3, 5}, [](const Torus& t) {
    return diagonal_placement_mixed(t, 1, 2);
  });
  add(Radices{7, 7, 7}, [](const Torus& t) {
    return linear_placement(t, SmallVec<i32>{2, 3, 1}, 4);
  });
  add(Radices{6, 6}, [](const Torus& t) {
    return linear_placement(t, SmallVec<i32>{4, 1}, 3);
  });
  add(Radices{2, 6, 4}, [](const Torus& t) {
    return modular_placement(t, SmallVec<i32>{1, 1, 0}, 2, 0);
  });
  return out;
}

TEST(CosetLabels, ShareALabelExactlyWhenTheDifferenceIsInH) {
  for (const auto& [torus, p] : label_cases()) {
    SCOPED_TRACE(label(torus, p, TieBreak::PositiveOnly));
    const TranslationFold fold = translation_fold(torus, p);
    const i64 n = torus.num_nodes();
    // H by brute force: every translation that maps P onto itself.
    std::vector<bool> in_h(static_cast<std::size_t>(n), false);
    i64 order = 0;
    for (NodeId h = 0; h < n; ++h) {
      const Coord hc = torus.coord(h);
      bool period = true;
      for (const NodeId q : p.nodes()) {
        Coord c = torus.coord(q);
        for (i32 i = 0; i < torus.dims(); ++i)
          c[static_cast<std::size_t>(i)] =
              (c[static_cast<std::size_t>(i)] + hc[static_cast<std::size_t>(i)]) %
              torus.radix(i);
        period = period && p.contains(torus.node_id(c));
      }
      in_h[static_cast<std::size_t>(h)] = period;
      order += period ? 1 : 0;
    }
    ASSERT_EQ(fold.stabilizer_size, order);
    ASSERT_EQ(fold.num_orbits * order, n);
    std::vector<i64> labels(static_cast<std::size_t>(n));
    std::set<i64> distinct;
    for (NodeId a = 0; a < n; ++a) {
      labels[static_cast<std::size_t>(a)] = fold.orbit_of(a);
      ASSERT_GE(labels[static_cast<std::size_t>(a)], 0);
      ASSERT_LT(labels[static_cast<std::size_t>(a)], fold.num_orbits);
      distinct.insert(labels[static_cast<std::size_t>(a)]);
    }
    EXPECT_EQ(static_cast<i64>(distinct.size()), fold.num_orbits);
    for (NodeId a = 0; a < n; ++a) {
      const Coord ac = torus.coord(a);
      for (NodeId b = 0; b < n; ++b) {
        Coord diff = torus.coord(b);
        for (i32 i = 0; i < torus.dims(); ++i) {
          const auto u = static_cast<std::size_t>(i);
          diff[u] = (diff[u] - ac[u] + torus.radix(i)) % torus.radix(i);
        }
        const bool same = labels[static_cast<std::size_t>(a)] ==
                          labels[static_cast<std::size_t>(b)];
        ASSERT_EQ(same, static_cast<bool>(
                            in_h[static_cast<std::size_t>(torus.node_id(diff))]))
            << torus.node_str(a) << " " << torus.node_str(b);
      }
    }
    // Reps: the first placement node of each coset, in P order.
    std::vector<NodeId> reps;
    std::set<i64> seen;
    for (const NodeId q : p.nodes())
      if (seen.insert(labels[static_cast<std::size_t>(q)]).second)
        reps.push_back(q);
    EXPECT_EQ(fold.reps, reps);
    if (order == 1) {
      for (NodeId a = 0; a < n; ++a)
        EXPECT_EQ(labels[static_cast<std::size_t>(a)], a);  // the node id
    }
  }
}

TEST(CosetLabels, EvenSublatticeQuotientIsNotCyclic) {
  for (const Radices& r : {Radices{4, 4}, Radices{6, 6, 6}}) {
    const Torus torus(r);
    const TranslationFold fold = translation_fold(torus, even_sublattice(torus));
    EXPECT_EQ(fold.num_orbits, i64{1} << r.size());
    ASSERT_EQ(fold.num_factors, r.size());
    for (std::size_t i = 0; i < fold.num_factors; ++i)
      EXPECT_EQ(fold.modulus[i], 2);
  }
}

// --- summaries ----------------------------------------------------------

TEST(FoldedLoads, SummaryMatchesTheBroadcastMap) {
  // E_max and the loaded-link count equal the broadcast map's under ==,
  // and the mean is ΣLee / 2dN rounded once, for both tie-breaks at
  // widths 1..4 and for adaptive routing.
  Xoshiro256SS rng(20261017);
  i64 compared = 0;
  for (int i = 0; i < kTori; ++i) {
    const Torus torus(draw_radices(rng, 1 + i % 4, (i / 4) % 2 == 0));
    for (const Placement& p : placements_for(torus, rng)) {
      if (p.size() > kMaxProcessors) continue;
      i64 lee = 0;
      for (const NodeId a : p.nodes())
        for (const NodeId b : p.nodes()) lee += torus.lee_distance(a, b);
      const double mean = static_cast<double>(lee) /
                          static_cast<double>(torus.num_directed_edges());
      const auto check = [&](const FoldedLoads& f, const LoadMap& map) {
        EXPECT_EQ(f.lee_total, lee);
        EXPECT_EQ(f.max_load(), map.max_load());
        EXPECT_EQ(f.num_loaded_edges(), map.num_loaded_edges());
        EXPECT_EQ(f.mean_load(), mean);
        EXPECT_EQ(map.mean_load(), mean);
        EXPECT_EQ(map.total_load(), static_cast<double>(lee));
        ++compared;
      };
      for (const TieBreak tie :
           {TieBreak::PositiveOnly, TieBreak::BothDirections}) {
        SCOPED_TRACE(label(torus, p, tie));
        for (i32 width = 1; width <= 4; ++width) {
          const FoldedLoads odr = odr_orbit_loads(torus, p, tie, width);
          check(odr, odr.broadcast(torus));
          const FoldedLoads udr = udr_orbit_loads(torus, p, tie, width);
          check(udr, udr.broadcast(torus));
        }
      }
      if (p.size() <= 32 && torus.num_nodes() <= 100) {
        SCOPED_TRACE(label(torus, p, TieBreak::BothDirections));
        check(adaptive_orbit_loads(torus, p), adaptive_loads(torus, p));
      }
    }
  }
  EXPECT_GT(compared, 2000);
}

TEST(FoldedLoads, AddDropsTheExactTotal) {
  const Torus torus(3, 8);
  LoadMap map = udr_loads(torus, linear_placement(torus));
  EXPECT_EQ(map.total_load(), expected_total_load(torus, linear_placement(torus)));
  map.add(0, 1.0);
  double sum = 0.0;
  for (const double v : map.raw()) sum += v;
  EXPECT_EQ(map.total_load(), sum);
}

/// FNV-1a over each load's IEEE-754 bits, low byte first.
u64 fnv1a_bits(const std::vector<double>& loads) {
  u64 h = 14695981039346656037ull;
  for (const double x : loads) {
    u64 bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(FoldedLoads, BroadcastMapsKeepTheirBits) {
  // Hashes recorded from the maps computed with a node-label table, before
  // the labels became arithmetic, for the first 13 label_cases(): ODR and
  // UDR under both tie-breaks (serial, and at widths 2..4), and adaptive.
  struct Pinned {
    u64 odr_pos, odr_both, udr_pos, udr_both, adaptive;
  };
  const Pinned pinned[] = {
      {0xc320f6b7332cbb25ull, 0xe7e7fa8729c6fb25ull, 0xec19e2790c7a2c65ull,
       0xb2733c163585a1a5ull, 0x8daed46541c75d85ull},
      {0xa0ce215af93cbb25ull, 0xfeeec193ece8d725ull, 0x761f9fa88e60f825ull,
       0x7d1fa9c5d8a2d925ull, 0x573e6929f3b2c725ull},
      {0x164caa711d2212a5ull, 0x164caa711d2212a5ull, 0xc8f0e6a6bfaf37a5ull,
       0xc8f0e6a6bfaf37a5ull, 0x952fcbb0b943fb8ull},
      {0xf8020d90db33a925ull, 0x286e7b0ad7004de5ull, 0x665c76210410d595ull,
       0x18b4d6e15a472d25ull, 0x18b4d6e15a472d25ull},
      {0xb24f309577143f25ull, 0x8b3954ea2cd50365ull, 0xa2ca62bd69a03b25ull,
       0xaa6a13bb0c940925ull, 0xb128d906ca31dba5ull},
      {0x5cd6ddf63bcd0aa5ull, 0x5cd6ddf63bcd0aa5ull, 0x5cd6ddf63bcd0aa5ull,
       0x5cd6ddf63bcd0aa5ull, 0xc4626f572f89ffa5ull},
      {0xbb456958b3499b25ull, 0x58cc2bea35258325ull, 0xbb456958b3499b25ull,
       0x58cc2bea35258325ull, 0xf153ba0cdad58325ull},
      {0x79499980983a85acull, 0x163a8732ab8491cbull, 0xfdbd2f5fc61e3187ull,
       0xbaf0ea630259a8e5ull, 0xf156560e77aa22a5ull},
      {0xfaa373dc46cc56adull, 0xf99832fcc39a74e0ull, 0xa050508a92966646ull,
       0x3d283bb88cf0b6c5ull, 0x68099cf679ab7767ull},
      {0xc1a30019d9584b25ull, 0xedc70f521c003525ull, 0xc1a30019d9584b25ull,
       0xedc70f521c003525ull, 0xf903d94c38a7bf25ull},
      {0x6738e3f9c62bad25ull, 0x6738e3f9c62bad25ull, 0x6738e3f9c62bad25ull,
       0x6738e3f9c62bad25ull, 0x87ab81022b4fbacdull},
      {0x173a3b8facdb1105ull, 0x173a3b8facdb1105ull, 0x3c988ea16aec65e5ull,
       0x3c988ea16aec65e5ull, 0x85bdb1cc1e836885ull},
      {0x2d60a77da1722865ull, 0x2d60a77da1722865ull, 0x20805d06b6ead9f9ull,
       0x20805d06b6ead9f9ull, 0x63a08a28de683621ull}};
  const auto cases = label_cases();
  for (std::size_t c = 0; c < std::size(pinned); ++c) {
    const auto& [torus, p] = cases[c];
    SCOPED_TRACE(label(torus, p, TieBreak::PositiveOnly));
    const Pinned& want = pinned[c];
    for (i32 width = 1; width <= 4; ++width) {
      EXPECT_EQ(fnv1a_bits(odr_at(torus, p, TieBreak::PositiveOnly, width)),
                want.odr_pos);
      EXPECT_EQ(fnv1a_bits(odr_at(torus, p, TieBreak::BothDirections, width)),
                want.odr_both);
      EXPECT_EQ(fnv1a_bits(udr_at(torus, p, TieBreak::PositiveOnly, width)),
                want.udr_pos);
      EXPECT_EQ(fnv1a_bits(udr_at(torus, p, TieBreak::BothDirections, width)),
                want.udr_both);
    }
    EXPECT_EQ(fnv1a_bits(odr_loads(torus, p).raw()), want.odr_pos);
    EXPECT_EQ(fnv1a_bits(udr_loads(torus, p).raw()), want.udr_pos);
    EXPECT_EQ(fnv1a_bits(adaptive_loads(torus, p).raw()), want.adaptive);
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

// --- counted kernels ----------------------------------------------------

/// The coset unions among placements_for's families on a uniform torus:
/// multiple linear for every t, the unit-coefficient linear placement,
/// shifted diagonal and full population.
std::vector<Placement> coset_unions_for(const Torus& torus,
                                        Xoshiro256SS& rng) {
  const i32 k = torus.radix(0);
  std::vector<Placement> out;
  for (i32 t = 1; t <= k; ++t)
    out.push_back(multiple_linear_placement(torus, t));
  out.push_back(linear_placement(torus, draw(rng, 0, k - 1)));
  out.push_back(shifted_diagonal_placement(torus, draw(rng, 0, k - 1)));
  out.push_back(full_population(torus));
  return out;
}

/// Counted and walked loads agree bit for bit, and so do their summaries.
void expect_same_loads(const Torus& torus, const FoldedLoads& counted,
                       const FoldedLoads& walked) {
  EXPECT_EQ(counted.broadcast(torus).raw(), walked.broadcast(torus).raw());
  EXPECT_EQ(counted.lee_total, walked.lee_total);
  EXPECT_EQ(counted.max_load(), walked.max_load());
  EXPECT_EQ(counted.mean_load(), walked.mean_load());
  EXPECT_EQ(counted.num_loaded_edges(), walked.num_loaded_edges());
}

TEST(CountedLoads, CosetUnionsAreFoundByTheirProperty) {
  // P is a union of L_0 cosets iff membership depends only on Σx mod k;
  // every family of placements_for is checked against that definition.
  Xoshiro256SS rng(20261019);
  i64 unions = 0;
  for (int i = 0; i < kTori; ++i) {
    const Torus torus(draw_radices(rng, 1 + i % 4, (i / 4) % 2 == 0));
    for (const Placement& p : placements_for(torus, rng)) {
      SCOPED_TRACE(label(torus, p, TieBreak::PositiveOnly));
      const std::optional<CosetUnion> u = coset_union_of(torus, p);
      if (!torus.is_uniform_radix()) {
        EXPECT_FALSE(u.has_value());
        continue;
      }
      const i32 k = torus.radix(0);
      std::vector<int> in(static_cast<std::size_t>(k), -1);  // -1: unseen
      bool is_union = p.size() > 0;
      for (NodeId n = 0; n < torus.num_nodes(); ++n) {
        i64 sum = 0;
        for (const i32 c : torus.coord(n)) sum += c;
        int& seen = in[static_cast<std::size_t>(sum % k)];
        const int member = p.contains(n) ? 1 : 0;
        if (seen >= 0 && seen != member) is_union = false;
        seen = member;
      }
      ASSERT_EQ(u.has_value(), is_union);
      if (!is_union) continue;
      ++unions;
      for (i32 r = 0; r < k; ++r)
        EXPECT_EQ(u->classes[static_cast<std::size_t>(r)],
                  in[static_cast<std::size_t>(r)] == 1);
    }
  }
  EXPECT_GT(unions, 100);
}

TEST(CountedLoads, OdrAndUdrEqualTheWalkOnEveryCosetUnion) {
  Xoshiro256SS rng(20261020);
  i64 compared = 0;
  for (int i = 0; i < kTori; ++i) {
    const Torus torus(draw_radices(rng, 1 + i % 4, true));
    for (const Placement& p : coset_unions_for(torus, rng)) {
      SCOPED_TRACE(label(torus, p, TieBreak::PositiveOnly));
      const std::optional<CosetUnion> u = coset_union_of(torus, p);
      ASSERT_TRUE(u.has_value());
      expect_same_loads(torus, counted_orbit_loads(*u, RouterKind::Odr),
                        odr_orbit_loads(torus, p));
      expect_same_loads(torus, counted_orbit_loads(*u, RouterKind::Udr),
                        udr_orbit_loads(torus, p));
      compared += 2;
    }
  }
  EXPECT_GT(compared, 400);
}

TEST(CountedLoads, OdrAndUdrEqualTheWalkOnTheAnalyzeGrid) {
  // Every ODR and UDR key of the analyze grid: d = 2..4, k = 2..12,
  // t = 1..3 with t <= k.
  for (i32 d = 2; d <= 4; ++d)
    for (i32 k = 2; k <= 12; ++k)
      for (i32 t = 1; t <= std::min(k, 3); ++t) {
        SCOPED_TRACE("T_" + std::to_string(k) + "^" + std::to_string(d) +
                     " t=" + std::to_string(t));
        const Torus torus(d, k);
        const Placement p = multiple_linear_placement(torus, t);
        const std::optional<CosetUnion> u = coset_union_of(torus, p);
        ASSERT_TRUE(u.has_value());
        expect_same_loads(torus, counted_orbit_loads(*u, RouterKind::Odr),
                          odr_orbit_loads(torus, p));
        expect_same_loads(torus, counted_orbit_loads(*u, RouterKind::Udr),
                          udr_orbit_loads(torus, p));
      }
}

TEST(CountedLoads, AdaptiveIsTheCorrectlyRoundedRational) {
  // The walk's double buckets miss the exact loads by a few ulp; the
  // count equals reference_loads, exact Rationals rounded once, under ==.
  Xoshiro256SS rng(20261021);
  const AdaptiveMinimalRouter router;
  i64 compared = 0;
  for (int i = 0; i < kTori; ++i) {
    const Torus torus(draw_radices(rng, 1 + i % 4, true));
    if (torus.num_nodes() > 100) continue;
    for (const Placement& p : coset_unions_for(torus, rng)) {
      SCOPED_TRACE(label(torus, p, TieBreak::BothDirections));
      const std::optional<CosetUnion> u = coset_union_of(torus, p);
      ASSERT_TRUE(u.has_value());
      const FoldedLoads counted = counted_orbit_loads(*u, RouterKind::Adaptive);
      EXPECT_EQ(counted.broadcast(torus).raw(),
                reference_loads(torus, p, router).raw());
      const FoldedLoads walked = adaptive_orbit_loads(torus, p);
      EXPECT_EQ(counted.lee_total, walked.lee_total);
      EXPECT_EQ(counted.mean_load(), walked.mean_load());
      EXPECT_EQ(counted.num_loaded_edges(), walked.num_loaded_edges());
      ++compared;
    }
  }
  EXPECT_GT(compared, 100);
}

TEST(CountedLoads, AnswersPastTheWalksLimits) {
  // T_32^5: 2^20 processors put 2^56 units on the links, past the walk's
  // 2^53 guard.  T_400^2 and T_100^3 adaptive: past its Pascal table
  // (and past UDR's upper bound on T_400^2: 1571.25 > 800).
  const auto one_class = [](i32 d, i32 k) {
    CosetUnion u{d, k, std::vector<bool>(static_cast<std::size_t>(k), false)};
    u.classes[0] = true;
    return u;
  };
  const CosetUnion t32 = one_class(5, 32);
  const FoldedLoads odr = counted_orbit_loads(t32, RouterKind::Odr);
  EXPECT_EQ(odr.max_load(), odr_linear_emax_overall(32, 5));
  const FoldedLoads udr = counted_orbit_loads(t32, RouterKind::Udr);
  EXPECT_EQ(udr.lee_total, odr.lee_total);
  EXPECT_LT(udr.max_load(), odr.max_load());
  EXPECT_GE(udr.max_load(), udr.mean_load());
  for (const auto& [d, k] : {std::pair{2, 400}, std::pair{3, 100}}) {
    const FoldedLoads adaptive =
        counted_orbit_loads(one_class(d, k), RouterKind::Adaptive);
    EXPECT_EQ(adaptive.lee_total,
              counted_orbit_loads(one_class(d, k), RouterKind::Odr).lee_total);
    EXPECT_GT(adaptive.max_load(), adaptive.mean_load());
  }
}

TEST(CountedLoads, MeanIsRoundedOncePastTwoToThe53) {
  // Every node of T_400^3: ΣLee is 1.2288e18, so lee_total / links must
  // be one rounding of the exact quotient, not of two rounded doubles.
  const CosetUnion full{3, 400, std::vector<bool>(400, true)};
  const FoldedLoads loads = counted_orbit_loads(full, RouterKind::Odr);
  EXPECT_GT(loads.lee_total, i64{1} << 53);
  const i64 links = 2 * 3 * i64{400} * 400 * 400;
  EXPECT_EQ(loads.mean_load(), Rational(loads.lee_total, links).to_double());
  EXPECT_EQ(loads.fold.num_orbits, 1);
}

}  // namespace
}  // namespace tp
