// Tests for the bisection machinery:
//   * Theorem 1: the dimension cut bisects uniform placements with exactly
//     4 k^{d-1} directed links (k even)
//   * Proposition 1 / Appendix: the hyperplane sweep bisects any placement
//     crossing at most 2 d k^{d-1} array wires (6 d k^{d-1} directed links
//     with the wrap wires, Corollary 1)
//   * the layer prefix cut: its O(d) width is the crossing count, it holds
//     ⌊|P|/2⌋ processors, and it crosses at most 4(k^d - 1)/(k - 1) links
//   * removing a bisection's links really disconnects the two sides
//   * the exact small-case optimum never exceeds the constructions

#include <gtest/gtest.h>

#include <cmath>

#include "src/bisection/cut.h"
#include "src/bisection/dimension_cut.h"
#include "src/bisection/exact_bisection.h"
#include "src/bisection/hyperplane_sweep.h"
#include "src/load/formulas.h"
#include "src/placement/placement.h"
#include "src/torus/graph.h"
#include "src/util/error.h"
#include "src/util/prng.h"

namespace tp {
namespace {

// --- Cut basics --------------------------------------------------------------

TEST(Cut, SizesAndSplits) {
  Torus t(2, 4);
  // Side B = nodes with first coordinate in {1, 2}.
  std::vector<bool> side(static_cast<std::size_t>(t.num_nodes()), false);
  for (NodeId n = 0; n < t.num_nodes(); ++n)
    side[static_cast<std::size_t>(n)] =
        t.coord_of(n, 0) == 1 || t.coord_of(n, 0) == 2;
  Cut cut(t, side);
  EXPECT_EQ(cut.node_split(), (std::pair<i64, i64>{8, 8}));
  // Two layer boundaries, k wires each, 2 directions: 4k directed links.
  EXPECT_EQ(cut.directed_cut_size(t), 16);
  EXPECT_EQ(cut.undirected_cut_size(t), 8);
  const Placement p = linear_placement(t);
  EXPECT_TRUE(cut.bisects(t, p));
}

TEST(Cut, RemovingCrossingEdgesDisconnects) {
  Torus t(2, 4);
  std::vector<bool> side(static_cast<std::size_t>(t.num_nodes()), false);
  for (NodeId n = 0; n < t.num_nodes(); ++n)
    side[static_cast<std::size_t>(n)] = t.coord_of(n, 0) >= 2;
  Cut cut(t, side);
  EdgeSet removed = cut.crossing_edges(t);
  EXPECT_EQ(num_components(t, &removed), 2);
}

TEST(Cut, RejectsWrongSize) {
  Torus t(2, 3);
  EXPECT_THROW(Cut(t, std::vector<bool>(5, false)), Error);
}

// --- Theorem 1 ----------------------------------------------------------------

TEST(DimensionCut, Theorem1ExactWidthAndBalance) {
  for (i32 d = 2; d <= 4; ++d)
    for (i32 k : {4, 6, 8}) {
      if (d == 4 && k == 8) continue;  // keep runtime modest
      Torus t(d, k);
      const Placement p = linear_placement(t);
      const auto result = best_dimension_cut(t, p);
      EXPECT_EQ(result.imbalance, 0) << "d=" << d << " k=" << k;
      EXPECT_EQ(result.directed_edges, uniform_bisection_width(k, d))
          << "d=" << d << " k=" << k;
      EXPECT_TRUE(result.cut.bisects(t, p));
    }
}

TEST(DimensionCut, WorksForMultipleLinearPlacements) {
  Torus t(3, 4);
  for (i32 tt = 1; tt <= 3; ++tt) {
    const Placement p = multiple_linear_placement(t, tt);
    const auto result = best_dimension_cut(t, p);
    EXPECT_EQ(result.imbalance, 0) << "t=" << tt;
    EXPECT_EQ(result.directed_edges, uniform_bisection_width(4, 3));
  }
}

TEST(DimensionCut, CutDisconnectsTheTorus) {
  Torus t(2, 6);
  const Placement p = linear_placement(t);
  const auto result = best_dimension_cut(t, p);
  EdgeSet removed = result.cut.crossing_edges(t);
  EXPECT_EQ(num_components(t, &removed), 2);
}

TEST(DimensionCut, OddKLeavesBoundedImbalance) {
  // k odd: layers hold |P|/k processors each; the best two-boundary cut
  // leaves an imbalance of exactly one layer's worth.
  Torus t(2, 5);
  const Placement p = linear_placement(t);
  const auto result = best_dimension_cut(t, p);
  EXPECT_EQ(result.imbalance, 1);  // |P| = 5 over layers of 1
  EXPECT_EQ(result.directed_edges, uniform_bisection_width(5, 2));
}

TEST(DimensionCut, NonUniformPlacementStillGetsBestEffort) {
  Torus t(2, 4);
  const Placement p = clustered_placement(t, 8);  // first two rows
  const auto result = best_dimension_cut(t, p);
  // Clustered into rows 0-1: a cut separating rows 0-1 from 2-3 balances
  // the nodes but puts all processors on one side along dim 0; along dim 1
  // the cluster is uniform, so the best cut balances exactly.
  EXPECT_EQ(result.imbalance, 0);
  EXPECT_TRUE(result.cut.bisects(t, p));
}

TEST(DimensionCut, LinearSplitSearchPicksThePairOfThePairSearch) {
  // The first (a, b) of least imbalance, as the O(k²) search over every
  // pair finds it, on random layer counts with zeros and equal runs.
  Xoshiro256SS rng(29);
  for (i32 round = 0; round < 3000; ++round) {
    const i32 k = 2 + static_cast<i32>(rng.below(40));
    const u64 spread = 1 + rng.below(round % 3 == 0 ? 2 : 6);
    LayerCounts counts;
    counts.layers.emplace_back();
    for (i32 v = 0; v < k; ++v) {
      counts.layers[0].push_back(static_cast<i64>(rng.below(spread + 1)));
      counts.size += counts.layers[0].back();
    }
    const std::vector<i64>& layer = counts.layers[0];
    i64 best = -1;
    i32 best_a = 0, best_b = 0;
    for (i32 a = 0; a < k; ++a) {
      i64 in_a = 0;
      for (i32 b = a + 1; b < k; ++b) {
        in_a += layer[static_cast<std::size_t>(b)];
        const i64 imbalance =
            in_a * 2 > counts.size ? in_a * 2 - counts.size
                                   : counts.size - in_a * 2;
        if (best < 0 || imbalance < best) {
          best = imbalance;
          best_a = a;
          best_b = b;
        }
      }
    }
    const LayerSplit split = best_layer_split(Torus(Radices{k}), counts, 0);
    ASSERT_EQ(split.imbalance, best) << "round " << round;
    ASSERT_EQ(split.a, best_a) << "round " << round;
    ASSERT_EQ(split.b, best_b) << "round " << round;
  }
}

TEST(DimensionCut, InvalidDimensionThrows) {
  Torus t(2, 4);
  const Placement p = linear_placement(t);
  EXPECT_THROW(dimension_cut(t, p, 2), Error);
  EXPECT_THROW(dimension_cut(t, p, -1), Error);
}

// --- Proposition 1 / Appendix ---------------------------------------------------

TEST(HyperplaneSweep, BisectsLinearPlacements) {
  for (i32 d = 2; d <= 3; ++d)
    for (i32 k : {3, 4, 5, 6}) {
      Torus t(d, k);
      const Placement p = linear_placement(t);
      const auto result = hyperplane_sweep_bisection(t, p);
      EXPECT_TRUE(result.cut.bisects(t, p)) << "d=" << d << " k=" << k;
      EXPECT_LE(result.array_crossings, sweep_separator_upper_bound(k, d))
          << "d=" << d << " k=" << k;
      EXPECT_LE(result.directed_edges, bisection_width_upper_bound(k, d))
          << "d=" << d << " k=" << k;
    }
}

TEST(HyperplaneSweep, BisectsArbitraryPlacements) {
  // Proposition 1 assumes nothing about P: try random and adversarial.
  Torus t(3, 4);
  for (u64 seed : {1u, 2u, 3u}) {
    const Placement p = random_placement(t, 21, seed);
    const auto result = hyperplane_sweep_bisection(t, p);
    const auto [a, b] = result.cut.processor_split(t, p);
    EXPECT_EQ(a, 10);  // floor(21/2) on the origin side
    EXPECT_EQ(b, 11);
    EXPECT_LE(result.array_crossings, sweep_separator_upper_bound(4, 3));
  }
  const Placement clustered = clustered_placement(t, 16);
  const auto result = hyperplane_sweep_bisection(t, clustered);
  EXPECT_TRUE(result.cut.bisects(t, clustered));
  EXPECT_LE(result.array_crossings, sweep_separator_upper_bound(4, 3));
}

TEST(HyperplaneSweep, GammaIsInTheProofInterval) {
  for (i32 d = 2; d <= 6; ++d) {
    const long double g = default_gamma(d);
    EXPECT_GT(g, 1.0L);
    EXPECT_LT(g, std::pow(2.0L, 1.0L / (d - 1)));
  }
}

TEST(HyperplaneSweep, CutDisconnects) {
  Torus t(2, 5);
  const Placement p = linear_placement(t);
  const auto result = hyperplane_sweep_bisection(t, p);
  EdgeSet removed = result.cut.crossing_edges(t);
  EXPECT_GE(num_components(t, &removed), 2);
}

TEST(HyperplaneSweep, WorksInOneDimension) {
  Torus t(1, 8);
  const Placement p = full_population(t);
  const auto result = hyperplane_sweep_bisection(t, p);
  EXPECT_TRUE(result.cut.bisects(t, p));
}

TEST(HyperplaneSweep, EmptyPlacementRejected) {
  Torus t(2, 3);
  const Placement p(t, {}, "empty");
  EXPECT_THROW(hyperplane_sweep_bisection(t, p), Error);
}

// --- the layer prefix cut ---------------------------------------------------------

/// The prefix {n : id(n) < r} as a Cut: side B is every id from r on.
Cut prefix_side(const Torus& torus, NodeId r) {
  std::vector<bool> side(static_cast<std::size_t>(torus.num_nodes()), false);
  for (NodeId n = r; n < torus.num_nodes(); ++n)
    side[static_cast<std::size_t>(n)] = true;
  return Cut(torus, std::move(side));
}

/// Four directed links per line through r's own layers: Σ_j 4·stride_j,
/// which is 4(k^d - 1)/(k - 1) on T_k^d.
i64 prefix_width_ceiling(const Torus& torus) {
  i64 lines = 0;
  i64 stride = 1;
  for (i32 j = torus.dims(); j-- > 0;) {
    lines += stride;
    stride *= torus.radix(j);
  }
  return 4 * lines;
}

TEST(PrefixCut, WidthIsTheCrossingCountOfEveryPrefix) {
  for (const Radices& radices :
       {Radices{7}, Radices{2, 2}, Radices{3, 3}, Radices{4, 5},
        Radices{2, 3, 4}, Radices{3, 3, 3}, Radices{5, 2, 3},
        Radices{2, 2, 2, 2}, Radices{3, 4, 2, 3},
        Radices{2, 2, 2, 2, 2, 2, 2, 2}}) {
    const Torus torus(radices);
    for (NodeId r = 1; r < torus.num_nodes(); ++r)
      ASSERT_EQ(prefix_cut_width(torus, r),
                prefix_side(torus, r).directed_cut_size(torus))
          << "r=" << r << " on " << torus.num_nodes() << " nodes";
    EXPECT_THROW(prefix_cut_width(torus, 0), Error);
    EXPECT_THROW(prefix_cut_width(torus, torus.num_nodes()), Error);
  }
}

TEST(PrefixCut, HoldsHalfOfEveryPlacementWithinTheLayerBound) {
  // Every multiple linear placement on T_k^d with N <= 3000 (rings up to
  // k = 64), random and clustered placements there and on a mixed-radix
  // torus, and test_bounds' lopsided placement.
  i64 checked = 0;
  const auto check = [&checked](const Torus& torus, const Placement& p) {
    SCOPED_TRACE(p.name() + " on " + std::to_string(torus.num_nodes()) +
                 " nodes");
    const PrefixCut cut = middle_prefix_cut(torus, layer_counts(torus, p));
    const Cut side = prefix_side(torus, cut.r);
    EXPECT_EQ(cut.directed_edges, side.directed_cut_size(torus));
    EXPECT_EQ(side.processor_split(torus, p).first, p.size() / 2);
    EXPECT_LE(cut.directed_edges, prefix_width_ceiling(torus));
    ++checked;
  };
  for (i32 d = 1; d <= 8; ++d)
    for (i32 k = 2; k <= 64; ++k) {
      const Torus torus(d, k);
      if (torus.num_nodes() > 3000) break;
      EXPECT_EQ(prefix_width_ceiling(torus), 4 * (powi(k, d) - 1) / (k - 1));
      for (i32 t = 1; t <= k; ++t) {
        const Placement p = multiple_linear_placement(torus, t);
        if (p.size() >= 2) check(torus, p);
      }
      const i64 n = torus.num_nodes();
      check(torus, random_placement(torus, std::max<i64>(2, n / 3),
                                    static_cast<u64>(n)));
      check(torus, clustered_placement(torus, n / 2 + 1));
    }
  const Torus mixed(Radices{5, 8, 12});
  for (u64 seed = 1; seed <= 20; ++seed)
    check(mixed, random_placement(mixed, static_cast<i64>(7 * seed), seed));
  check(mixed, clustered_placement(mixed, 101));
  const Torus t42(2, 4);
  check(t42, Placement(t42, {0, 1, 5}, "lopsided"));
  EXPECT_EQ(checked, 2016 + 1484 + 104 + 27 + 9 + 5 + 5 + 2 +
                         2 * (63 + 53 + 13 + 6 + 3 + 2 + 2 + 1) + 22);
}

// --- exact small cases -----------------------------------------------------------

TEST(ExactBisection, MatchesHandComputedRing) {
  // A ring of 6 nodes, all populated: the optimal bisection removes two
  // wires = 4 directed links.
  Torus t(1, 6);
  const auto result = exact_bisection(t, full_population(t));
  EXPECT_EQ(result.directed_edges, 4);
  EXPECT_TRUE(result.cut.bisects(t, full_population(t)));
}

TEST(ExactBisection, FullyPopulated2DTorus) {
  // T_4^2 fully populated: bisection width is 4k^{d-1} directed = 16.
  Torus t(2, 4);
  const auto result = exact_bisection(t, full_population(t));
  EXPECT_EQ(result.directed_edges, 16);
}

TEST(ExactBisection, NeverExceedsConstructions) {
  // The exact optimum is at most the Theorem 1 cut and the sweep cut.
  for (i32 k : {3, 4}) {
    Torus t(2, k);
    const Placement p = linear_placement(t);
    const auto exact = exact_bisection(t, p);
    EXPECT_LE(exact.directed_edges,
              best_dimension_cut(t, p).directed_edges);
    EXPECT_LE(exact.directed_edges,
              hyperplane_sweep_bisection(t, p).directed_edges);
    EXPECT_TRUE(exact.cut.bisects(t, p));
  }
}

TEST(ExactBisection, SparsePlacementCanBeCheaperThanTheTorusBisection) {
  // With only two processors, splitting them apart needs far fewer links
  // than bisecting the whole torus — the paper's motivation for defining
  // bisection width *with respect to a placement*.
  Torus t(2, 4);
  const Placement p(t, {t.node_id(Coord{0, 0}), t.node_id(Coord{2, 2})},
                    "two");
  const auto result = exact_bisection(t, p);
  EXPECT_LE(result.directed_edges, 8);
  const auto full = exact_bisection(t, full_population(t));
  EXPECT_LT(result.directed_edges, full.directed_edges);
}

TEST(ExactBisection, SizeGuard) {
  Torus t(3, 3);  // 27 nodes > 24
  EXPECT_THROW(exact_bisection(t, full_population(t)), Error);
}

}  // namespace
}  // namespace tp
