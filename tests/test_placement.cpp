// Tests for placements (Definitions 2, 10; Section 5): sizes, membership,
// uniformity, and the equivalences the paper states.

#include <gtest/gtest.h>

#include <set>

#include "src/placement/layer_counts.h"
#include "src/placement/placement.h"
#include "src/placement/uniformity.h"
#include "src/util/error.h"

namespace tp {
namespace {

TEST(Placement, ConstructionDeduplicatesAndSorts) {
  Torus t(2, 3);
  Placement p(t, {4, 2, 4, 0}, "manual");
  EXPECT_EQ(p.size(), 3);
  EXPECT_EQ(p.nodes(), (std::vector<NodeId>{0, 2, 4}));
  EXPECT_TRUE(p.contains(2));
  EXPECT_FALSE(p.contains(1));
  EXPECT_EQ(p.name(), "manual");
}

TEST(Placement, RejectsForeignNodesAndTori) {
  Torus t(2, 3);
  EXPECT_THROW(Placement(t, {9}, "bad"), Error);
  Placement p(t, {0}, "ok");
  Torus other(2, 4);
  EXPECT_THROW(p.check_torus(other), Error);
}

TEST(LinearPlacement, SizeIsKToTheDMinus1) {
  for (i32 d = 1; d <= 4; ++d)
    for (i32 k = 2; k <= 6; ++k) {
      Torus t(d, k);
      EXPECT_EQ(linear_placement(t).size(), powi(k, d - 1))
          << "d=" << d << " k=" << k;
    }
}

TEST(LinearPlacement, MembersSatisfyTheEquation) {
  Torus t(3, 5);
  const i32 c = 2;
  Placement p = linear_placement(t, c);
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    i64 sum = 0;
    for (i32 d = 0; d < 3; ++d) sum += t.coord_of(n, d);
    EXPECT_EQ(p.contains(n), mod_norm(sum, 5) == c);
  }
}

TEST(LinearPlacement, ResidueClassesPartitionTheTorus) {
  Torus t(2, 4);
  std::set<NodeId> all;
  for (i32 c = 0; c < 4; ++c) {
    const Placement cls = linear_placement(t, c);
    for (NodeId n : cls.nodes()) EXPECT_TRUE(all.insert(n).second);
  }
  EXPECT_EQ(static_cast<i64>(all.size()), t.num_nodes());
}

TEST(LinearPlacement, GeneralCoefficients) {
  // Definition 10 with coefficients (1, 2) over Z_5: still k^{d-1} nodes
  // because coefficient 1 is coprime to 5.
  Torus t(2, 5);
  Placement p = linear_placement(t, SmallVec<i32>{1, 2}, 0);
  EXPECT_EQ(p.size(), 5);
  for (NodeId n : p.nodes())
    EXPECT_EQ(mod_norm(t.coord_of(n, 0) + 2 * t.coord_of(n, 1), 5), 0);
}

TEST(LinearPlacement, RequiresACoprimeCoefficient) {
  Torus t(2, 4);
  EXPECT_THROW(linear_placement(t, SmallVec<i32>{2, 2}, 0), Error);
  // (2, 3): 3 is coprime to 4, fine.
  EXPECT_EQ(linear_placement(t, SmallVec<i32>{2, 3}, 0).size(), 4);
}

TEST(LinearPlacement, RequiresUniformRadix) {
  Torus t(Radices{3, 4});
  EXPECT_THROW(linear_placement(t), Error);
}

TEST(LinearPlacement, IsUniform) {
  for (i32 d = 2; d <= 4; ++d) {
    Torus t(d, 4);
    EXPECT_TRUE(is_uniform(t, linear_placement(t))) << "d=" << d;
  }
}

TEST(MultipleLinearPlacement, SizeIsTTimesKToTheDMinus1) {
  Torus t(3, 4);
  for (i32 tt = 1; tt <= 4; ++tt)
    EXPECT_EQ(multiple_linear_placement(t, tt).size(), tt * 16);
}

TEST(MultipleLinearPlacement, IsUnionOfResidueClasses) {
  Torus t(2, 5);
  Placement p = multiple_linear_placement(t, 3);
  std::set<NodeId> expected;
  for (i32 c = 0; c < 3; ++c) {
    const Placement cls = linear_placement(t, c);
    expected.insert(cls.nodes().begin(), cls.nodes().end());
  }
  EXPECT_EQ(std::set<NodeId>(p.nodes().begin(), p.nodes().end()), expected);
}

TEST(MultipleLinearPlacement, TEqualsKIsFullPopulation) {
  Torus t(2, 4);
  EXPECT_EQ(multiple_linear_placement(t, 4).size(), t.num_nodes());
}

TEST(MultipleLinearPlacement, BoundsChecked) {
  Torus t(2, 4);
  EXPECT_THROW(multiple_linear_placement(t, 0), Error);
  EXPECT_THROW(multiple_linear_placement(t, 5), Error);
}

TEST(MultipleLinearPlacement, IsUniform) {
  Torus t(3, 4);
  for (i32 tt = 1; tt <= 3; ++tt)
    EXPECT_TRUE(is_uniform(t, multiple_linear_placement(t, tt)));
}

/// The served keys of small tori: d = 1..5, k = 2..25, t = 1..k, with at
/// most `max_nodes` nodes.
template <typename Fn>
void for_each_served_key(i64 max_nodes, Fn&& fn) {
  for (i32 d = 1; d <= 5; ++d)
    for (i32 k = 2; k <= 25; ++k) {
      const Torus torus(d, k);
      if (torus.num_nodes() > max_nodes) continue;
      for (i32 t = 1; t <= k; ++t) fn(torus, t);
    }
}

/// The definition, node by node: every node whose coordinate sum mod k is
/// below t, in id order.
std::vector<NodeId> multiple_linear_by_scan(const Torus& torus, i32 t) {
  std::vector<NodeId> nodes;
  for (NodeId n = 0; n < torus.num_nodes(); ++n) {
    i64 sum = 0;
    for (i32 j = 0; j < torus.dims(); ++j) sum += torus.coord_of(n, j);
    if (sum % torus.radix(0) < t) nodes.push_back(n);
  }
  return nodes;
}

TEST(MultipleLinearPlacement, RowByRowEqualsTheScanNodeForNode) {
  i64 keys = 0;
  for_each_served_key(20000, [&](const Torus& torus, i32 t) {
    SCOPED_TRACE(testing::Message() << "T" << torus.radix(0) << "^"
                                    << torus.dims() << " t=" << t);
    const Placement p = multiple_linear_placement(torus, t);
    ASSERT_EQ(p.nodes(), multiple_linear_by_scan(torus, t));
    EXPECT_EQ(p.name(), multiple_linear_name(t));
    for (i64 m = 0; m < p.size(); ++m)
      ASSERT_EQ(multiple_linear_node(torus, t, m),
                p.nodes()[static_cast<std::size_t>(m)])
          << "m=" << m;
    ++keys;
  });
  EXPECT_EQ(keys, 324 * 3 + 65 + 27);
  const Torus t(2, 4);
  EXPECT_THROW(multiple_linear_node(t, 2, 8), Error);
  EXPECT_THROW(multiple_linear_node(t, 5, 0), Error);
}

TEST(LayerCounts, ClosedFormsEqualTheScanOfEveryServedKey) {
  // |P|, every layer count and the two middle ids, for every served key
  // with N <= 10^5.
  i64 keys = 0;
  for_each_served_key(100000, [&](const Torus& torus, i32 t) {
    SCOPED_TRACE(testing::Message() << "T" << torus.radix(0) << "^"
                                    << torus.dims() << " t=" << t);
    const LayerCounts closed = multiple_linear_counts(torus, t);
    const LayerCounts scanned =
        layer_counts(torus, multiple_linear_placement(torus, t));
    EXPECT_EQ(closed.size, t * torus.num_nodes() / torus.radix(0));
    EXPECT_EQ(closed.layers, scanned.layers);
    EXPECT_EQ(closed.below_middle, scanned.below_middle);
    EXPECT_EQ(closed.middle, scanned.middle);
    EXPECT_TRUE(closed == scanned);
    ++keys;
  });
  EXPECT_EQ(keys, 324 * 3 + 152 + 54);
}

TEST(LayerCounts, ScanCountsEveryDimensionAndTheMiddle) {
  const Torus t(Radices{3, 4});
  const Placement p(t, {0, 1, 5, 11}, "four");  // (0,0) (0,1) (1,1) (2,3)
  const LayerCounts c = layer_counts(t, p);
  EXPECT_EQ(c.size, 4);
  EXPECT_EQ(c.layers, (std::vector<std::vector<i64>>{{2, 1, 1}, {1, 2, 0, 1}}));
  EXPECT_EQ(c.below_middle, 1);
  EXPECT_EQ(c.middle, 5);
  const LayerCounts single = layer_counts(t, Placement(t, {7}, "one"));
  EXPECT_EQ(single.size, 1);
  EXPECT_EQ(single.middle, 0);
}

TEST(ShiftedDiagonal, EquivalentToLinearPlacement) {
  // The paper notes the shifted diagonal placement of Blaum et al. is a
  // special case of linear placements.
  for (i32 d = 2; d <= 3; ++d)
    for (i32 k = 3; k <= 5; ++k) {
      Torus t(d, k);
      for (i32 shift = 0; shift < k; ++shift) {
        EXPECT_EQ(shifted_diagonal_placement(t, shift).nodes(),
                  linear_placement(t, shift).nodes())
            << "d=" << d << " k=" << k << " shift=" << shift;
      }
    }
}

TEST(FullPopulation, ContainsEveryNode) {
  Torus t(2, 4);
  Placement p = full_population(t);
  EXPECT_EQ(p.size(), t.num_nodes());
  for (NodeId n = 0; n < t.num_nodes(); ++n) EXPECT_TRUE(p.contains(n));
}

TEST(RandomPlacement, SizeAndDeterminism) {
  Torus t(3, 4);
  Placement a = random_placement(t, 10, 99);
  Placement b = random_placement(t, 10, 99);
  Placement c = random_placement(t, 10, 100);
  EXPECT_EQ(a.size(), 10);
  EXPECT_EQ(a.nodes(), b.nodes());
  EXPECT_NE(a.nodes(), c.nodes());  // overwhelmingly likely
}

TEST(RandomPlacement, CoversTheTorusAtFullSize) {
  Torus t(2, 3);
  EXPECT_EQ(random_placement(t, 9, 1).size(), 9);
  EXPECT_THROW(random_placement(t, 10, 1), Error);
}

TEST(ClusteredPlacement, TakesAPrefixOfNodeIds) {
  Torus t(2, 4);
  Placement p = clustered_placement(t, 5);
  EXPECT_EQ(p.nodes(), (std::vector<NodeId>{0, 1, 2, 3, 4}));
}

TEST(ClusteredPlacement, IsNotUniform) {
  Torus t(2, 4);
  EXPECT_FALSE(is_uniform(t, clustered_placement(t, 4)));
}

TEST(SubtorusPlacement, OneLayer) {
  Torus t(3, 4);
  Placement p = subtorus_placement(t, 1, 2);
  EXPECT_EQ(p.size(), 16);
  for (NodeId n : p.nodes()) EXPECT_EQ(t.coord_of(n, 1), 2);
  // Uniform along the other dimensions but not along dim 1.
  EXPECT_TRUE(is_uniform_along(t, p, 0));
  EXPECT_FALSE(is_uniform_along(t, p, 1));
  EXPECT_TRUE(is_uniform_along(t, p, 2));
}

TEST(Uniformity, SubtorusCountsSumToPlacementSize) {
  Torus t(3, 4);
  Placement p = random_placement(t, 20, 5);
  for (i32 d = 0; d < 3; ++d) {
    const auto counts = subtorus_counts(t, p, d);
    i64 sum = 0;
    for (i64 c : counts) sum += c;
    EXPECT_EQ(sum, p.size());
  }
}

TEST(Uniformity, UniformDimensionsOfLinearPlacement) {
  Torus t(3, 5);
  EXPECT_EQ(uniform_dimensions(t, linear_placement(t)).size(), 3u);
}

TEST(Uniformity, LinearPlacementLayerCounts) {
  // Each principal subtorus holds exactly k^{d-2} processors (the paper's
  // remark in Section 5).
  Torus t(3, 4);
  Placement p = linear_placement(t);
  for (i32 d = 0; d < 3; ++d)
    for (i64 c : subtorus_counts(t, p, d)) EXPECT_EQ(c, 4);
}

}  // namespace
}  // namespace tp
