// Property sweep over torus *shapes*, including the edge cases the other
// suites do not reach: radix 2 (every correction is a tie; the two
// directed links to a neighbor are parallel wires), strongly unequal
// radices, and single dimensions.
//
//   S1  structural invariants (counts, round trips, involutions)
//   S2  BFS distance == Lee distance
//   S3  analyzers equal the Definition 4 oracle bit for bit
//   S4  conservation for ODR and UDR
//   S5  Theorem 1 cut on the natural diagonal placement

#include <gtest/gtest.h>

#include "src/bisection/dimension_cut.h"
#include "src/load/complete_exchange.h"
#include "src/load/formulas.h"
#include "src/placement/modular.h"
#include "src/placement/uniformity.h"
#include "src/routing/odr.h"
#include "src/routing/udr.h"
#include "src/torus/graph.h"

namespace tp {
namespace {

class ShapeSweep : public ::testing::TestWithParam<Radices> {
 protected:
  Placement natural_placement(const Torus& t) const {
    // The mixed-radix diagonal anchored on the last dimension: defined for
    // every shape, uniform along the non-anchor dimensions.
    return diagonal_placement_mixed(t, t.dims() - 1);
  }
};

TEST_P(ShapeSweep, S1_Structure) {
  Torus t(GetParam());
  EXPECT_EQ(t.num_directed_edges(), t.num_nodes() * 2 * t.dims());
  for (NodeId n = 0; n < t.num_nodes(); ++n)
    EXPECT_EQ(t.node_id(t.coord(n)), n);
  for (EdgeId e = 0; e < t.num_directed_edges(); ++e) {
    EXPECT_EQ(t.reverse_edge(t.reverse_edge(e)), e);
    const Link l = t.link(e);
    EXPECT_EQ(t.edge_id(l.tail, l.dim, l.dir), e);
  }
}

TEST_P(ShapeSweep, S2_BfsMatchesLee) {
  Torus t(GetParam());
  const auto dist = bfs_distances(t, 0);
  for (NodeId n = 0; n < t.num_nodes(); ++n)
    EXPECT_EQ(dist[static_cast<std::size_t>(n)], t.lee_distance(0, n));
}

TEST_P(ShapeSweep, S3_AnalyzersMatchOracle) {
  Torus t(GetParam());
  const Placement p = natural_placement(t);
  if (p.size() > 16) return;  // keep the oracle affordable
  EXPECT_EQ(odr_loads(t, p).raw(), reference_loads(t, p, OdrRouter()).raw());
  EXPECT_EQ(udr_loads(t, p).raw(), reference_loads(t, p, UdrRouter()).raw());
}

TEST_P(ShapeSweep, S4_Conservation) {
  Torus t(GetParam());
  const Placement p = natural_placement(t);
  const double expected = expected_total_load(t, p);
  EXPECT_NEAR(odr_loads(t, p).total_load(), expected,
              1e-9 + 1e-12 * expected);
  EXPECT_NEAR(udr_loads(t, p).total_load(), expected,
              1e-9 + 1e-12 * expected);
}

TEST_P(ShapeSweep, S5_DimensionCutBalancesWhenUniform) {
  Torus t(GetParam());
  if (t.dims() < 2) return;
  const Placement p = natural_placement(t);
  const auto cut = best_dimension_cut(t, p);
  // A dimension with an even layer count and uniform distribution exists
  // for all shapes in this sweep except all-odd ones; in every case the
  // two-boundary construction gets within one layer of balance.
  i64 min_layer = t.num_nodes();
  for (i32 dim = 0; dim < t.dims(); ++dim)
    if (is_uniform_along(t, p, dim))
      min_layer = std::min(min_layer, p.size() / t.radix(dim));
  EXPECT_LE(cut.imbalance, min_layer);
}

std::string shape_name(const ::testing::TestParamInfo<Radices>& info) {
  std::string name = "shape";
  for (std::size_t i = 0; i < info.param.size(); ++i) {
    name += "_";
    name += std::to_string(info.param[i]);
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShapeSweep,
    ::testing::Values(Radices{2}, Radices{5}, Radices{2, 2}, Radices{2, 5},
                      Radices{3, 4}, Radices{4, 6}, Radices{2, 3, 4},
                      Radices{2, 2, 2}, Radices{3, 3, 2}, Radices{5, 2, 3},
                      Radices{2, 2, 2, 2}, Radices{3, 2, 2, 3}),
    shape_name);

TEST(Radix2, LinearPlacementAndLoadsWork) {
  // The all-ones linear placement on T_2^d: every correction is a tie,
  // every neighbor is reached by two parallel wires.
  Torus t(3, 2);
  const Placement p = linear_placement(t);
  EXPECT_EQ(p.size(), 4);
  EXPECT_TRUE(is_uniform(t, p));
  EXPECT_DOUBLE_EQ(odr_loads(t, p).max_load(), 2.0);
  EXPECT_DOUBLE_EQ(udr_loads(t, p).max_load(), 1.0);
  const auto cut = best_dimension_cut(t, p);
  EXPECT_EQ(cut.directed_edges, uniform_bisection_width(2, 3));
  EXPECT_EQ(cut.imbalance, 0);
}

}  // namespace
}  // namespace tp
