#include "src/bisection/dimension_cut.h"

#include "src/placement/uniformity.h"
#include "src/torus/lattice.h"
#include "src/util/error.h"

namespace tp {

namespace {

/// The boundary pair along one dimension that balances the placement best.
struct LayerSplit {
  i32 dim = 0;
  i32 a = 0;  ///< side A = layers a+1..b
  i32 b = 0;
  i64 imbalance = -1;
  i64 width = 0;  ///< directed links removed: 4·N/k_dim
};

LayerSplit best_layer_split(const Torus& torus, const Placement& p, i32 dim) {
  const i32 k = torus.radix(dim);
  const auto layer = subtorus_counts(torus, p, dim);

  // Prefix sums over layers; processors in layers (a, b] (cyclically).
  std::vector<i64> prefix(static_cast<std::size_t>(k) + 1, 0);
  for (i32 v = 0; v < k; ++v)
    prefix[static_cast<std::size_t>(v) + 1] =
        prefix[static_cast<std::size_t>(v)] + layer[static_cast<std::size_t>(v)];
  const i64 total = prefix[static_cast<std::size_t>(k)];

  // Boundaries sit between layer b and b+1 (mod k).  Choosing boundaries
  // (a, b) with a < b puts layers a+1..b on side A.  Each boundary is N/k
  // wires whatever (a, b) is, so the cut removes 4·N/k directed links.
  LayerSplit best{dim, 0, 0, -1, 4 * (torus.num_nodes() / k)};
  for (i32 a = 0; a < k; ++a) {
    for (i32 b = a + 1; b < k; ++b) {
      const i64 in_a = prefix[static_cast<std::size_t>(b) + 1] -
                       prefix[static_cast<std::size_t>(a) + 1];
      const i64 imbalance =
          in_a * 2 > total ? in_a * 2 - total : total - in_a * 2;
      if (best.imbalance < 0 || imbalance < best.imbalance) {
        best.imbalance = imbalance;
        best.a = a;
        best.b = b;
      }
    }
  }
  TP_ASSERT(best.imbalance >= 0, "no boundary pair found");
  return best;
}

DimensionCutResult cut_along(const Torus& torus, const LayerSplit& s) {
  std::vector<bool> side(static_cast<std::size_t>(torus.num_nodes()), false);
  Lattice(torus).for_each_pos_link(s.dim, [&](NodeId n, NodeId, i32 v) {
    side[static_cast<std::size_t>(n)] = v > s.a && v <= s.b;
  });
  return {Cut(torus, std::move(side)), s.dim, s.a, s.b, s.width, s.imbalance};
}

}  // namespace

DimensionCutResult dimension_cut(const Torus& torus, const Placement& p,
                                 i32 dim) {
  p.check_torus(torus);
  TP_REQUIRE(dim >= 0 && dim < torus.dims(), "dimension out of range");
  return cut_along(torus, best_layer_split(torus, p, dim));
}

DimensionCutResult best_dimension_cut(const Torus& torus, const Placement& p) {
  p.check_torus(torus);
  LayerSplit best;
  for (i32 dim = 0; dim < torus.dims(); ++dim) {
    const LayerSplit s = best_layer_split(torus, p, dim);
    if (best.imbalance < 0 || s.imbalance < best.imbalance ||
        (s.imbalance == best.imbalance && s.width < best.width))
      best = s;
  }
  return cut_along(torus, best);
}

}  // namespace tp
