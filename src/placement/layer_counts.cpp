#include "src/placement/layer_counts.h"

#include <array>

#include "src/torus/lattice.h"
#include "src/util/error.h"

namespace tp {

namespace {

LayerCounts empty_counts(const Torus& torus) {
  LayerCounts c;
  c.layers.reserve(static_cast<std::size_t>(torus.dims()));
  for (i32 j = 0; j < torus.dims(); ++j)
    c.layers.emplace_back(static_cast<std::size_t>(torus.radix(j)), 0);
  return c;
}

}  // namespace

LayerCounts layer_counts(const Torus& torus, const Placement& p) {
  p.check_torus(torus);
  LayerCounts c = empty_counts(torus);
  c.size = p.size();
  const Lattice lat(torus);
  std::array<i32, kMaxDims> x{};
  for (const NodeId n : p.nodes()) {
    lat.decode(n, x.data());
    for (std::size_t j = 0; j < lat.d; ++j)
      ++c.layers[j][static_cast<std::size_t>(x[j])];
  }
  if (c.size >= 2) {
    const auto m = static_cast<std::size_t>(c.size / 2);
    c.below_middle = p.nodes()[m - 1];
    c.middle = p.nodes()[m];
  }
  return c;
}

LayerCounts multiple_linear_counts(const Torus& torus, i32 t) {
  TP_REQUIRE(torus.is_uniform_radix(),
             "multiple linear placements require a uniform-radix torus");
  const i32 d = torus.dims();
  const i32 k = torus.radix(0);
  TP_REQUIRE(t >= 1 && t <= k, "t must be in [1, k]");
  LayerCounts c = empty_counts(torus);
  c.size = t * powi(k, d - 1);
  for (std::vector<i64>& layer : c.layers) {
    if (d == 1) {
      for (i32 v = 0; v < t; ++v) layer[static_cast<std::size_t>(v)] = 1;
    } else {
      for (i64& n : layer) n = t * powi(k, d - 2);
    }
  }
  if (c.size >= 2) {
    c.below_middle = multiple_linear_node(torus, t, c.size / 2 - 1);
    c.middle = multiple_linear_node(torus, t, c.size / 2);
  }
  return c;
}

}  // namespace tp
