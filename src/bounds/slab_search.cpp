#include "src/bounds/slab_search.h"

#include "src/load/formulas.h"
#include "src/util/error.h"

namespace tp {

SlabBound best_slab_bound(const Torus& torus, const Placement& p) {
  return best_slab_bound(torus, layer_counts(torus, p));
}

SlabBound best_slab_bound(const Torus& torus, const LayerCounts& counts) {
  TP_REQUIRE(counts.size >= 2, "need at least two processors");
  SlabBound best;
  for (i32 dim = 0; dim < torus.dims(); ++dim) {
    const i32 k = torus.radix(dim);
    const std::vector<i64>& layer =
        counts.layers[static_cast<std::size_t>(dim)];
    // A slab of any width along dim has the same boundary: the two layer
    // boundaries, each N/k wires = 2·N/k directed links.
    const i64 boundary = 4 * (torus.num_nodes() / k);
    // Prefix sums (doubled for cyclic windows).
    std::vector<i64> prefix(static_cast<std::size_t>(2 * k) + 1, 0);
    for (i32 i = 0; i < 2 * k; ++i)
      prefix[static_cast<std::size_t>(i) + 1] =
          prefix[static_cast<std::size_t>(i)] +
          layer[static_cast<std::size_t>(i % k)];
    for (i32 lo = 0; lo < k; ++lo) {
      for (i32 len = 1; len < k; ++len) {
        const i64 inside = prefix[static_cast<std::size_t>(lo + len)] -
                           prefix[static_cast<std::size_t>(lo)];
        if (inside == 0 || inside == counts.size) continue;
        const double value =
            separator_lower_bound(inside, counts.size, boundary);
        if (value > best.value) {
          best = SlabBound{value, dim, lo, len, inside, boundary};
        }
      }
    }
  }
  return best;
}

}  // namespace tp
