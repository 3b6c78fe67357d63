#include "src/bisection/dimension_cut.h"

#include <algorithm>

#include "src/torus/lattice.h"
#include "src/util/error.h"

namespace tp {

LayerSplit best_layer_split(const Torus& torus, const LayerCounts& counts,
                            i32 dim) {
  TP_REQUIRE(dim >= 0 && dim < torus.dims(), "dimension out of range");
  const i32 k = torus.radix(dim);
  const std::vector<i64>& layer = counts.layers[static_cast<std::size_t>(dim)];

  // Prefix sums over layers; processors in layers (a, b] (cyclically).
  std::vector<i64> prefix(static_cast<std::size_t>(k) + 1, 0);
  for (i32 v = 0; v < k; ++v)
    prefix[static_cast<std::size_t>(v) + 1] =
        prefix[static_cast<std::size_t>(v)] + layer[static_cast<std::size_t>(v)];
  const i64 total = prefix[static_cast<std::size_t>(k)];

  // Boundaries sit between layer b and b+1 (mod k).  Choosing boundaries
  // (a, b) with a < b puts layers a+1..b on side A.  Each boundary is N/k
  // wires whatever (a, b) is, so the cut removes 4·N/k directed links.
  //
  // Side A holds prefix[j] - prefix[i] processors for i = a+1, j = b+1.
  // For each i that count only grows with j, so the least imbalance is at
  // `up`, the first j with side A at least half, or at the start of the
  // run of j just before it (equal counts, below half); taking the run's
  // start keeps the first pair in (a, b) order among equals.  Both only
  // move right as i grows, so one pass finds every i's best pair.
  const auto layers = static_cast<std::size_t>(k);
  LayerSplit best{dim, 0, 0, -1, 4 * (torus.num_nodes() / k)};
  std::size_t up = 0;
  std::size_t run = 0;
  for (std::size_t i = 1; i < layers; ++i) {
    const i64 base = prefix[i];
    up = std::max(up, i + 1);
    while (up <= layers && 2 * (prefix[up] - base) < total) ++up;
    std::size_t j = up;
    i64 imbalance = up <= layers ? 2 * (prefix[up] - base) - total : -1;
    if (up - 1 > i) {
      const i64 below = total - 2 * (prefix[up - 1] - base);
      if (imbalance < 0 || below <= imbalance) {
        run = std::max(run, i + 1);
        while (prefix[run] < prefix[up - 1]) ++run;
        j = run;
        imbalance = below;
      }
    }
    if (best.imbalance < 0 || imbalance < best.imbalance) {
      best.imbalance = imbalance;
      best.a = static_cast<i32>(i) - 1;
      best.b = static_cast<i32>(j) - 1;
    }
  }
  TP_ASSERT(best.imbalance >= 0, "no boundary pair found");
  return best;
}

LayerSplit best_layer_split(const Torus& torus, const LayerCounts& counts) {
  LayerSplit best;
  for (i32 dim = 0; dim < torus.dims(); ++dim) {
    const LayerSplit s = best_layer_split(torus, counts, dim);
    if (best.imbalance < 0 || s.imbalance < best.imbalance ||
        (s.imbalance == best.imbalance && s.width < best.width))
      best = s;
  }
  return best;
}

namespace {

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
  return cut_along(torus, best_layer_split(torus, layer_counts(torus, p), dim));
}

DimensionCutResult best_dimension_cut(const Torus& torus, const Placement& p) {
  return cut_along(torus, best_layer_split(torus, layer_counts(torus, p)));
}

PrefixCut middle_prefix_cut(const Torus& torus, const LayerCounts& counts) {
  TP_REQUIRE(counts.size >= 2, "need at least two processors");
  const NodeId lo = counts.below_middle;
  const NodeId hi = counts.middle;
  TP_REQUIRE(lo < hi && hi < torus.num_nodes(), "middle ids out of order");
  // The coarsest stride with a multiple in (lo, hi]; stride 1 always has.
  const Lattice lat(torus);
  NodeId r = hi;
  for (std::size_t j = 0; j < lat.d; ++j) {
    const NodeId multiple = hi / lat.stride[j] * lat.stride[j];
    if (multiple > lo) {
      r = multiple;
      break;
    }
  }
  return {r, prefix_cut_width(torus, r)};
}

i64 prefix_cut_width(const Torus& torus, NodeId r) {
  TP_REQUIRE(r > 0 && r < torus.num_nodes(), "prefix must be a proper cut");
  // A line along dimension j crosses (two wires) iff A takes some but not
  // all of it, which happens only on the lines through r's own layer
  // (the digits before j equal r's): those with low digits below R_j hold
  // r_j + 1 nodes of A, the other stride_j - R_j lines hold r_j.
  const Lattice lat(torus);
  i64 wires = 0;
  for (std::size_t j = 0; j < lat.d; ++j) {
    const i64 digit = r / lat.stride[j] % lat.radix[j];
    const i64 low = r % lat.stride[j];
    if (digit < lat.radix[j] - 1) wires += 2 * low;
    if (digit >= 1) wires += 2 * (lat.stride[j] - low);
  }
  return 2 * wires;
}

}  // namespace tp
