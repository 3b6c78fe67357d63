#include "src/bounds/lower_bounds.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "src/bisection/cut.h"
#include "src/bisection/dimension_cut.h"
#include "src/load/formulas.h"
#include "src/util/error.h"

namespace tp {

namespace {

BoundValue blaum_of(i64 size, i32 d) {
  if (size < 2) return {"blaum", 0.0, true, "trivial for |P| < 2"};
  return {"blaum", blaum_lower_bound(size, d), true, ""};
}

}  // namespace

BoundValue blaum_bound(const Torus& torus, const Placement& p) {
  p.check_torus(torus);
  return blaum_of(p.size(), torus.dims());
}

BoundValue separator_bound(const Torus& torus, const Placement& p,
                           const std::vector<NodeId>& subset) {
  p.check_torus(torus);
  // |dS|: directed links with exactly one endpoint in the node subset.
  std::vector<bool> in_s(static_cast<std::size_t>(torus.num_nodes()), false);
  i64 procs_in_s = 0;
  for (NodeId n : subset) {
    TP_REQUIRE(torus.valid_node(n), "subset node out of range");
    if (!in_s[static_cast<std::size_t>(n)]) {
      in_s[static_cast<std::size_t>(n)] = true;
      if (p.contains(n)) ++procs_in_s;
    }
  }
  const i64 boundary = Cut(torus, std::move(in_s)).directed_cut_size(torus);
  if (boundary == 0)
    return {"separator", 0.0, false, "subset has empty boundary"};
  return {"separator",
          separator_lower_bound(procs_in_s, p.size(), boundary), true, ""};
}

BoundValue bisection_bound(const Torus& torus, const Placement& p) {
  return bisection_bound(torus, layer_counts(torus, p));
}

BoundValue bisection_bound(const Torus& torus, const LayerCounts& counts) {
  if (counts.size < 2)
    return {"bisection", 0.0, true, "trivial for |P| < 2"};
  // Both cuts put ⌊|P|/2⌋ or ⌈|P|/2⌉ processors on a side, and Lemma 1
  // gives the same value for either.
  const i64 half = counts.size / 2;
  const LayerSplit split = best_layer_split(torus, counts);
  if (split.imbalance <= 1)
    return {"bisection", separator_lower_bound(half, counts.size, split.width),
            true, "dimension cut (Theorem 1)"};
  const PrefixCut cut = middle_prefix_cut(torus, counts);
  return {"bisection",
          separator_lower_bound(half, counts.size, cut.directed_edges), true,
          "layer prefix cut (whole layers, then part of one)"};
}

BoundValue improved_bound(const Torus& torus, const Placement& p) {
  return improved_bound(torus, layer_counts(torus, p));
}

BoundValue improved_bound(const Torus& torus, const LayerCounts& counts) {
  if (!torus.is_uniform_radix())
    return {"improved", 0.0, false, "needs uniform radix"};
  const bool uniform_somewhere =
      std::any_of(counts.layers.begin(), counts.layers.end(),
                  [](const std::vector<i64>& layer) {
                    return std::adjacent_find(layer.begin(), layer.end(),
                                              std::not_equal_to<>()) ==
                           layer.end();
                  });
  if (!uniform_somewhere)
    return {"improved", 0.0, false,
            "placement not uniform along any dimension"};
  const i32 k = torus.radix(0);
  const i32 d = torus.dims();
  const double c = static_cast<double>(counts.size) /
                   static_cast<double>(powi(k, d - 1));
  return {"improved", improved_lower_bound(c, k, d), true,
          "c = " + std::to_string(c)};
}

std::vector<BoundValue> all_bounds(const Torus& torus, const Placement& p) {
  return all_bounds(torus, layer_counts(torus, p));
}

std::vector<BoundValue> all_bounds(const Torus& torus,
                                   const LayerCounts& counts) {
  std::vector<BoundValue> bounds;
  bounds.push_back(blaum_of(counts.size, torus.dims()));
  bounds.push_back(bisection_bound(torus, counts));
  bounds.push_back(improved_bound(torus, counts));
  double best = 0.0;
  for (const auto& b : bounds)
    if (b.applicable) best = std::max(best, b.value);
  bounds.push_back({"best", best, true, "max of applicable bounds"});
  return bounds;
}

double best_lower_bound(const Torus& torus, const Placement& p) {
  return all_bounds(torus, p).back().value;
}

}  // namespace tp
