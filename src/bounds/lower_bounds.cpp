#include "src/bounds/lower_bounds.h"

#include <algorithm>
#include <utility>

#include "src/bisection/dimension_cut.h"
#include "src/bisection/hyperplane_sweep.h"
#include "src/load/formulas.h"
#include "src/placement/uniformity.h"
#include "src/util/error.h"

namespace tp {

BoundValue blaum_bound(const Torus& torus, const Placement& p) {
  p.check_torus(torus);
  if (p.size() < 2) return {"blaum", 0.0, true, "trivial for |P| < 2"};
  return {"blaum", blaum_lower_bound(p.size(), torus.dims()), true, ""};
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
  p.check_torus(torus);
  if (p.size() < 2) return {"bisection", 0.0, true, "trivial for |P| < 2"};
  const auto dim_cut = best_dimension_cut(torus, p);
  i64 width;
  std::string note;
  if (dim_cut.imbalance <= 1) {
    width = dim_cut.directed_edges;
    note = "dimension cut (Theorem 1)";
  } else {
    const auto sweep = hyperplane_sweep_bisection(torus, p);
    width = sweep.directed_edges;
    note = "hyperplane sweep (Proposition 1)";
  }
  return {"bisection", bisection_lower_bound(p.size(), width), true, note};
}

BoundValue improved_bound(const Torus& torus, const Placement& p) {
  p.check_torus(torus);
  if (!torus.is_uniform_radix())
    return {"improved", 0.0, false, "needs uniform radix"};
  if (uniform_dimensions(torus, p).empty())
    return {"improved", 0.0, false,
            "placement not uniform along any dimension"};
  const i32 k = torus.radix(0);
  const i32 d = torus.dims();
  const double c = static_cast<double>(p.size()) /
                   static_cast<double>(powi(k, d - 1));
  return {"improved", improved_lower_bound(c, k, d), true,
          "c = " + std::to_string(c)};
}

std::vector<BoundValue> all_bounds(const Torus& torus, const Placement& p) {
  std::vector<BoundValue> bounds;
  bounds.push_back(blaum_bound(torus, p));
  bounds.push_back(bisection_bound(torus, p));
  bounds.push_back(improved_bound(torus, p));
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
