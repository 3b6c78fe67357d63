#include "src/bisection/exact_bisection.h"

#include <vector>

#include "src/torus/lattice.h"
#include "src/util/error.h"

namespace tp {

ExactBisectionResult exact_bisection(const Torus& torus, const Placement& p) {
  p.check_torus(torus);
  const i64 n = torus.num_nodes();
  TP_REQUIRE(n <= 24, "exact bisection limited to 24 nodes");
  TP_REQUIRE(p.size() >= 1, "cannot bisect an empty placement");

  // Precompute undirected adjacency as (u, v) wire list with multiplicity
  // (radix-2 dimensions have parallel wires): one wire per + link.
  struct Wire {
    i32 u, v;
  };
  std::vector<Wire> wires;
  const Lattice lat(torus);
  for (i32 dim = 0; dim < torus.dims(); ++dim)
    lat.for_each_pos_link(dim, [&](NodeId tail, NodeId up, i32) {
      wires.push_back({static_cast<i32>(tail), static_cast<i32>(up)});
    });

  std::uint32_t proc_mask = 0;
  for (NodeId node : p.nodes()) proc_mask |= (1u << node);
  const int proc_count = static_cast<int>(p.size());

  i64 best_cut = -1;
  std::uint32_t best_mask = 0;
  // Fix node 0 on side A to halve the search space.
  const std::uint32_t limit = 1u << (n - 1);
  for (std::uint32_t half_mask = 0; half_mask < limit; ++half_mask) {
    const std::uint32_t mask = half_mask << 1;  // node 0 stays on side A
    const int in_b = __builtin_popcount(mask & proc_mask);
    const int in_a = proc_count - in_b;
    if (in_a - in_b > 1 || in_b - in_a > 1) continue;
    i64 cut = 0;
    for (const Wire& w : wires)
      cut += (((mask >> w.u) ^ (mask >> w.v)) & 1u) ? 2 : 0;  // directed
    if (best_cut < 0 || cut < best_cut) {
      best_cut = cut;
      best_mask = mask;
    }
  }
  TP_ASSERT(best_cut >= 0, "no balanced partition found");

  std::vector<bool> side(static_cast<std::size_t>(n), false);
  for (i64 i = 0; i < n; ++i)
    side[static_cast<std::size_t>(i)] = ((best_mask >> i) & 1u) != 0;
  ExactBisectionResult result{Cut(torus, std::move(side)), best_cut};
  return result;
}

}  // namespace tp
