#include "src/simulate/fault.h"

#include <string>
#include <vector>

#include "src/routing/fault_router.h"
#include "src/util/error.h"
#include "src/util/parallel.h"
#include "src/util/prng.h"

namespace tp {

EdgeSet sample_wire_faults(const Torus& torus, i64 count, u64 seed) {
  TP_REQUIRE(count >= 0, "fault count must be non-negative, got " +
                             std::to_string(count));
  TP_REQUIRE(count <= torus.num_undirected_edges(),
             "cannot fail " + std::to_string(count) +
                 " wires: the torus has only " +
                 std::to_string(torus.num_undirected_edges()) + " wires");
  // Collect canonical wire ids, then partially shuffle.
  std::vector<EdgeId> wires;
  wires.reserve(static_cast<std::size_t>(torus.num_undirected_edges()));
  for (EdgeId e = 0; e < torus.num_directed_edges(); ++e)
    if (torus.undirected_id(e) == e) wires.push_back(e);

  Xoshiro256SS rng(seed);
  EdgeSet faults(torus);
  for (i64 i = 0; i < count; ++i) {
    const auto j = static_cast<std::size_t>(i) +
                   static_cast<std::size_t>(rng.below(
                       static_cast<u64>(wires.size() - static_cast<std::size_t>(i))));
    std::swap(wires[static_cast<std::size_t>(i)], wires[j]);
    const EdgeId e = wires[static_cast<std::size_t>(i)];
    faults.insert(e);
    faults.insert(torus.reverse_edge(e));
  }
  return faults;
}

i64 count_unroutable_pairs(const Torus& torus, const Placement& p,
                           const Router& router, const EdgeSet& faults,
                           i32 threads) {
  p.check_torus(torus);
  TP_REQUIRE(threads >= 1, "need at least one thread");
  const std::vector<NodeId>& nodes = p.nodes();
  const i64 n = p.size();

  // The ordered pairs decompose perfectly over a flat [0, n*n) index
  // space; each worker tallies its own block and the reduction below adds
  // the per-worker counts in worker order, so the result is exact and
  // identical for every thread count.
  const i32 workers =
      static_cast<i32>(std::min<i64>(threads, std::max<i64>(n, 1)));
  const FaultTolerantRouter fault_free(router, faults);
  std::vector<i64> tally(static_cast<std::size_t>(workers), 0);
  parallel_for_blocks(n * n, workers, [&](i32 worker, i64 begin, i64 end) {
    i64 bad = 0;
    for (i64 i = begin; i < end; ++i) {
      const NodeId src = nodes[static_cast<std::size_t>(i / n)];
      const NodeId dst = nodes[static_cast<std::size_t>(i % n)];
      if (src == dst) continue;
      if (fault_free.paths(torus, src, dst).empty()) ++bad;
    }
    tally[static_cast<std::size_t>(worker)] = bad;
  });

  i64 unroutable = 0;
  for (i64 bad : tally) unroutable += bad;
  return unroutable;
}

double routable_pair_fraction(const Torus& torus, const Placement& p,
                              const Router& router, const EdgeSet& faults,
                              i32 threads) {
  const i64 pairs = p.size() * (p.size() - 1);
  if (pairs == 0) return 1.0;
  const i64 bad = count_unroutable_pairs(torus, p, router, faults, threads);
  return 1.0 - static_cast<double>(bad) / static_cast<double>(pairs);
}

}  // namespace tp
