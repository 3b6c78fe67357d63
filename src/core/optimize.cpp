#include "src/core/optimize.h"

#include <cmath>
#include <numeric>

#include "src/util/error.h"
#include "src/util/prng.h"

namespace tp {

namespace {

double emax_of(const Torus& torus, const std::vector<NodeId>& nodes,
               RouterKind kind) {
  const Placement p(torus, nodes, "candidate");
  return measure_loads(torus, p, kind).max_load();
}

}  // namespace

SearchResult exhaustive_best_placement(const Torus& torus, i64 size,
                                       RouterKind kind,
                                       i64 max_candidates) {
  TP_REQUIRE(size >= 2 && size <= torus.num_nodes(),
             "placement size out of range");
  TP_REQUIRE(saturating_binomial(torus.num_nodes(), size) <= max_candidates,
             "too many candidate placements to enumerate");

  const i64 n = torus.num_nodes();
  std::vector<NodeId> pick(static_cast<std::size_t>(size));
  std::iota(pick.begin(), pick.end(), NodeId{0});

  std::vector<NodeId> best_nodes = pick;
  double best = emax_of(torus, pick, kind);
  i64 evaluated = 1;

  // Lexicographic combination enumeration.
  const auto m = static_cast<std::size_t>(size);
  for (;;) {
    // Advance to the next combination.
    std::size_t i = m;
    while (i > 0) {
      --i;
      if (pick[i] < n - static_cast<i64>(m - i)) break;
      if (i == 0) {
        SearchResult result{
            Placement(torus, best_nodes, "exhaustive_best"), best,
            evaluated};
        return result;
      }
    }
    ++pick[i];
    for (std::size_t j = i + 1; j < m; ++j) pick[j] = pick[j - 1] + 1;

    const double emax = emax_of(torus, pick, kind);
    ++evaluated;
    if (emax < best) {
      best = emax;
      best_nodes = pick;
    }
  }
}

SearchResult anneal_placement(const Torus& torus, i64 size, RouterKind kind,
                              i64 iterations, u64 seed) {
  TP_REQUIRE(size >= 2 && size <= torus.num_nodes(),
             "placement size out of range");
  TP_REQUIRE(iterations >= 1, "need at least one iteration");
  Xoshiro256SS rng(seed);

  // Random initial subset via partial shuffle.
  std::vector<NodeId> all(static_cast<std::size_t>(torus.num_nodes()));
  std::iota(all.begin(), all.end(), NodeId{0});
  for (i64 i = 0; i < size; ++i) {
    const auto j = static_cast<std::size_t>(i) +
                   static_cast<std::size_t>(rng.below(
                       static_cast<u64>(torus.num_nodes() - i)));
    std::swap(all[static_cast<std::size_t>(i)], all[j]);
  }
  // all[0..size) = current placement, all[size..) = empty nodes.
  double current = emax_of(
      torus, std::vector<NodeId>(all.begin(), all.begin() + size), kind);
  std::vector<NodeId> best_nodes(all.begin(), all.begin() + size);
  double best = current;
  i64 evaluated = 1;

  // Geometric cooling from T0 to T1 across the iteration budget.
  const double t0 = std::max(1.0, current * 0.25);
  const double t1 = 0.01;
  const double decay =
      std::pow(t1 / t0, 1.0 / static_cast<double>(iterations));
  double temperature = t0;

  for (i64 it = 0; it < iterations; ++it) {
    const auto inside = static_cast<std::size_t>(rng.below(
        static_cast<u64>(size)));
    const auto outside =
        static_cast<std::size_t>(size) +
        static_cast<std::size_t>(rng.below(
            static_cast<u64>(torus.num_nodes() - size)));
    std::swap(all[inside], all[outside]);
    const double candidate = emax_of(
        torus, std::vector<NodeId>(all.begin(), all.begin() + size), kind);
    ++evaluated;
    const double delta = candidate - current;
    if (delta <= 0.0 ||
        rng.uniform() < std::exp(-delta / temperature)) {
      current = candidate;
      if (current < best) {
        best = current;
        best_nodes.assign(all.begin(), all.begin() + size);
      }
    } else {
      std::swap(all[inside], all[outside]);  // reject the move
    }
    temperature *= decay;
  }
  SearchResult result{Placement(torus, std::move(best_nodes), "annealed"),
                      best, evaluated};
  return result;
}

}  // namespace tp
