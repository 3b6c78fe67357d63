#include "src/bisection/hyperplane_sweep.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <vector>

#include "src/torus/lattice.h"
#include "src/util/error.h"

namespace tp {

long double default_gamma(i32 dims) {
  TP_REQUIRE(dims >= 1, "dimension out of range");
  if (dims == 1) return 1.0L;  // unused: d=1 sweep is a plain coordinate sort
  const long double hi =
      std::pow(2.0L, 1.0L / static_cast<long double>(dims - 1));
  // Midpoint nudged by an irrational fraction of the interval so the
  // powers 1, γ, ..., γ^{d-1} stay rationally independent in practice.
  const long double frac = 0.5L + 0.1L * (std::numbers::pi_v<long double> - 3.0L);
  return 1.0L + (hi - 1.0L) * frac;
}

namespace {

struct Scored {
  long double score;
  NodeId node;
};

/// Scores every node by the (unnormalized) sweep direction; returns false
/// if two nodes collide (γ not generic enough for this torus).
bool score_nodes(const Lattice& lat, long double gamma,
                 std::vector<Scored>& out) {
  std::array<long double, kMaxDims> weight{};
  weight[0] = 1.0L;
  for (std::size_t i = 1; i < lat.d; ++i) weight[i] = weight[i - 1] * gamma;

  out.clear();
  out.reserve(static_cast<std::size_t>(lat.num_nodes));
  lat.for_each_node([&](NodeId n, const i32* c) {
    long double s = 0.0L;
    for (std::size_t i = 0; i < lat.d; ++i) s += weight[i] * c[i];
    out.push_back({s, n});
  });
  std::sort(out.begin(), out.end(), [](const Scored& a, const Scored& b) {
    return a.score < b.score;
  });
  for (std::size_t i = 1; i < out.size(); ++i)
    if (out[i].score == out[i - 1].score) return false;
  return true;
}

}  // namespace

SweepResult hyperplane_sweep_bisection(const Torus& torus,
                                       const Placement& p) {
  p.check_torus(torus);
  TP_REQUIRE(p.size() >= 1, "cannot bisect an empty placement");

  const Lattice lat(torus);
  std::vector<Scored> scored;
  long double gamma = default_gamma(torus.dims());
  bool ok = false;
  for (int attempt = 0; attempt < 8 && !ok; ++attempt) {
    ok = score_nodes(lat, gamma, scored);
    if (!ok) gamma += 1e-7L * static_cast<long double>(attempt + 1);
  }
  TP_REQUIRE(ok, "no collision-free sweep direction found");

  // Sweep: stop once side A holds floor(|P|/2) processors.
  const i64 half = p.size() / 2;
  std::vector<bool> side(static_cast<std::size_t>(torus.num_nodes()), true);
  i64 seen = 0;
  for (const Scored& s : scored) {
    if (seen == half) break;
    side[static_cast<std::size_t>(s.node)] = false;  // side A
    if (p.contains(s.node)) ++seen;
  }
  TP_ASSERT(seen == half, "sweep failed to collect half of the placement");

  // Classify each crossed wire as an array edge or a torus wrap edge: the
  // wire from layer k-1 back to layer 0 wraps, unless k = 2, where both
  // wires join adjacent layers.
  i64 array = 0, wrap = 0;
  for (i32 dim = 0; dim < torus.dims(); ++dim) {
    const i32 k = lat.radix[static_cast<std::size_t>(dim)];
    lat.for_each_pos_link(dim, [&](NodeId n, NodeId up, i32 v) {
      if (side[static_cast<std::size_t>(n)] ==
          side[static_cast<std::size_t>(up)])
        return;
      (v == k - 1 && k > 2 ? wrap : array) += 1;
    });
  }
  // Each crossed wire is crossed in both directions.
  return {Cut(torus, std::move(side)), array, wrap, 2 * (array + wrap), gamma};
}

}  // namespace tp
