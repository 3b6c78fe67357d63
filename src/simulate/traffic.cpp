#include "src/simulate/traffic.h"

#include "src/routing/fault_router.h"
#include "src/util/error.h"
#include "src/util/prng.h"

namespace tp {

namespace {

/// Draws a path for (p, q), honoring faults if present.  Returns false if
/// every allowed path is faulted.
bool draw_path(const Torus& torus, const Router& router, NodeId p, NodeId q,
               const EdgeSet* faults, Xoshiro256SS& rng, Path& out) {
  if (faults == nullptr) {
    out = router.sample_path(torus, p, q, rng);
    return true;
  }
  auto ok = FaultTolerantRouter(router, *faults).paths(torus, p, q);
  if (ok.empty()) return false;
  out = std::move(ok[rng.below(ok.size())]);
  return true;
}

}  // namespace

TrafficResult complete_exchange_traffic(const Torus& torus,
                                        const Placement& p,
                                        const Router& router, u64 seed,
                                        const EdgeSet* faults) {
  p.check_torus(torus);
  TrafficResult result;
  result.messages.reserve(
      static_cast<std::size_t>(p.size() * (p.size() - 1)));
  Xoshiro256SS rng(seed);
  for (NodeId src : p.nodes()) {
    for (NodeId dst : p.nodes()) {
      if (src == dst) continue;
      Path path;
      if (!draw_path(torus, router, src, dst, faults, rng, path)) {
        ++result.unroutable_pairs;
        continue;
      }
      result.messages.push_back(SimMessage{std::move(path), 0});
    }
  }
  return result;
}

TrafficResult hotspot_traffic(const Torus& torus, const Placement& p,
                              const Router& router, NodeId target, u64 seed,
                              const EdgeSet* faults) {
  p.check_torus(torus);
  TP_REQUIRE(p.contains(target), "hotspot target must carry a processor");
  TrafficResult result;
  Xoshiro256SS rng(seed);
  for (NodeId src : p.nodes()) {
    if (src == target) continue;
    Path path;
    if (!draw_path(torus, router, src, target, faults, rng, path)) {
      ++result.unroutable_pairs;
      continue;
    }
    result.messages.push_back(SimMessage{std::move(path), 0});
  }
  return result;
}

TrafficResult h_relation_traffic(const Torus& torus, const Placement& p,
                                 const Router& router, i64 h, u64 seed,
                                 const EdgeSet* faults) {
  p.check_torus(torus);
  TP_REQUIRE(h >= 0, "h must be non-negative");
  TP_REQUIRE(p.size() >= 2, "h-relation needs at least two processors");
  TrafficResult result;
  Xoshiro256SS rng(seed);
  const auto& nodes = p.nodes();
  for (NodeId src : nodes) {
    for (i64 i = 0; i < h; ++i) {
      // Uniform destination among the *other* processors.
      NodeId dst = src;
      while (dst == src)
        dst = nodes[rng.below(nodes.size())];
      Path path;
      if (!draw_path(torus, router, src, dst, faults, rng, path)) {
        ++result.unroutable_pairs;
        continue;
      }
      result.messages.push_back(SimMessage{std::move(path), 0});
    }
  }
  return result;
}

TrafficResult random_rate_traffic(const Torus& torus, const Placement& p,
                                  const Router& router, double rate,
                                  i64 horizon, u64 seed,
                                  const EdgeSet* faults) {
  p.check_torus(torus);
  TP_REQUIRE(rate >= 0.0 && rate <= 1.0, "rate must be in [0, 1]");
  TP_REQUIRE(horizon >= 1, "horizon must be >= 1");
  TP_REQUIRE(p.size() >= 2, "need at least two processors");
  TrafficResult result;
  Xoshiro256SS rng(seed);
  const auto& nodes = p.nodes();
  for (i64 cycle = 0; cycle < horizon; ++cycle) {
    for (NodeId src : nodes) {
      if (rng.uniform() >= rate) continue;
      NodeId dst = src;
      while (dst == src) dst = nodes[rng.below(nodes.size())];
      Path path;
      if (!draw_path(torus, router, src, dst, faults, rng, path)) {
        ++result.unroutable_pairs;
        continue;
      }
      result.messages.push_back(SimMessage{std::move(path), cycle});
    }
  }
  return result;
}

TrafficResult permutation_traffic(const Torus& torus, const Placement& p,
                                  const Router& router, u64 seed,
                                  const EdgeSet* faults) {
  p.check_torus(torus);
  TrafficResult result;
  Xoshiro256SS rng(seed);
  std::vector<NodeId> dst = p.nodes();
  // Fisher-Yates shuffle for the destination permutation.
  for (std::size_t i = dst.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.below(i));
    std::swap(dst[i - 1], dst[j]);
  }
  const auto& src = p.nodes();
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (src[i] == dst[i]) continue;  // fixed point: nothing to send
    Path path;
    if (!draw_path(torus, router, src[i], dst[i], faults, rng, path)) {
      ++result.unroutable_pairs;
      continue;
    }
    result.messages.push_back(SimMessage{std::move(path), 0});
  }
  return result;
}

}  // namespace tp
