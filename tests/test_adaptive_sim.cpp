// Tests for the hop-by-hop minimal-adaptive simulator.

#include <gtest/gtest.h>

#include "src/load/complete_exchange.h"
#include "src/placement/placement.h"
#include "src/routing/odr.h"
#include "src/simulate/adaptive_sim.h"
#include "src/simulate/fault.h"
#include "src/simulate/network_sim.h"
#include "src/simulate/traffic.h"
#include "src/util/error.h"

namespace tp {
namespace {

std::vector<Demand> complete_exchange_demands(const Placement& p) {
  std::vector<Demand> demands;
  for (NodeId src : p.nodes())
    for (NodeId dst : p.nodes())
      if (src != dst) demands.push_back(Demand{src, dst, 0});
  return demands;
}

TEST(AdaptiveSim, SingleMessageMinimalLatency) {
  Torus t(2, 5);
  const NodeId src = 0, dst = t.node_id(Coord{2, 2});
  for (AdaptivePolicy policy :
       {AdaptivePolicy::RandomMinimal, AdaptivePolicy::LeastQueue}) {
    AdaptiveNetworkSim sim(t, policy);
    const SimMetrics m = sim.run({Demand{src, dst, 0}});
    EXPECT_EQ(m.delivered, 1);
    EXPECT_EQ(m.cycles, t.lee_distance(src, dst));
  }
}

TEST(AdaptiveSim, DeliversTheCompleteExchange) {
  Torus t(2, 6);
  const Placement p = linear_placement(t);
  const auto demands = complete_exchange_demands(p);
  AdaptiveNetworkSim sim(t, AdaptivePolicy::LeastQueue);
  const SimMetrics m = sim.run(demands, 3);
  EXPECT_EQ(m.delivered, static_cast<i64>(demands.size()));
  EXPECT_EQ(m.unroutable, 0);
  // Every delivery took at least its Lee distance; mean latency too.
  EXPECT_GE(m.mean_latency, 1.0);
  // The latency histogram holds one sample per delivery (none is a
  // self-delivery here), and its sum is what mean_latency averages.
  EXPECT_EQ(m.latency.count, m.delivered);
  EXPECT_DOUBLE_EQ(static_cast<double>(m.latency.sum),
                   m.mean_latency * static_cast<double>(m.delivered));
  EXPECT_GE(static_cast<double>(m.latency_max()), m.latency_p95());
  EXPECT_GE(m.latency_p95(), m.latency_p50());
  EXPECT_GT(m.latency_p50(), 0.0);
}

TEST(AdaptiveSim, TotalForwardsEqualTotalLeeDistance) {
  // Minimal-adaptive hops never detour, so the sum of link forwards must
  // equal the sum of Lee distances over all demands.
  Torus t(2, 5);
  const Placement p = linear_placement(t);
  const auto demands = complete_exchange_demands(p);
  AdaptiveNetworkSim sim(t, AdaptivePolicy::RandomMinimal);
  const SimMetrics m = sim.run(demands, 9);
  i64 total = 0;
  for (i64 f : m.link_forwards) total += f;
  EXPECT_EQ(static_cast<double>(total), expected_total_load(t, p));
}

TEST(AdaptiveSim, LeastQueueNeverWorseThanOdrOnHeavyLoad) {
  // Against source-routed ODR under the same complete exchange, the
  // queue-aware adaptive policy routes around the diagonal hot links.
  Torus t(2, 8);
  const Placement p = multiple_linear_placement(t, 2);
  OdrRouter odr;
  const auto odr_traffic = complete_exchange_traffic(t, p, odr, 5);
  const SimMetrics odr_m = NetworkSim(t).run(odr_traffic.messages);

  AdaptiveNetworkSim sim(t, AdaptivePolicy::LeastQueue);
  const SimMetrics ad_m = sim.run(complete_exchange_demands(p), 5);
  EXPECT_EQ(ad_m.delivered, odr_m.delivered);
  EXPECT_LE(ad_m.cycles, odr_m.cycles);
}

TEST(AdaptiveSim, RoutesAroundFaultsWhenAMinimalLinkSurvives) {
  Torus t(2, 6);
  const NodeId src = t.node_id(Coord{0, 0});
  const NodeId dst = t.node_id(Coord{2, 2});
  // Fail one of the two minimal first hops; the other direction remains.
  EdgeSet faults(t);
  const EdgeId blocked = t.edge_id(src, 0, Dir::Pos);
  faults.insert(blocked);
  faults.insert(t.reverse_edge(blocked));
  AdaptiveNetworkSim sim(t, AdaptivePolicy::LeastQueue, &faults);
  const SimMetrics m = sim.run({Demand{src, dst, 0}});
  EXPECT_EQ(m.delivered, 1);
  EXPECT_EQ(m.cycles, 4);
  EXPECT_EQ(m.link_forwards[static_cast<std::size_t>(blocked)], 0);
}

TEST(AdaptiveSim, DropsWhenEveryMinimalLinkIsFaulted) {
  Torus t(2, 6);
  const NodeId src = t.node_id(Coord{0, 0});
  const NodeId dst = t.node_id(Coord{2, 2});  // strictly +,+ minimal
  EdgeSet faults(t);
  for (i32 dim = 0; dim < 2; ++dim) {
    const EdgeId e = t.edge_id(src, dim, Dir::Pos);
    faults.insert(e);
    faults.insert(t.reverse_edge(e));
  }
  AdaptiveNetworkSim sim(t, AdaptivePolicy::LeastQueue, &faults);
  const SimMetrics m = sim.run({Demand{src, dst, 0}});
  EXPECT_EQ(m.delivered, 0);
  EXPECT_EQ(m.unroutable, 1);
}

TEST(AdaptiveSim, SelfDemandDeliversImmediately) {
  Torus t(2, 4);
  AdaptiveNetworkSim sim(t, AdaptivePolicy::RandomMinimal);
  const SimMetrics m = sim.run({Demand{3, 3, 0}});
  EXPECT_EQ(m.delivered, 1);
  EXPECT_EQ(m.cycles, 0);
}

TEST(AdaptiveSim, ValidatesDemands) {
  Torus t(2, 4);
  AdaptiveNetworkSim sim(t, AdaptivePolicy::LeastQueue);
  EXPECT_THROW(sim.run({Demand{0, 99, 0}}), Error);
  EXPECT_THROW(sim.run({Demand{0, 1, -1}}), Error);
}

TEST(AdaptiveSim, StaggeredInjection) {
  Torus t(1, 8);
  AdaptiveNetworkSim sim(t, AdaptivePolicy::LeastQueue);
  const SimMetrics m = sim.run({Demand{0, 1, 5}});
  EXPECT_EQ(m.cycles, 6);
  EXPECT_DOUBLE_EQ(m.mean_latency, 1.0);
}

}  // namespace
}  // namespace tp
