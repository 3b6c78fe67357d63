// Randomized property sweeps: arbitrary placements on assorted tori must
// satisfy every structural invariant regardless of shape.  Each seed runs
// the full battery on a random placement:
//
//   F1  load conservation for ODR and UDR (and adaptive on small tori)
//   F2  fast analyzers == Definition 4 oracle, bit for bit
//   F3  Lemma 1 (singleton and slab) bounds below measured loads
//   F4  hyperplane sweep bisects with crossings within the Appendix bound
//   F5  routing tables compile consistently and forward minimally
//   F6  simulator delivers the complete exchange, forwards == loads (ODR)

#include <gtest/gtest.h>

#include "src/bounds/slab_search.h"
#include "src/bisection/hyperplane_sweep.h"
#include "src/load/complete_exchange.h"
#include "src/load/formulas.h"
#include "src/routing/odr.h"
#include "src/routing/table_router.h"
#include "src/routing/udr.h"
#include "src/simulate/network_sim.h"
#include "src/simulate/traffic.h"

namespace tp {
namespace {

struct FuzzCase {
  Radices radices;
  i64 placement_size;
  u64 seed;
};

class Fuzz : public ::testing::TestWithParam<int> {
 protected:
  FuzzCase make_case() const {
    // Derive a torus shape and placement size deterministically from the
    // case index.
    const int i = GetParam();
    Xoshiro256SS rng(static_cast<u64>(i) * 7919 + 13);
    const i32 d = static_cast<i32>(2 + rng.below(2));  // 2 or 3 dims
    Radices radices;
    for (i32 dim = 0; dim < d; ++dim)
      radices.push_back(static_cast<i32>(3 + rng.below(4)));  // 3..6
    const i64 n = radix_product(radices);
    const i64 size = 2 + static_cast<i64>(rng.below(static_cast<u64>(n / 2)));
    return FuzzCase{radices, size, static_cast<u64>(i)};
  }
};

TEST_P(Fuzz, F1_Conservation) {
  const FuzzCase c = make_case();
  Torus t(c.radices);
  const Placement p = random_placement(t, c.placement_size, c.seed);
  const double expected = expected_total_load(t, p);
  EXPECT_NEAR(odr_loads(t, p).total_load(), expected, 1e-9 + 1e-9 * expected);
  EXPECT_NEAR(udr_loads(t, p).total_load(), expected, 1e-9 + 1e-9 * expected);
}

TEST_P(Fuzz, F2_OracleAgreement) {
  const FuzzCase c = make_case();
  Torus t(c.radices);
  const Placement p = random_placement(t, std::min<i64>(c.placement_size, 12),
                                       c.seed);
  EXPECT_EQ(odr_loads(t, p).raw(), reference_loads(t, p, OdrRouter()).raw());
  EXPECT_EQ(udr_loads(t, p).raw(), reference_loads(t, p, UdrRouter()).raw());
}

TEST_P(Fuzz, F3_BoundsBelowLoads) {
  const FuzzCase c = make_case();
  Torus t(c.radices);
  const Placement p = random_placement(t, c.placement_size, c.seed);
  const double odr_emax = odr_loads(t, p).max_load();
  const double udr_emax = udr_loads(t, p).max_load();
  const double blaum = blaum_lower_bound(p.size(), t.dims());
  EXPECT_GE(odr_emax, blaum - 1e-9);
  EXPECT_GE(udr_emax, blaum - 1e-9);
  const SlabBound slab = best_slab_bound(t, p);
  EXPECT_GE(odr_emax, slab.value - 1e-9);
  EXPECT_GE(udr_emax, slab.value - 1e-9);
}

TEST_P(Fuzz, F4_SweepBisects) {
  const FuzzCase c = make_case();
  Torus t(c.radices);
  const Placement p = random_placement(t, c.placement_size, c.seed);
  const auto result = hyperplane_sweep_bisection(t, p);
  EXPECT_TRUE(result.cut.bisects(t, p));
  // Appendix bound with k = max radix (the proof's k-ary array contains
  // this mixed-radix array).
  i32 kmax = 0;
  for (i32 dim = 0; dim < t.dims(); ++dim)
    kmax = std::max(kmax, t.radix(dim));
  EXPECT_LE(result.array_crossings,
            sweep_separator_upper_bound(kmax, t.dims()));
}

TEST_P(Fuzz, F5_RoutingTablesConsistent) {
  const FuzzCase c = make_case();
  Torus t(c.radices);
  const Placement p = random_placement(t, std::min<i64>(c.placement_size, 10),
                                       c.seed);
  const OdrRouter odr;
  const UdrRouter udr;
  for (const Router* router : {static_cast<const Router*>(&odr),
                               static_cast<const Router*>(&udr)}) {
    RoutingTable table(t, p, *router);
    table.verify(t);
    Xoshiro256SS rng(c.seed);
    for (NodeId src : p.nodes())
      for (NodeId dst : p.nodes()) {
        if (src == dst) continue;
        table.forward(t, src, dst, rng).verify_minimal(t);
      }
  }
}

TEST_P(Fuzz, F6_SimulatorMatchesLoads) {
  const FuzzCase c = make_case();
  Torus t(c.radices);
  const Placement p = random_placement(t, c.placement_size, c.seed);
  OdrRouter odr;
  const auto traffic = complete_exchange_traffic(t, p, odr, c.seed);
  const SimMetrics m = NetworkSim(t).run(traffic.messages);
  EXPECT_EQ(m.delivered, p.size() * (p.size() - 1));
  const LoadMap loads = odr_loads(t, p);
  for (EdgeId e = 0; e < t.num_directed_edges(); ++e)
    EXPECT_DOUBLE_EQ(
        static_cast<double>(m.link_forwards[static_cast<std::size_t>(e)]),
        loads[e]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz, ::testing::Range(0, 12));

}  // namespace
}  // namespace tp
