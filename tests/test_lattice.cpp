// Differential tests for the division-free lattice walks
// (src/torus/lattice.h) and the cold-path code that runs on them: cut
// sizes, the dimension cut's closed-form width, the hyperplane sweep's
// wire classification, the multiple linear placement and the adaptive
// corridor walk.
//
// Seeded tori of d = 1..4 with uniform and mixed radices 2..7 (radix 2 and
// d = 1 always included) are checked against recounts written here with
// the dividing Torus API: coord, node_id, link and undirected_id.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/bisection/cut.h"
#include "src/bisection/dimension_cut.h"
#include "src/bisection/hyperplane_sweep.h"
#include "src/load/complete_exchange.h"
#include "src/placement/placement.h"
#include "src/torus/lattice.h"
#include "src/util/error.h"
#include "src/util/prng.h"

namespace tp {
namespace {

constexpr i64 kMaxNodes = 400;
constexpr int kDrawnTori = 40;

i32 draw(Xoshiro256SS& rng, i32 lo, i32 hi) {
  return lo + static_cast<i32>(rng.below(static_cast<u64>(hi - lo + 1)));
}

/// Fixed corner cases first (d = 1, radix 2, mixed), then seeded draws of
/// d = 1..4 with radices 2..7, all equal or drawn per dimension.
std::vector<Torus> tori() {
  std::vector<Torus> out{Torus(Radices{2}),       Torus(Radices{7}),
                         Torus(Radices{2, 2}),    Torus(Radices{2, 7}),
                         Torus(Radices{3, 2, 5}), Torus(Radices{2, 2, 2, 2}),
                         Torus(Radices{3, 3, 3, 3})};
  Xoshiro256SS rng(20261017);
  while (static_cast<int>(out.size()) < kDrawnTori) {
    const auto d = static_cast<std::size_t>(1 + out.size() % 4);
    Radices r(d, draw(rng, 2, 7));
    if ((out.size() / 4) % 2 == 1)
      for (i32& k : r) k = draw(rng, 2, 7);
    i64 n = 1;
    for (const i32 k : r) n *= k;
    if (n <= kMaxNodes) out.emplace_back(r);
  }
  return out;
}

std::string label(const Torus& torus) {
  std::string s = "T(";
  for (const i32 k : torus.radices()) s += std::to_string(k) + ",";
  s.back() = ')';
  return s;
}

/// Crossing directed links, by decoding every link id.
i64 recount_directed(const Torus& torus, const Cut& cut) {
  i64 count = 0;
  for (EdgeId e = 0; e < torus.num_directed_edges(); ++e) {
    const Link l = torus.link(e);
    if (cut.side_of(l.tail) != cut.side_of(l.head)) ++count;
  }
  return count;
}

/// Crossing wires, each counted at its canonical (smaller) link id.
i64 recount_undirected(const Torus& torus, const Cut& cut) {
  i64 count = 0;
  for (EdgeId e = 0; e < torus.num_directed_edges(); ++e) {
    if (torus.undirected_id(e) != e) continue;
    const Link l = torus.link(e);
    if (cut.side_of(l.tail) != cut.side_of(l.head)) ++count;
  }
  return count;
}

Cut random_cut(const Torus& torus, Xoshiro256SS& rng) {
  std::vector<bool> side(static_cast<std::size_t>(torus.num_nodes()));
  for (std::size_t i = 0; i < side.size(); ++i) side[i] = rng.below(2) == 1;
  return Cut(torus, std::move(side));
}

TEST(Lattice, DecodeEncodeAndSumMatchTorus) {
  Xoshiro256SS rng(1);
  for (const Torus& torus : tori()) {
    SCOPED_TRACE(label(torus));
    const Lattice lat(torus);
    ASSERT_EQ(static_cast<i32>(lat.d), torus.dims());
    ASSERT_EQ(lat.num_nodes, torus.num_nodes());
    std::vector<i32> c(lat.d);
    for (NodeId n = 0; n < torus.num_nodes(); ++n) {
      lat.decode(n, c.data());
      const Coord want = torus.coord(n);
      for (std::size_t i = 0; i < lat.d; ++i) ASSERT_EQ(c[i], want[i]);
      ASSERT_EQ(lat.encode(c.data()), n);
    }
    std::vector<i32> a(lat.d), b(lat.d), ab(lat.d);
    for (int trial = 0; trial < 64; ++trial) {
      const auto na = static_cast<NodeId>(
          rng.below(static_cast<u64>(torus.num_nodes())));
      const auto nb = static_cast<NodeId>(
          rng.below(static_cast<u64>(torus.num_nodes())));
      lat.decode(na, a.data());
      lat.decode(nb, b.data());
      Coord want(lat.d, 0);
      for (std::size_t i = 0; i < lat.d; ++i)
        want[i] = (a[i] + b[i]) % torus.radix(static_cast<i32>(i));
      EXPECT_EQ(lat.sum(a.data(), b.data()), torus.node_id(want));
      lat.add(a.data(), b.data(), ab.data());
      EXPECT_EQ(lat.encode(ab.data()), torus.node_id(want));
    }
  }
}

TEST(Lattice, WalksVisitEveryNodeInIdOrder) {
  for (const Torus& torus : tori()) {
    SCOPED_TRACE(label(torus));
    const Lattice lat(torus);
    NodeId expect = 0;
    lat.for_each_node([&](NodeId n, const i32* c) {
      ASSERT_EQ(n, expect++);
      const Coord want = torus.coord(n);
      for (std::size_t i = 0; i < lat.d; ++i) ASSERT_EQ(c[i], want[i]);
    });
    EXPECT_EQ(expect, torus.num_nodes());
    for (i32 dim = 0; dim < torus.dims(); ++dim) {
      NodeId next = 0;
      lat.for_each_pos_link(dim, [&](NodeId n, NodeId up, i32 v) {
        ASSERT_EQ(n, next++);
        ASSERT_EQ(v, torus.coord_of(n, dim));
        ASSERT_EQ(up, torus.neighbor(n, dim, Dir::Pos));
      });
      EXPECT_EQ(next, torus.num_nodes()) << "dim " << dim;
    }
  }
}

TEST(Lattice, CutSizesMatchLinkRecount) {
  Xoshiro256SS rng(2);
  for (const Torus& torus : tori()) {
    SCOPED_TRACE(label(torus));
    for (int trial = 0; trial < 4; ++trial) {
      const Cut cut = random_cut(torus, rng);
      EXPECT_EQ(cut.directed_cut_size(torus), recount_directed(torus, cut));
      EXPECT_EQ(cut.undirected_cut_size(torus),
                recount_undirected(torus, cut));
      const EdgeSet crossing = cut.crossing_edges(torus);
      for (EdgeId e = 0; e < torus.num_directed_edges(); ++e) {
        const Link l = torus.link(e);
        ASSERT_EQ(crossing.contains(e),
                  cut.side_of(l.tail) != cut.side_of(l.head))
            << torus.edge_str(e);
      }
    }
  }
}

TEST(Lattice, DimensionCutWidthIsTheClosedForm) {
  Xoshiro256SS rng(3);
  for (const Torus& torus : tori()) {
    SCOPED_TRACE(label(torus));
    const i64 n = torus.num_nodes();
    std::vector<Placement> ps{
        full_population(torus),
        random_placement(torus, draw(rng, 1, static_cast<i32>(n)),
                         rng.below(1000)),
        clustered_placement(torus, draw(rng, 1, static_cast<i32>(n)))};
    if (torus.is_uniform_radix())
      ps.push_back(multiple_linear_placement(torus, 1));
    for (const Placement& p : ps) {
      SCOPED_TRACE(p.name());
      for (i32 dim = 0; dim < torus.dims(); ++dim) {
        const DimensionCutResult r = dimension_cut(torus, p, dim);
        EXPECT_EQ(r.directed_edges, recount_directed(torus, r.cut));
        EXPECT_EQ(r.directed_edges, 4 * (n / torus.radix(dim)));
        for (NodeId node = 0; node < n; ++node) {
          const i32 v = torus.coord_of(node, dim);
          ASSERT_EQ(r.cut.side_of(node),
                    v > r.first_boundary && v <= r.second_boundary);
        }
      }
      const DimensionCutResult best = best_dimension_cut(torus, p);
      EXPECT_EQ(best.directed_edges, recount_directed(torus, best.cut));
    }
  }
}

TEST(Lattice, SweepCrossingsMatchLinkRecount) {
  Xoshiro256SS rng(4);
  for (const Torus& torus : tori()) {
    SCOPED_TRACE(label(torus));
    const Placement p = random_placement(
        torus, draw(rng, 1, static_cast<i32>(torus.num_nodes())),
        rng.below(1000));
    const SweepResult r = hyperplane_sweep_bisection(torus, p);
    i64 array = 0, wrap = 0;
    for (EdgeId e = 0; e < torus.num_directed_edges(); ++e) {
      if (torus.undirected_id(e) != e) continue;
      const Link l = torus.link(e);
      if (r.cut.side_of(l.tail) == r.cut.side_of(l.head)) continue;
      const i32 a = torus.coord_of(l.tail, l.dim);
      const i32 b = torus.coord_of(l.head, l.dim);
      ((a - b != 1 && b - a != 1) ? wrap : array) += 1;
    }
    EXPECT_EQ(r.array_crossings, array);
    EXPECT_EQ(r.wrap_crossings, wrap);
    EXPECT_EQ(r.directed_edges, recount_directed(torus, r.cut));
    EXPECT_TRUE(r.cut.bisects(torus, p));
  }
}

TEST(Lattice, MultipleLinearIsTheCoordinateSumFilter) {
  for (const Torus& torus : tori()) {
    if (!torus.is_uniform_radix()) continue;
    SCOPED_TRACE(label(torus));
    const i32 k = torus.radix(0);
    for (i32 t = 1; t <= k; ++t) {
      std::vector<NodeId> want;
      for (NodeId n = 0; n < torus.num_nodes(); ++n) {
        i64 sum = 0;
        for (const i32 c : torus.coord(n)) sum += c;
        if (sum % k < t) want.push_back(n);
      }
      EXPECT_EQ(multiple_linear_placement(torus, t).nodes(), want)
          << "t = " << t;
    }
  }
}

TEST(Lattice, AdaptiveBinomialsCoverT66AndThrowPastI64) {
  // C(66, 33) is the largest central binomial below 2^63; T66^2's pair
  // (0,0) -> (33,33) needs it, and T68^2's (0,0) -> (34,34) needs C(68, 34).
  const Torus t66(2, 66);
  EXPECT_GT(adaptive_loads(t66, linear_placement(t66)).max_load(), 0.0);
  const Torus t68(2, 68);
  try {
    adaptive_loads(t68, linear_placement(t68));
    ADD_FAILURE() << "T68^2 adaptive loads did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("binomial overflow"),
              std::string::npos)
        << e.what();
  }
}

/// FNV-1a over each load's IEEE-754 bits, low byte first.
u64 fnv1a_bits(const std::vector<double>& loads) {
  u64 h = 14695981039346656037ull;
  for (const double x : loads) {
    u64 bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(Lattice, AdaptiveLoadsKeepTheirBits) {
  // Hashes of the loads computed with per-call binomial() and Torus
  // decoding, before the corridor walk moved onto the lattice: the Pascal
  // table and the walk must multiply the same factors in the same order.
  struct Case {
    i32 d, k, t;
    u64 hash;
  };
  for (const Case& c : {Case{3, 6, 3, 0x573e6929f3b2c725ull},
                        Case{3, 9, 1, 0x3290296e8ae06adeull},
                        Case{2, 30, 2, 0x4a23ce64f15d146dull}}) {
    const Torus torus(c.d, c.k);
    const LoadMap loads =
        adaptive_loads(torus, multiple_linear_placement(torus, c.t));
    EXPECT_EQ(fnv1a_bits(loads.raw()), c.hash)
        << "T" << c.k << "^" << c.d << " t=" << c.t;
  }
}

}  // namespace
}  // namespace tp
