#include "src/load/complete_exchange.h"

#include <algorithm>
#include <array>
#include <bit>
#include <utility>

#include "src/obs/obs.h"
#include "src/routing/odr.h"
#include "src/routing/udr.h"
#include "src/torus/lattice.h"
#include "src/util/combinatorics.h"
#include "src/util/parallel.h"
#include "src/util/error.h"

namespace tp {

namespace {

/// Minimum routed source-destination pairs per worker before the parallel
/// load analyzers fan out.  One pair costs roughly d segment walks (~hundreds
/// of ns); a spawned-and-joined thread costs tens of µs, so each worker
/// needs thousands of pairs to amortize it.  Routed pairs are
/// reps·(|P|-1): the folded T8^3 linear placement routes 63 of them and
/// stays serial (the BENCH_4 odr_loads_parallel4 regression), while a
/// 4096-node random placement of T16^3 (16.8M pairs) fans out fully.
constexpr i64 kMinPairsPerWorker = 4096;

/// Coordinates of every placement node, row i for p.nodes()[i].
std::vector<i32> node_coords(const Lattice& lat, const Placement& p) {
  std::vector<i32> coords(p.nodes().size() * lat.d);
  for (std::size_t i = 0; i < p.nodes().size(); ++i)
    lat.decode(p.nodes()[i], &coords[i * lat.d]);
  return coords;
}

}  // namespace

TranslationFold translation_fold(const Torus& torus, const Placement& p) {
  TP_PROF_PHASE("fold.detect");
  p.check_torus(torus);
  const Lattice lat(torus);
  const std::size_t d = lat.d;
  const std::vector<NodeId>& nodes = p.nodes();
  TranslationFold fold;
  fold.num_orbits = torus.num_nodes();
  fold.reps = nodes;
  if (nodes.size() < 2) return fold;

  const std::vector<i32> pc = node_coords(lat, p);
  const i32* p0 = pc.data();
  // H as coordinate rows, the identity first.  Every h in H is q - p0 for
  // some q in P; in_h marks those q, i.e. the set p0 + H.
  std::vector<i32> h_rows(d, 0);
  std::vector<bool> in_h(static_cast<std::size_t>(torus.num_nodes()), false);
  in_h[static_cast<std::size_t>(nodes[0])] = true;
  const auto member = [&](const i32* h) {
    return in_h[static_cast<std::size_t>(lat.sum(p0, h))];
  };
  // Nodes are tested last first: a near-period, such as a shift of a
  // clustered block, fails at the block's far boundary on its first test.
  const auto is_period = [&](const i32* h) {
    for (std::size_t i = nodes.size(); i-- > 0;)
      if (!p.contains(lat.sum(&pc[i * d], h))) return false;
    return true;
  };
  std::array<i32, kMaxDims> g{};
  std::array<i32, kMaxDims> m{};
  std::array<i32, kMaxDims> e{};
  for (std::size_t qi = 1; qi < nodes.size(); ++qi) {
    if (in_h[static_cast<std::size_t>(nodes[qi])]) continue;
    for (std::size_t i = 0; i < d; ++i) {
      g[i] = pc[qi * d + i] - p0[i];
      if (g[i] < 0) g[i] += lat.radix[i];
    }
    if (!is_period(g.data())) continue;
    // H + <g> is the union of the cosets H + j·g, j below g's order
    // modulo H: the first j·g already in the growing H.
    const std::size_t old = h_rows.size() / d;
    m = g;
    while (!member(m.data())) {
      for (std::size_t row = 0; row < old; ++row) {
        lat.add(&h_rows[row * d], m.data(), e.data());
        h_rows.insert(h_rows.end(), e.begin(),
                      e.begin() + static_cast<std::ptrdiff_t>(d));
        in_h[static_cast<std::size_t>(lat.sum(p0, e.data()))] = true;
      }
      lat.add(m.data(), g.data(), m.data());
    }
  }
  const std::size_t order = h_rows.size() / d;
  fold.stabilizer_size = static_cast<i64>(order);
  if (order == 1) return fold;

  // Orbit ids in order of their smallest node; reps are the first
  // placement node of each orbit.
  fold.num_orbits = torus.num_nodes() / fold.stabilizer_size;
  fold.orbit.assign(static_cast<std::size_t>(torus.num_nodes()), -1);
  i64 next = 0;
  lat.for_each_node([&](NodeId n, const i32* c) {
    if (fold.orbit[static_cast<std::size_t>(n)] >= 0) return;
    for (std::size_t row = 0; row < order; ++row)
      fold.orbit[static_cast<std::size_t>(lat.sum(c, &h_rows[row * d]))] =
          next;
    ++next;
  });
  TP_ASSERT(next == fold.num_orbits, "stabilizer orbits do not tile the torus");
  fold.reps.clear();
  std::vector<bool> seen(static_cast<std::size_t>(fold.num_orbits), false);
  for (const NodeId q : nodes) {
    const auto o = static_cast<std::size_t>(fold.orbit_of(q));
    if (seen[o]) continue;
    seen[o] = true;
    fold.reps.push_back(q);
  }
  return fold;
}

namespace {

/// The placement, its fold and its coordinates: what every routed source
/// reads.
struct Sources {
  Sources(const Torus& torus, const Placement& p)
      : lat(torus),
        fold(translation_fold(torus, p)),
        nodes(p.nodes()),
        coords(node_coords(lat, p)) {}

  const i32* coord(std::size_t i) const { return &coords[i * lat.d]; }

  Lattice lat;
  TranslationFold fold;
  const std::vector<NodeId>& nodes;
  std::vector<i32> coords;
};

/// One worker's load per link orbit: slot 2·dim + (dir == Neg) of orbit o
/// sits at o·2d + slot — a LoadMap's layout when H is trivial.
template <typename W>
class OrbitBuckets {
 public:
  explicit OrbitBuckets(const Sources& sources)
      : sources_(&sources),
        slots_(2 * static_cast<i64>(sources.lat.d)),
        sums_(static_cast<std::size_t>(sources.fold.num_orbits * slots_),
              W{0}) {}

  void add(NodeId tail, i64 slot, W w) {
    sums_[static_cast<std::size_t>(sources_->fold.orbit_of(tail) * slots_ +
                                   slot)] += w;
  }

  /// Adds w to the `steps` links of the ring walk leaving `node`, whose
  /// coordinate in `dim` is `from`, in direction `dir`.
  void walk(NodeId node, i32 dim, Dir dir, i32 from, i32 steps, W w) {
    const auto u = static_cast<std::size_t>(dim);
    const i32 k = sources_->lat.radix[u];
    const bool pos = dir == Dir::Pos;
    const i64 slot = 2 * dim + (pos ? 0 : 1);
    const i64 step = pos ? sources_->lat.stride[u] : -sources_->lat.stride[u];
    const i32 last = pos ? k - 1 : 0;  // the coordinate the ring wraps after
    NodeId cur = node;
    i32 c = from;
    for (i32 s = 0; s < steps; ++s) {
      add(cur, slot, w);
      if (c == last) {
        c = k - 1 - last;
        cur -= (k - 1) * step;
      } else {
        c += pos ? 1 : -1;
        cur += step;
      }
    }
  }

  void merge(const OrbitBuckets& other) {
    for (std::size_t i = 0; i < sums_.size(); ++i) sums_[i] += other.sums_[i];
  }

  /// Every link gets its orbit's bucket divided by `unit`.
  LoadMap broadcast(const Torus& torus, double unit) const {
    TP_PROF_PHASE("fold.broadcast");
    std::vector<double> value(sums_.size());
    for (std::size_t i = 0; i < sums_.size(); ++i)
      value[i] = static_cast<double>(sums_[i]) / unit;
    const auto slots = static_cast<std::size_t>(slots_);
    std::vector<double> loads(
        static_cast<std::size_t>(torus.num_directed_edges()));
    for (NodeId n = 0; n < torus.num_nodes(); ++n)
      std::copy_n(
          &value[static_cast<std::size_t>(sources_->fold.orbit_of(n)) * slots],
          slots, &loads[static_cast<std::size_t>(n) * slots]);
    return LoadMap(torus, std::move(loads));
  }

 private:
  const Sources* sources_;
  i64 slots_;
  std::vector<W> sums_;
};

/// How one dimension is corrected from coordinate a to b: no move, one,
/// or — on a tie under BothDirections — two that split the weight.  The
/// moves of routing_detail::allowed_dirs and steps_in_dir, in their
/// order, without their range checks and counter: this runs per pair.
struct Correction {
  i32 count = 0;
  std::array<Dir, 2> dir{};
  std::array<i32, 2> steps{};
};

Correction correction(i32 k, i32 a, i32 b, TieBreak tie) {
  Correction c;
  if (a == b) return c;
  const i32 fwd = b > a ? b - a : b - a + k;
  const i32 bwd = k - fwd;
  if (fwd <= bwd) {
    c.dir[0] = Dir::Pos;
    c.steps[0] = fwd;
    c.count = 1;
  }
  if (bwd < fwd || (bwd == fwd && tie == TieBreak::BothDirections)) {
    c.dir[static_cast<std::size_t>(c.count)] = Dir::Neg;
    c.steps[static_cast<std::size_t>(c.count)] = bwd;
    ++c.count;
  }
  return c;
}

/// One weighted correction segment produced by the route pass.
struct OdrSegment {
  NodeId node;  ///< entry node
  i32 dim;
  Dir dir;
  i32 from;   ///< entry node's coordinate in dim
  i32 steps;
  i64 weight;
};

/// Routes representatives [lo, hi) under ODR.  Two passes per source, so
/// route enumeration and the link-load walk profile as separate phases
/// (odr.route / odr.walk) at a grain coarse enough that the attribution
/// does not distort what it measures.
void route_odr(const Sources& src_set, const SmallVec<i32>& order,
               TieBreak tie, i64 unit, OrbitBuckets<i64>& out, i64 lo,
               i64 hi) {
  const Lattice& lat = src_set.lat;
  std::vector<OdrSegment> segs;
  segs.reserve(src_set.nodes.size() * order.size());
  std::array<i32, kMaxDims> cs{};
  for (i64 r = lo; r < hi; ++r) {
    const NodeId src = src_set.fold.reps[static_cast<std::size_t>(r)];
    lat.decode(src, cs.data());
    segs.clear();
    {
      TP_PROF_PHASE("odr.route");
      for (std::size_t j = 0; j < src_set.nodes.size(); ++j) {
        if (src_set.nodes[j] == src) continue;
        const i32* cd = src_set.coord(j);
        // Dimensions are corrected in order; the node entering each
        // dimension is deterministic (earlier dims at dst, later at src)
        // regardless of any tie direction taken earlier, so each
        // dimension's segment(s) can be enumerated without walking links.
        NodeId node = src;
        for (const i32 dim : order) {
          const auto u = static_cast<std::size_t>(dim);
          const Correction c = correction(lat.radix[u], cs[u], cd[u], tie);
          for (std::size_t i = 0; i < static_cast<std::size_t>(c.count); ++i)
            segs.push_back(OdrSegment{node, dim, c.dir[i], cs[u], c.steps[i],
                                      unit / c.count});
          node += (cd[u] - cs[u]) * lat.stride[u];
        }
        TP_ASSERT(node == src_set.nodes[j],
                  "ODR load walk did not reach destination");
      }
    }
    {
      TP_PROF_PHASE("odr.walk");
      for (const OdrSegment& s : segs)
        out.walk(s.node, s.dim, s.dir, s.from, s.steps, s.weight);
    }
  }
}

/// Routes representatives [lo, hi) under UDR with subset weights:
/// correcting dimension j after the subset S of the other s-1 differing
/// dimensions happens in |S|!(s-1-|S|)!/s! of all orders, and the walk
/// then enters j's segment at the node whose S-dims sit at dst and the
/// rest at src — whatever directions S took.
void route_udr(const Sources& src_set, TieBreak tie, i64 unit,
               OrbitBuckets<i64>& out, i64 lo, i64 hi) {
  const Lattice& lat = src_set.lat;
  const auto d = static_cast<i64>(lat.d);
  // order_weight[s][m] = unit · m!(s-1-m)!/s!, an integer for s <= d.
  std::array<std::array<i64, kMaxDims>, kMaxDims + 1> order_weight{};
  for (i64 s = 1; s <= d; ++s)
    for (i64 m = 0; m < s; ++m)
      order_weight[static_cast<std::size_t>(s)][static_cast<std::size_t>(m)] =
          unit / factorial(s) * factorial(m) * factorial(s - 1 - m);

  std::array<i32, kMaxDims> cs{};
  std::array<i32, kMaxDims> diff{};
  std::array<Correction, kMaxDims> corr{};
  std::array<i64, kMaxDims> delta{};
  std::array<i64, kMaxDims> others{};
  std::array<NodeId, std::size_t{1} << (kMaxDims - 1)> entry{};
  for (i64 r = lo; r < hi; ++r) {
    const NodeId src = src_set.fold.reps[static_cast<std::size_t>(r)];
    lat.decode(src, cs.data());
    for (std::size_t j = 0; j < src_set.nodes.size(); ++j) {
      if (src_set.nodes[j] == src) continue;
      const i32* cd = src_set.coord(j);
      std::size_t s = 0;
      for (std::size_t u = 0; u < lat.d; ++u) {
        if (cs[u] == cd[u]) continue;
        diff[s] = static_cast<i32>(u);
        corr[s] = correction(lat.radix[u], cs[u], cd[u], tie);
        delta[s] = (cd[u] - cs[u]) * lat.stride[u];
        ++s;
      }
      for (std::size_t ji = 0; ji < s; ++ji) {
        std::size_t n_others = 0;
        for (std::size_t i = 0; i < s; ++i)
          if (i != ji) others[n_others++] = delta[i];
        // entry[mask]: src with the dims in mask moved to dst.
        const std::uint32_t subsets = 1u << n_others;
        entry[0] = src;
        for (std::uint32_t mask = 1; mask < subsets; ++mask) {
          const auto low = static_cast<std::size_t>(std::countr_zero(mask));
          entry[mask] = entry[mask & (mask - 1)] + others[low];
        }
        const Correction& c = corr[ji];
        const i32 dim = diff[ji];
        const i32 from = cs[static_cast<std::size_t>(dim)];
        for (std::uint32_t mask = 0; mask < subsets; ++mask) {
          const i64 w =
              order_weight[s][static_cast<std::size_t>(std::popcount(mask))] /
              c.count;
          for (std::size_t i = 0; i < static_cast<std::size_t>(c.count); ++i)
            out.walk(entry[mask], dim, c.dir[i], from, c.steps[i], w);
        }
      }
    }
  }
}

enum class Walk { Odr, Udr };

/// Routes every coset representative into int64 link-orbit buckets,
/// spread over up to `threads` workers when the routed pairs,
/// reps·(|P|-1), are enough to pay for them; sums the workers' buckets
/// (integer adds: exact in any order, so every width agrees bit for bit)
/// and broadcasts.  Counts are in units of 1/(2·d!), which every ODR and
/// UDR link weight is a multiple of.  Every bucket holds at most the total
/// load, sum over ordered pairs of Lee distances <= |P|(|P|-1)·Σ⌊k_i/2⌋;
/// below 2^53 units it is exact both as an int64 and as the double the
/// broadcast divides, so each load is the correctly rounded rational.
LoadMap folded_exact_loads(const Torus& torus, const Placement& p,
                           i32 threads, Walk walk, const SmallVec<i32>& order,
                           TieBreak tie) {
  p.check_torus(torus);
  const i64 unit = 2 * factorial(torus.dims());
  i64 diameter = 0;
  for (i32 dim = 0; dim < torus.dims(); ++dim) diameter += torus.radix(dim) / 2;
  const i64 pairs = p.size() * std::max<i64>(p.size() - 1, 0);
  i64 bound = 0;
  TP_REQUIRE(!__builtin_mul_overflow(pairs, diameter, &bound) &&
                 !__builtin_mul_overflow(bound, unit, &bound) &&
                 bound < (i64{1} << 53),
             "placement too large for exact int64 load accumulation");
  TP_OBS_COUNT("load.pairs_evaluated", pairs);

  const Sources sources(torus, p);
  const auto reps = static_cast<i64>(sources.fold.reps.size());
  const i32 workers = effective_workers(
      reps * std::max<i64>(p.size() - 1, 0), threads, kMinPairsPerWorker);
  std::vector<OrbitBuckets<i64>> partial(static_cast<std::size_t>(workers),
                                         OrbitBuckets<i64>(sources));
  const auto route = [&](OrbitBuckets<i64>& out, i64 lo, i64 hi) {
    if (walk == Walk::Odr)
      route_odr(sources, order, tie, unit, out, lo, hi);
    else
      route_udr(sources, tie, unit, out, lo, hi);
  };
  if (workers == 1) {
    route(partial[0], 0, reps);
  } else {
    parallel_for_blocks(reps, workers, [&](i32 worker, i64 lo, i64 hi) {
      route(partial[static_cast<std::size_t>(worker)], lo, hi);
    });
  }
  for (std::size_t w = 1; w < partial.size(); ++w) partial[0].merge(partial[w]);
  return partial[0].broadcast(torus, static_cast<double>(unit));
}

SmallVec<i32> identity_order(const Torus& torus) {
  SmallVec<i32> order;
  for (i32 dim = 0; dim < torus.dims(); ++dim) order.push_back(dim);
  return order;
}

}  // namespace

LoadMap reference_loads(const Torus& torus, const Placement& p,
                        const Router& router) {
  p.check_torus(torus);
  LoadMap loads(torus);
  for (NodeId src : p.nodes()) {
    for (NodeId dst : p.nodes()) {
      if (src == dst) continue;
      const auto paths = router.paths(torus, src, dst);
      TP_ASSERT(!paths.empty(), "router produced no path for a pair");
      const double w = 1.0 / static_cast<double>(paths.size());
      for (const Path& path : paths)
        for (EdgeId e : path.edges) loads.add(e, w);
    }
  }
  return loads;
}


LoadMap odr_loads(const Torus& torus, const Placement& p, TieBreak tie) {
  return odr_loads_ordered(torus, p, identity_order(torus), tie);
}

LoadMap odr_loads_ordered(const Torus& torus, const Placement& p,
                          const SmallVec<i32>& order, TieBreak tie) {
  TP_OBS_SCOPE("load.odr");
  OdrRouter(order, tie).correction_order(torus);  // validate permutation
  return folded_exact_loads(torus, p, 1, Walk::Odr, order, tie);
}

LoadMap odr_loads_parallel(const Torus& torus, const Placement& p,
                           i32 threads, TieBreak tie) {
  TP_OBS_SCOPE("load.odr");
  return folded_exact_loads(torus, p, threads, Walk::Odr,
                            identity_order(torus), tie);
}

LoadMap udr_loads(const Torus& torus, const Placement& p, TieBreak tie) {
  TP_OBS_SCOPE("load.udr");
  return folded_exact_loads(torus, p, 1, Walk::Udr, {}, tie);
}

LoadMap udr_loads_parallel(const Torus& torus, const Placement& p,
                           i32 threads, TieBreak tie) {
  TP_OBS_SCOPE("load.udr");
  return folded_exact_loads(torus, p, threads, Walk::Udr, {}, tie);
}

LoadMap udr_loads_enumerated(const Torus& torus, const Placement& p,
                             TieBreak tie) {
  p.check_torus(torus);
  UdrRouter router(tie);
  return reference_loads(torus, p, router);
}

namespace {

/// C(n, r) for 0 <= r <= n <= max_n, from one Pascal triangle built by
/// additions, so every entry is the exact binomial.  An entry past i64 is
/// kept as -1 (both of its children are past i64 too) and, like
/// binomial(), throws "binomial overflow" when it is read.
class PascalTable {
 public:
  explicit PascalTable(i64 max_n)
      : c_(static_cast<std::size_t>((max_n + 1) * (max_n + 2) / 2), 1) {
    for (i64 n = 2; n <= max_n; ++n) {
      const i64* up = &c_[row(n - 1)];
      i64* cur = &c_[row(n)];
      for (i64 r = 1; r < n; ++r) {
        const auto a = up[static_cast<std::size_t>(r - 1)];
        const auto b = up[static_cast<std::size_t>(r)];
        i64& out = cur[static_cast<std::size_t>(r)];
        if (a < 0 || b < 0 || __builtin_add_overflow(a, b, &out)) out = -1;
      }
    }
  }

  i64 operator()(i64 n, i64 r) const {
    const i64 c = c_[row(n) + static_cast<std::size_t>(r)];
    TP_REQUIRE(c >= 0, "binomial overflow");
    return c;
  }

 private:
  static std::size_t row(i64 n) {
    return static_cast<std::size_t>(n * (n + 1) / 2);
  }

  std::vector<i64> c_;
};

}  // namespace

LoadMap adaptive_loads(const Torus& torus, const Placement& p) {
  TP_OBS_SCOPE("load.adaptive");
  p.check_torus(torus);
  TP_OBS_COUNT("load.pairs_evaluated", p.size() * (p.size() - 1));
  // Adaptive weights are multinomial ratios with no fixed denominator, so
  // this is the one kernel that folds into double buckets.
  const Sources sources(torus, p);
  OrbitBuckets<double> loads(sources);
  const Lattice& lat = sources.lat;
  const std::size_t d = lat.d;
  i64 diameter = 0;
  for (std::size_t i = 0; i < d; ++i) diameter += lat.radix[i] / 2;
  const PascalTable binom(diameter);

  std::array<i32, kMaxDims> cs{};   // source coordinates
  std::array<i32, kMaxDims> len{};  // arc length per dimension
  std::array<i32, kMaxDims> way{};  // +1 or -1: the shorter (or tied) arc
  std::array<std::size_t, kMaxDims> tie_dim{};
  std::array<i32, kMaxDims> dir{};  // way, with the mask's ties turned -1
  std::array<i32, kMaxDims> pos{};  // corridor position
  std::array<i32, kMaxDims> c{};    // coordinates of the node at pos
  for (const NodeId src : sources.fold.reps) {
    lat.decode(src, cs.data());
    for (std::size_t j = 0; j < sources.nodes.size(); ++j) {
      if (sources.nodes[j] == src) continue;
      const i32* cd = sources.coord(j);
      // Per-dimension arc lengths, directions and tie flags.
      i64 total = 0;
      std::size_t ties = 0;
      for (std::size_t i = 0; i < d; ++i) {
        const i32 fwd = cd[i] >= cs[i] ? cd[i] - cs[i]
                                       : cd[i] - cs[i] + lat.radix[i];
        const i32 bwd = fwd == 0 ? 0 : lat.radix[i] - fwd;
        len[i] = std::min(fwd, bwd);
        way[i] = bwd < fwd ? -1 : +1;
        if (fwd != 0 && fwd == bwd) tie_dim[ties++] = i;
        total += len[i];
      }
      // Base multinomial: number of interleavings for one direction
      // commitment (identical for every commitment since arc lengths match).
      double m_base = 1.0;
      {
        i64 remaining = total;
        for (std::size_t i = 0; i < d; ++i) {
          m_base *= static_cast<double>(binom(remaining, len[i]));
          remaining -= len[i];
        }
      }
      const double commit_w = 1.0 / static_cast<double>(i64{1} << ties);

      // Enumerate direction commitments for tie dims.
      for_each_subset(static_cast<int>(ties), [&](std::uint32_t mask) {
        dir = way;
        for (std::size_t t = 0; t < ties; ++t)
          if (mask & (1u << t)) dir[tie_dim[t]] = -1;

        // Walk the corridor: positions 0..len[i] along each dimension, the
        // last fastest, with c the node at each position.
        pos.fill(0);
        c = cs;
        i64 steps_to = 0;
        for (bool more = true; more;) {
          // Path counts to and from the node at this position.
          const i64 steps_from = total - steps_to;
          double m_to = 1.0, m_from = 1.0;
          {
            i64 rem = steps_to;
            for (std::size_t i = 0; i < d; ++i) {
              m_to *= static_cast<double>(binom(rem, pos[i]));
              rem -= pos[i];
            }
            rem = steps_from;
            for (std::size_t i = 0; i < d; ++i) {
              m_from *= static_cast<double>(binom(rem, len[i] - pos[i]));
              rem -= len[i] - pos[i];
            }
          }
          const NodeId u = lat.encode(c.data());
          // One outgoing corridor edge per dimension with remaining steps.
          for (std::size_t i = 0; i < d; ++i) {
            if (pos[i] == len[i]) continue;
            // Fraction of paths using edge u->u+dir_i: paths to u times
            // paths from the edge head to dst, over all paths.  The head's
            // remaining steps differ from u's only in dimension i.
            const double m_from_head =
                m_from * static_cast<double>(len[i] - pos[i]) /
                static_cast<double>(steps_from);
            const double frac = m_to * m_from_head / m_base;
            loads.add(u, 2 * static_cast<i64>(i) + (dir[i] > 0 ? 0 : 1),
                      commit_w * frac);
          }
          more = false;
          for (std::size_t i = d; i-- > 0;) {
            if (pos[i] < len[i]) {
              ++pos[i];
              ++steps_to;
              c[i] += dir[i];
              if (c[i] == lat.radix[i]) c[i] = 0;
              if (c[i] < 0) c[i] = lat.radix[i] - 1;
              more = true;
              break;
            }
            steps_to -= pos[i];
            pos[i] = 0;
            c[i] = cs[i];
          }
        }
      });
    }
  }
  return loads.broadcast(torus, 1.0);
}

double expected_total_load(const Torus& torus, const Placement& p) {
  p.check_torus(torus);
  double sum = 0.0;
  for (NodeId a : p.nodes())
    for (NodeId b : p.nodes())
      if (a != b) sum += static_cast<double>(torus.lee_distance(a, b));
  return sum;
}

}  // namespace tp
