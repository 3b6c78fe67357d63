#include "src/load/complete_exchange.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <utility>

#include "src/obs/obs.h"
#include "src/routing/odr.h"
#include "src/util/combinatorics.h"
#include "src/util/error.h"
#include "src/util/parallel.h"
#include "src/util/rational.h"

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

/// A coset of the stabilizer H: its label and its components, packed
/// as TranslationFold::offset and field lay them out.
struct Coset {
  i64 label = 0;
  u64 digits = 0;
};

/// Coordinates of every placement node, row i for p.nodes()[i].
std::vector<i32> node_coords(const Lattice& lat, const Placement& p) {
  std::vector<i32> coords(p.nodes().size() * lat.d);
  for (std::size_t i = 0; i < p.nodes().size(); ++i)
    lat.decode(p.nodes()[i], &coords[i * lat.d]);
  return coords;
}

/// Brings component i of c back below modulus[i] after one add.  Without
/// a branch: whether a sum wraps follows the data, not a pattern.  The
/// field is compared in place, so the digits are not shifted.
void wrap(const TranslationFold& fold, Coset& c, std::size_t i) {
  const bool over = (c.digits & fold.field[i]) >= fold.wrap_digits[i];
  c.digits -= over ? fold.wrap_digits[i] : 0;
  c.label -= over ? fold.wrap_label[i] : 0;
}

/// Adds a, in [0, modulus[i]), to component i of c.
void add_to(const TranslationFold& fold, Coset& c, std::size_t i, i64 a) {
  c.digits += static_cast<u64>(a) << fold.offset[i];
  c.label += a * fold.weight[i];
  wrap(fold, c, i);
}

/// c += the coset of v·e_dim, 0 <= v < k_dim.
void shift(const TranslationFold& fold, Coset& c, std::size_t dim, i64 v) {
  for (std::uint32_t m = fold.moves[dim]; m != 0; m &= m - 1) {
    const auto i = static_cast<std::size_t>(std::countr_zero(m));
    i64 a = v * fold.unit[dim][i];
    if (a >= fold.modulus[i]) a %= fold.modulus[i];
    add_to(fold, c, i, a);
  }
}

/// c += delta, where delta is the coset of a multiple of e_dim: every move
/// and every hop.
void add_along(const TranslationFold& fold, Coset& c, const Coset& delta,
               std::size_t dim) {
  c.digits += delta.digits;
  c.label += delta.label;
  for (std::uint32_t m = fold.moves[dim]; m != 0; m &= m - 1)
    wrap(fold, c, static_cast<std::size_t>(std::countr_zero(m)));
}

/// The coset of the node at coordinates c (in range).
Coset coset_of(const TranslationFold& fold, const i32* c) {
  Coset coset;
  for (std::size_t dim = 0; dim < fold.lat.d; ++dim)
    shift(fold, coset, dim, c[dim]);
  return coset;
}

/// Sets `moves` from `unit`, and lays the components out in a word.
void finish_labels(TranslationFold& fold) {
  i32 bits = 0;
  for (std::size_t i = 0; i < fold.num_factors; ++i) {
    const auto width =
        static_cast<i32>(std::bit_width(static_cast<u64>(fold.modulus[i] - 1))) + 1;
    TP_REQUIRE(bits + width <= 64, "too many cosets to label");
    fold.offset[i] = bits;
    fold.field[i] = ((u64{1} << width) - 1) << bits;
    fold.wrap_digits[i] = static_cast<u64>(fold.modulus[i]) << bits;
    fold.wrap_label[i] = fold.modulus[i] * fold.weight[i];
    bits += width;
  }
  fold.moves = {};
  for (std::size_t j = 0; j < fold.lat.d; ++j)
    for (std::size_t i = 0; i < fold.num_factors; ++i)
      if (fold.unit[j][i] != 0) fold.moves[j] |= std::uint32_t{1} << i;
}

/// Calls fn(n, label) for every node n in id order: an odometer over the
/// coordinates, the last dimension fastest, where base[i] is the coset of
/// the node whose coordinates after i are 0.
template <typename Fn>
void for_each_label(const TranslationFold& fold, Fn&& fn) {
  const Lattice& lat = fold.lat;
  std::array<Coset, kMaxDims> hop{};  // the coset of e_i
  for (std::size_t i = 0; i < lat.d; ++i) shift(fold, hop[i], i, 1);
  std::array<Coset, kMaxDims> base{};
  std::array<i32, kMaxDims> c{};
  for (NodeId n = 0; n < lat.num_nodes; ++n) {
    fn(n, base[lat.d - 1].label);
    std::size_t i = lat.d;
    while (i-- > 0 && ++c[i] == lat.radix[i]) c[i] = 0;
    if (i >= lat.d) break;
    add_along(fold, base[i], hop[i], i);
    for (std::size_t m = i + 1; m < lat.d; ++m) base[m] = base[i];
  }
}

/// H trivial: one coset per node, the components its coordinates.
void label_by_node(TranslationFold& fold) {
  const Lattice& lat = fold.lat;
  fold.stabilizer_size = 1;
  fold.num_factors = lat.d;
  fold.unit = {};
  for (std::size_t i = 0; i < lat.d; ++i) {
    fold.modulus[i] = lat.radix[i];
    fold.weight[i] = lat.stride[i];
    fold.unit[i][i] = 1;
  }
  fold.num_orbits = lat.num_nodes;
  finish_labels(fold);
}

using Row = std::array<i64, kMaxDims>;

/// Labels the cosets of the H generated by `rows`.  Row and column
/// operations diagonalize the lattice L = H + diag(k)·Z^d spanned by the
/// rows plus the rows k_j·e_j; the column operations accumulate in C, so
/// L·C = s_0·Z x ... x s_{d-1}·Z and x -> ((x·C)_t mod s_t)_t is onto
/// with kernel L.  L contains e·Z^d for the exponent e = lcm(k_j) of G:
/// every entry is kept mod e (the implicit rows e·e_j absorb the
/// reductions, and stay e·e_j under unimodular column operations), and a
/// final pivot r_t, 0 when its block vanished, gives s_t = gcd(r_t, e).
/// The product of the s_t is the index N/|H|.
void label_cosets(TranslationFold& fold, std::vector<Row> rows) {
  const Lattice& lat = fold.lat;
  const std::size_t d = lat.d;
  i64 exponent = 1;
  for (std::size_t j = 0; j < d; ++j)
    exponent = exponent / gcd(exponent, lat.radix[j]) * lat.radix[j];
  TP_REQUIRE(exponent < (i64{1} << 31), "too many cosets to label");
  const auto reduce = [exponent](i64 x) {
    x %= exponent;
    return x < 0 ? x + exponent : x;
  };
  for (std::size_t j = 0; j < d; ++j) {
    Row row{};
    row[j] = lat.radix[j];
    rows.push_back(row);
  }
  for (Row& row : rows)
    for (std::size_t j = 0; j < d; ++j) row[j] = reduce(row[j]);
  std::array<Row, kMaxDims> c{};  // C, row j for dimension j
  for (std::size_t j = 0; j < d; ++j) c[j][j] = 1;

  Row pivot{};
  for (std::size_t t = 0; t < d; ++t) {
    for (bool clean = false; !clean;) {
      // The smallest nonzero entry of the block rows >= t, columns >= t
      // becomes the pivot; Euclid's remainders shrink it until its row
      // and column are clear.
      std::size_t pi = rows.size(), pj = t;
      for (std::size_t i = t; i < rows.size(); ++i)
        for (std::size_t j = t; j < d; ++j)
          if (rows[i][j] != 0 &&
              (pi == rows.size() || rows[i][j] < rows[pi][pj])) {
            pi = i;
            pj = j;
          }
      if (pi == rows.size()) break;
      std::swap(rows[t], rows[pi]);
      for (Row& row : rows) std::swap(row[t], row[pj]);
      for (std::size_t j = 0; j < d; ++j) std::swap(c[j][t], c[j][pj]);
      pivot[t] = rows[t][t];
      clean = true;
      for (std::size_t i = t + 1; i < rows.size(); ++i) {
        const i64 q = rows[i][t] / pivot[t];
        for (std::size_t j = t; j < d; ++j)
          rows[i][j] = reduce(rows[i][j] - q * rows[t][j]);
        clean = clean && rows[i][t] == 0;
      }
      for (std::size_t j = t + 1; j < d; ++j) {
        const i64 q = rows[t][j] / pivot[t];
        for (Row& row : rows) row[j] = reduce(row[j] - q * row[t]);
        for (std::size_t m = 0; m < d; ++m)
          c[m][j] = reduce(c[m][j] - q * c[m][t]);
        clean = clean && rows[t][j] == 0;
      }
    }
  }

  fold.num_factors = 0;
  fold.unit = {};
  for (std::size_t t = 0; t < d; ++t) {
    const i64 s = gcd(pivot[t], exponent);
    if (s == 1) continue;
    const std::size_t i = fold.num_factors++;
    fold.modulus[i] = s;
    // Negating a component keeps its kernel.  Taking the sign that makes
    // the first nonzero step at most s/2 makes every step +1 on the
    // (multiple) linear placements, whose congruence is on sum_i x_i.
    std::size_t first = d;
    for (std::size_t j = 0; j < d; ++j) {
      fold.unit[j][i] = c[j][t] % s;
      if (first == d && fold.unit[j][i] != 0) first = j;
    }
    if (first < d && 2 * fold.unit[first][i] > s)
      for (std::size_t j = 0; j < d; ++j)
        if (fold.unit[j][i] != 0) fold.unit[j][i] = s - fold.unit[j][i];
  }
  i64 orbits = 1;
  for (std::size_t i = fold.num_factors; i-- > 0;) {
    fold.weight[i] = orbits;
    orbits *= fold.modulus[i];
  }
  TP_ASSERT(lat.num_nodes % orbits == 0,
            "stabilizer orbits do not tile the torus");
  fold.num_orbits = orbits;
  fold.stabilizer_size = lat.num_nodes / orbits;
  finish_labels(fold);
}

/// translation_fold on the lattice and coordinates its caller holds.
TranslationFold fold_placement(const Lattice& lat, const Placement& p,
                               const std::vector<i32>& pc) {
  TP_PROF_PHASE("fold.detect");
  const std::size_t d = lat.d;
  const std::vector<NodeId>& nodes = p.nodes();
  TranslationFold fold(lat);
  label_by_node(fold);
  fold.reps = nodes;
  if (nodes.size() < 2) return fold;
  // Every h in H is q - p0 for some q in P, and q - p0 is in H when q's
  // coset is p0's under the labels of the H found so far.  A candidate
  // outside it that is a period of P extends H, and relabels.
  const i32* p0 = pc.data();
  // Nodes are tested last first: a near-period, such as a shift of a
  // clustered block, fails at the block's far boundary on its first test.
  const auto is_period = [&](const i32* h) {
    for (std::size_t i = nodes.size(); i-- > 0;)
      if (!p.contains(lat.sum(&pc[i * d], h))) return false;
    return true;
  };
  std::vector<Row> gens;
  // label[i] is node i's label under the H of its test; those taken after
  // the last relabel are final.
  std::vector<i64> label(nodes.size());
  std::size_t last = 0;
  label[0] = coset_of(fold, p0).label;
  std::array<i32, kMaxDims> g{};
  for (std::size_t qi = 1; qi < nodes.size(); ++qi) {
    label[qi] = coset_of(fold, &pc[qi * d]).label;
    if (label[qi] == label[0]) continue;
    for (std::size_t i = 0; i < d; ++i) {
      g[i] = pc[qi * d + i] - p0[i];
      if (g[i] < 0) g[i] += lat.radix[i];
    }
    if (!is_period(g.data())) continue;
    gens.emplace_back();
    std::copy_n(g.begin(), d, gens.back().begin());
    label_cosets(fold, gens);
    label[0] = coset_of(fold, p0).label;
    last = qi;
  }
  if (fold.stabilizer_size == 1) return fold;
  fold.reps.clear();
  std::vector<bool> seen(static_cast<std::size_t>(fold.num_orbits), false);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i <= last) label[i] = coset_of(fold, &pc[i * d]).label;
    const auto o = static_cast<std::size_t>(label[i]);
    if (seen[o]) continue;
    seen[o] = true;
    fold.reps.push_back(nodes[i]);
  }
  return fold;
}

}  // namespace

i64 TranslationFold::orbit_of(NodeId n) const {
  std::array<i32, kMaxDims> c{};
  lat.decode(n, c.data());
  return coset_of(*this, c.data()).label;
}

TranslationFold coordinate_sum_fold(const Torus& torus, i64 m) {
  TP_REQUIRE(torus.is_uniform_radix() && m >= 1 && torus.radix(0) % m == 0,
             "the coordinate-sum fold needs T_k^d and m dividing k");
  TranslationFold fold{Lattice(torus)};
  fold.num_factors = m > 1 ? 1 : 0;
  fold.modulus[0] = m;
  fold.weight[0] = 1;
  for (std::size_t j = 0; j < fold.lat.d; ++j) fold.unit[j][0] = 1;
  fold.num_orbits = m;
  fold.stabilizer_size = fold.lat.num_nodes / m;
  finish_labels(fold);
  return fold;
}

TranslationFold translation_fold(const Torus& torus, const Placement& p) {
  p.check_torus(torus);
  const Lattice lat(torus);
  return fold_placement(lat, p, node_coords(lat, p));
}

double FoldedLoads::max_load() const {
  double m = 0.0;
  for (const double v : orbit_load) m = std::max(m, v);
  return m;
}

double FoldedLoads::mean_load() const {
  const i64 links = static_cast<i64>(orbit_load.size()) * fold.stabilizer_size;
  return links == 0 ? 0.0 : Rational(lee_total, links).to_double();
}

i64 FoldedLoads::num_loaded_edges(double tol) const {
  i64 n = 0;
  for (const double v : orbit_load)
    if (v > tol) ++n;
  return n * fold.stabilizer_size;
}

LoadMap FoldedLoads::broadcast(const Torus& torus) const {
  TP_PROF_PHASE("fold.broadcast");
  TP_REQUIRE(torus.num_nodes() == fold.lat.num_nodes &&
                 static_cast<std::size_t>(torus.dims()) == fold.lat.d,
             "loads were folded on a different torus");
  const auto total = static_cast<double>(lee_total);
  if (fold.stabilizer_size == 1) return LoadMap(torus, orbit_load, total);
  const std::size_t slots = 2 * fold.lat.d;
  std::vector<double> loads(
      static_cast<std::size_t>(torus.num_directed_edges()));
  for_each_label(fold, [&](NodeId n, i64 label) {
    std::copy_n(&orbit_load[static_cast<std::size_t>(label) * slots], slots,
                &loads[static_cast<std::size_t>(n) * slots]);
  });
  return LoadMap(torus, std::move(loads), total);
}

namespace {

/// The placement, its coordinates and its fold: what every routed source
/// reads.
struct Sources {
  Sources(const Torus& torus, const Placement& p)
      : lat(torus),
        nodes(p.nodes()),
        coords(node_coords(lat, p)),
        fold(fold_placement(lat, p, coords)) {
    for (std::size_t dim = 0; dim < lat.d; ++dim) {
      first[dim] = multiples.size();
      for (i32 v = 0; v < lat.radix[dim]; ++v) {
        multiples.emplace_back();
        shift(fold, multiples.back(), dim, v);
      }
    }
  }

  const i32* coord(std::size_t i) const { return &coords[i * lat.d]; }

  /// The coset of v·e_dim, 0 <= v < k_dim.
  const Coset& multiple(std::size_t dim, i32 v) const {
    return multiples[first[dim] + static_cast<std::size_t>(v)];
  }

  /// c moves from coordinate a to b along dim.
  void move(std::size_t dim, Coset& c, i32 a, i32 b) const {
    add_along(fold, c, multiple(dim, b >= a ? b - a : b - a + lat.radix[dim]),
              dim);
  }

  /// The coset of one step along dim in direction dir.
  const Coset& hop(std::size_t dim, Dir dir) const {
    return multiple(dim, dir == Dir::Pos ? 1 : lat.radix[dim] - 1);
  }

  /// c moves one step along dim in direction dir.
  void step(std::size_t dim, Coset& c, Dir dir) const {
    add_along(fold, c, hop(dim, dir), dim);
  }

  Lattice lat;
  const std::vector<NodeId>& nodes;
  std::vector<i32> coords;
  TranslationFold fold;
  std::vector<Coset> multiples;  ///< dimension by dimension, from first[dim]
  std::array<std::size_t, kMaxDims> first{};
};

/// One worker's load per link orbit, in FoldedLoads' layout.
template <typename W>
class OrbitBuckets {
 public:
  explicit OrbitBuckets(const Sources& sources)
      : sources_(&sources),
        slots_(2 * static_cast<i64>(sources.lat.d)),
        sums_(static_cast<std::size_t>(sources.fold.num_orbits * slots_),
              W{0}) {}

  void add(i64 label, i64 slot, W w) {
    sums_[static_cast<std::size_t>(label * slots_ + slot)] += w;
  }

  /// Ring walks along one dimension and direction, set up once: each call
  /// adds w to the `steps` links of the walk that starts at a node of
  /// coset `at`, one add_along per hop.
  class Ring {
   public:
    Ring() = default;
    Ring(OrbitBuckets& out, std::size_t dim, Dir dir)
        : fold_(&out.sources_->fold),
          base_(out.sums_.data() + 2 * dim + (dir == Dir::Pos ? 0 : 1)),
          stride_(out.slots_),
          dim_(dim),
          hop_(out.sources_->hop(dim, dir)) {}

    void operator()(Coset at, i32 steps, W w) const {
      // Locals: the stores below cannot alias them.
      W* const base = base_;
      const i64 stride = stride_;
      const Coset hop = hop_;
      for (i32 h = 0; h < steps; ++h) {
        base[at.label * stride] += w;
        add_along(*fold_, at, hop, dim_);
      }
    }

   private:
    const TranslationFold* fold_ = nullptr;
    W* base_ = nullptr;  ///< the buckets of this dimension and direction
    i64 stride_ = 0;
    std::size_t dim_ = 0;
    Coset hop_;
  };

  void merge(const OrbitBuckets& other) {
    for (std::size_t i = 0; i < sums_.size(); ++i) sums_[i] += other.sums_[i];
  }

  W sum() const {
    W total{0};
    for (const W v : sums_) total += v;
    return total;
  }

  /// Every bucket divided by `unit`.
  std::vector<double> values(double unit) const {
    std::vector<double> out(sums_.size());
    for (std::size_t i = 0; i < sums_.size(); ++i)
      out[i] = static_cast<double>(sums_[i]) / unit;
    return out;
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
  Coset at;  ///< entry node's coset
  i32 steps;
  i32 weight;  ///< at most 2·d!
};

/// Routes representatives [lo, hi) under ODR and returns the sum of their
/// pairs' Lee distances.  Two passes per source, so route enumeration and
/// the link-load walk profile as separate phases (odr.route / odr.walk)
/// at a grain coarse enough that the attribution does not distort what it
/// measures.  Segments are kept per dimension and direction, and each
/// list is walked with one Ring: integer adds, so the order is free.
i64 route_odr(const Sources& src_set, const SmallVec<i32>& order,
              TieBreak tie, i64 unit, OrbitBuckets<i64>& out, i64 lo,
              i64 hi) {
  const Lattice& lat = src_set.lat;
  const TranslationFold& fold = src_set.fold;
  std::array<std::vector<OdrSegment>, 2 * kMaxDims> segs;
  for (std::size_t slot = 0; slot < 2 * lat.d; ++slot)
    segs[slot].reserve(src_set.nodes.size());  // one per pair at most
  std::array<i32, kMaxDims> cs{};
  i64 lee = 0;
  for (i64 r = lo; r < hi; ++r) {
    const NodeId src = fold.reps[static_cast<std::size_t>(r)];
    lat.decode(src, cs.data());
    const Coset start = coset_of(fold, cs.data());
    for (auto& list : segs) list.clear();
    {
      TP_PROF_PHASE("odr.route");
      for (std::size_t j = 0; j < src_set.nodes.size(); ++j) {
        if (src_set.nodes[j] == src) continue;
        const i32* cd = src_set.coord(j);
        // Dimensions are corrected in order; the node entering each
        // dimension is deterministic (earlier dims at dst, later at src)
        // regardless of any tie direction taken earlier, so each
        // dimension's segment(s) can be enumerated without walking links.
        Coset at = start;
        for (const i32 dim : order) {
          const auto u = static_cast<std::size_t>(dim);
          const Correction c = correction(lat.radix[u], cs[u], cd[u], tie);
          if (c.count == 0) continue;
          lee += c.steps[0];
          for (std::size_t i = 0; i < static_cast<std::size_t>(c.count); ++i)
            segs[2 * u + (c.dir[i] == Dir::Pos ? 0 : 1)].push_back(
                OdrSegment{at, c.steps[i], static_cast<i32>(unit / c.count)});
          src_set.move(u, at, cs[u], cd[u]);
        }
      }
    }
    {
      TP_PROF_PHASE("odr.walk");
      for (std::size_t slot = 0; slot < 2 * lat.d; ++slot) {
        const OrbitBuckets<i64>::Ring ring(out, slot / 2,
                                           slot % 2 == 0 ? Dir::Pos : Dir::Neg);
        for (const OdrSegment& seg : segs[slot]) ring(seg.at, seg.steps, seg.weight);
      }
    }
  }
  return lee;
}

/// Routes representatives [lo, hi) under UDR with subset weights and
/// returns the sum of their pairs' Lee distances: correcting dimension j
/// after the subset S of the other s-1 differing dimensions happens in
/// |S|!(s-1-|S|)!/s! of all orders, and the walk then enters j's segment
/// at the node whose S-dims sit at dst and the rest at src — whatever
/// directions S took.
i64 route_udr(const Sources& src_set, TieBreak tie, i64 unit,
              OrbitBuckets<i64>& out, i64 lo, i64 hi) {
  const Lattice& lat = src_set.lat;
  const TranslationFold& fold = src_set.fold;
  const auto d = static_cast<i64>(lat.d);
  std::array<OrbitBuckets<i64>::Ring, 2 * kMaxDims> ring;
  for (std::size_t slot = 0; slot < 2 * lat.d; ++slot)
    ring[slot] = OrbitBuckets<i64>::Ring(out, slot / 2,
                                         slot % 2 == 0 ? Dir::Pos : Dir::Neg);
  // order_weight[s][m] = unit · m!(s-1-m)!/s!, an integer for s <= d.
  std::array<std::array<i64, kMaxDims>, kMaxDims + 1> order_weight{};
  for (i64 s = 1; s <= d; ++s)
    for (i64 m = 0; m < s; ++m)
      order_weight[static_cast<std::size_t>(s)][static_cast<std::size_t>(m)] =
          unit / factorial(s) * factorial(m) * factorial(s - 1 - m);

  std::array<i32, kMaxDims> cs{};
  std::array<std::size_t, kMaxDims> diff{};
  std::array<Correction, kMaxDims> corr{};
  std::array<std::size_t, kMaxDims> others{};
  std::array<Coset, std::size_t{1} << (kMaxDims - 1)> entry{};
  i64 lee = 0;
  for (i64 r = lo; r < hi; ++r) {
    const NodeId src = fold.reps[static_cast<std::size_t>(r)];
    lat.decode(src, cs.data());
    const Coset start = coset_of(fold, cs.data());
    for (std::size_t j = 0; j < src_set.nodes.size(); ++j) {
      if (src_set.nodes[j] == src) continue;
      const i32* cd = src_set.coord(j);
      std::size_t s = 0;
      for (std::size_t u = 0; u < lat.d; ++u) {
        if (cs[u] == cd[u]) continue;
        diff[s] = u;
        corr[s] = correction(lat.radix[u], cs[u], cd[u], tie);
        lee += corr[s].steps[0];
        ++s;
      }
      for (std::size_t ji = 0; ji < s; ++ji) {
        std::size_t n_others = 0;
        for (std::size_t i = 0; i < s; ++i)
          if (i != ji) others[n_others++] = i;
        // entry[mask]: src with the dims in mask moved to dst.
        const std::uint32_t subsets = 1u << n_others;
        entry[0] = start;
        for (std::uint32_t mask = 1; mask < subsets; ++mask) {
          const std::size_t low =
              others[static_cast<std::size_t>(std::countr_zero(mask))];
          const std::size_t u = diff[low];
          entry[mask] = entry[mask & (mask - 1)];
          src_set.move(u, entry[mask], cs[u], cd[u]);
        }
        const Correction& c = corr[ji];
        for (std::size_t i = 0; i < static_cast<std::size_t>(c.count); ++i) {
          const auto& walk =
              ring[2 * diff[ji] + (c.dir[i] == Dir::Pos ? 0 : 1)];
          for (std::uint32_t mask = 0; mask < subsets; ++mask)
            walk(entry[mask], c.steps[i],
                 order_weight[s][static_cast<std::size_t>(std::popcount(mask))] /
                     c.count);
        }
      }
    }
  }
  return lee;
}

enum class Walk { Odr, Udr };

SmallVec<i32> identity_order(const Torus& torus) {
  SmallVec<i32> order;
  for (i32 dim = 0; dim < torus.dims(); ++dim) order.push_back(dim);
  return order;
}

/// The ODR and UDR kernel.  Routes every coset representative into int64
/// link-orbit buckets, spread over up to `threads` workers when the routed
/// pairs, reps·(|P|-1), are enough to pay for them, and sums the workers'
/// buckets (integer adds: exact in any order, so every width agrees bit
/// for bit).  Counts are in units of 1/(2·d!), which every ODR and UDR
/// link weight is a multiple of.  Every bucket holds at most the total
/// load, sum over ordered pairs of Lee distances <= |P|(|P|-1)·Σ⌊k_i/2⌋;
/// below 2^53 units it is exact both as an int64 and as the double it is
/// divided as, so each load is the correctly rounded rational.  Each pair
/// puts exactly its Lee distance in units on the links, which the sum of
/// the buckets must show.
FoldedLoads exact_orbit_loads(const Torus& torus, const Placement& p,
                              i32 threads, Walk walk, SmallVec<i32> order,
                              TieBreak tie) {
  p.check_torus(torus);
  if (walk == Walk::Odr) {
    if (order.empty())
      order = identity_order(torus);
    else
      OdrRouter(order, tie).correction_order(torus);  // validate permutation
  }
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

  Sources sources(torus, p);
  const auto reps = static_cast<i64>(sources.fold.reps.size());
  const i32 workers = effective_workers(
      reps * std::max<i64>(p.size() - 1, 0), threads, kMinPairsPerWorker);
  std::vector<OrbitBuckets<i64>> partial(static_cast<std::size_t>(workers),
                                         OrbitBuckets<i64>(sources));
  std::vector<i64> lee(static_cast<std::size_t>(workers), 0);
  const auto route = [&](i32 worker, i64 lo, i64 hi) {
    const auto w = static_cast<std::size_t>(worker);
    lee[w] = walk == Walk::Odr
                 ? route_odr(sources, order, tie, unit, partial[w], lo, hi)
                 : route_udr(sources, tie, unit, partial[w], lo, hi);
  };
  if (workers == 1)
    route(0, 0, reps);
  else
    parallel_for_blocks(reps, workers, route);
  for (std::size_t w = 1; w < partial.size(); ++w) {
    partial[0].merge(partial[w]);
    lee[0] += lee[w];
  }
  const i64 lee_total = lee[0] * sources.fold.stabilizer_size;
  TP_ASSERT(partial[0].sum() * sources.fold.stabilizer_size ==
                unit * lee_total,
            "link loads do not add up to the Lee distances");
  return FoldedLoads{std::move(sources.fold),
                     partial[0].values(static_cast<double>(unit)), lee_total};
}

}  // namespace

FoldedLoads odr_orbit_loads(const Torus& torus, const Placement& p,
                            TieBreak tie, i32 threads) {
  TP_OBS_SCOPE("load.odr");
  return exact_orbit_loads(torus, p, threads, Walk::Odr, {}, tie);
}

FoldedLoads udr_orbit_loads(const Torus& torus, const Placement& p,
                            TieBreak tie, i32 threads) {
  TP_OBS_SCOPE("load.udr");
  return exact_orbit_loads(torus, p, threads, Walk::Udr, {}, tie);
}

LoadMap reference_loads(const Torus& torus, const Placement& p,
                        const Router& router) {
  p.check_torus(torus);
  std::vector<Rational> exact(
      static_cast<std::size_t>(torus.num_directed_edges()));
  for (NodeId src : p.nodes()) {
    for (NodeId dst : p.nodes()) {
      if (src == dst) continue;
      const auto paths = router.paths(torus, src, dst);
      TP_ASSERT(!paths.empty(), "router produced no path for a pair");
      const Rational w(1, static_cast<i64>(paths.size()));
      for (const Path& path : paths)
        for (EdgeId e : path.edges) exact[static_cast<std::size_t>(e)] += w;
    }
  }
  std::vector<double> loads(exact.size());
  for (std::size_t e = 0; e < exact.size(); ++e)
    loads[e] = exact[e].to_double();
  return LoadMap(torus, std::move(loads));
}

LoadMap odr_loads(const Torus& torus, const Placement& p, TieBreak tie) {
  return odr_loads_ordered(torus, p, identity_order(torus), tie);
}

LoadMap odr_loads_ordered(const Torus& torus, const Placement& p,
                          const SmallVec<i32>& order, TieBreak tie) {
  TP_OBS_SCOPE("load.odr");
  return exact_orbit_loads(torus, p, 1, Walk::Odr, order, tie)
      .broadcast(torus);
}

LoadMap udr_loads(const Torus& torus, const Placement& p, TieBreak tie) {
  TP_OBS_SCOPE("load.udr");
  return exact_orbit_loads(torus, p, 1, Walk::Udr, {}, tie).broadcast(torus);
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

/// The adaptive kernel.
FoldedLoads adaptive_kernel(const Torus& torus, const Placement& p) {
  p.check_torus(torus);
  TP_OBS_COUNT("load.pairs_evaluated", p.size() * (p.size() - 1));
  // Adaptive weights are multinomial ratios with no fixed denominator, so
  // this is the one kernel that folds into double buckets.
  Sources sources(torus, p);
  OrbitBuckets<double> loads(sources);
  const Lattice& lat = sources.lat;
  const TranslationFold& fold = sources.fold;
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
  // level[i]: coset of the corridor node at pos with the positions after
  // i at 0; level[d-1] is the node at pos.
  std::array<Coset, kMaxDims> level{};
  i64 lee = 0;
  for (const NodeId src : fold.reps) {
    lat.decode(src, cs.data());
    const Coset start = coset_of(fold, cs.data());
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
      TP_REQUIRE(!__builtin_add_overflow(lee, total, &lee),
                 "total load overflows int64");
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
        // last fastest.
        pos.fill(0);
        level.fill(start);
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
          const i64 u = level[d - 1].label;
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
              sources.step(i, level[i], dir[i] > 0 ? Dir::Pos : Dir::Neg);
              for (std::size_t m = i + 1; m < d; ++m) level[m] = level[i];
              more = true;
              break;
            }
            steps_to -= pos[i];
            pos[i] = 0;
          }
        }
      });
    }
  }
  i64 lee_total = 0;
  TP_REQUIRE(!__builtin_mul_overflow(lee, fold.stabilizer_size, &lee_total),
             "total load overflows int64");
  // Each pair spreads one unit over each hop of its paths; the double
  // buckets agree with the exact count to rounding.
  const auto total = static_cast<double>(lee_total);
  TP_ASSERT(std::abs(loads.sum() * static_cast<double>(fold.stabilizer_size) -
                     total) <= 1e-9 * total,
            "link loads do not add up to the Lee distances");
  return FoldedLoads{std::move(sources.fold), loads.values(1.0), lee_total};
}

}  // namespace

FoldedLoads adaptive_orbit_loads(const Torus& torus, const Placement& p) {
  TP_OBS_SCOPE("load.adaptive");
  return adaptive_kernel(torus, p);
}

LoadMap adaptive_loads(const Torus& torus, const Placement& p) {
  TP_OBS_SCOPE("load.adaptive");
  return adaptive_kernel(torus, p).broadcast(torus);
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
