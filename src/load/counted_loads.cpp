#include "src/load/counted_loads.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/obs/obs.h"
#include "src/torus/lattice.h"
#include "src/util/error.h"
#include "src/util/math.h"

namespace tp {

std::optional<CosetUnion> coset_union_of(const Torus& torus,
                                         const Placement& p) {
  p.check_torus(torus);
  if (!torus.is_uniform_radix()) return std::nullopt;
  const i32 d = torus.dims();
  const i32 k = torus.radix(0);
  // Node r < k has coordinates (0, ..., 0, r), so residue r: C is read off
  // the first k ids.
  CosetUnion u{d, k, std::vector<bool>(static_cast<std::size_t>(k), false)};
  i64 classes = 0;
  for (i32 r = 0; r < k; ++r)
    if (p.contains(r)) {
      u.classes[static_cast<std::size_t>(r)] = true;
      ++classes;
    }
  if (classes == 0 || p.size() != classes * (torus.num_nodes() / k))
    return std::nullopt;
  // With that size, P is the union once every node's residue is in C.
  // P's nodes, in id order, fill the rows (c_0, ..., c_{d-2}, *) of an
  // odometer |C| at a time; a node outside its row or its classes fails.
  const Lattice lat(torus);
  std::vector<i32> c(lat.d, 0);
  i64 base = 0;  // id of (c_0, ..., c_{d-2}, 0)
  i64 sum = 0;   // c_0 + ... + c_{d-2} mod k
  const std::vector<NodeId>& nodes = p.nodes();
  for (std::size_t next = 0; next < nodes.size();) {
    for (const std::size_t end = next + static_cast<std::size_t>(classes);
         next < end; ++next) {
      const i64 last = nodes[next] - base;
      if (last < 0 || last >= k) return std::nullopt;
      const i64 residue = last + sum < k ? last + sum : last + sum - k;
      if (!u.classes[static_cast<std::size_t>(residue)]) return std::nullopt;
    }
    // Both a step and a wrap (-(k-1)) add 1 to the sum mod k.
    for (std::size_t i = lat.d - 1; i-- > 0;) {
      sum = sum + 1 == k ? 0 : sum + 1;
      if (++c[i] < k) {
        base += lat.stride[i];
        break;
      }
      c[i] = 0;
      base -= (k - 1) * lat.stride[i];
    }
  }
  return u;
}

namespace {

// --- shared ------------------------------------------------------------

std::vector<i64> residues_of(const CosetUnion& u) {
  std::vector<i64> out;
  for (i32 r = 0; r < u.k; ++r)
    if (u.classes[static_cast<std::size_t>(r)]) out.push_back(r);
  return out;
}

/// The least period m of C (m divides k): the orbits are the labels
/// Σx mod m.
i64 class_period(const CosetUnion& u) {
  const auto k = static_cast<std::size_t>(u.k);
  for (std::size_t m = 1; m < k; ++m) {
    if (k % m != 0) continue;
    bool periodic = true;
    for (std::size_t r = 0; r < k && periodic; ++r)
      periodic = u.classes[r] == u.classes[(r + m) % k];
    if (periodic) return static_cast<i64>(m);
  }
  return u.k;
}

i64 checked_mul(i64 a, i64 b) {
  i64 out = 0;
  TP_REQUIRE(!__builtin_mul_overflow(a, b, &out), "total load overflows int64");
  return out;
}

/// Σ over ordered pairs of P of the Lee distance: k^{d-1} sources per
/// class, and for d >= 2 the offsets with a given coordinate sum put
/// d·k^{d-2}·⌊k²/4⌋ hops on the links, whatever the sum.
i64 lee_total_of(const CosetUnion& u) {
  const std::vector<i64> residues = residues_of(u);
  const i64 k = u.k;
  if (u.d == 1) {
    i64 lee = 0;
    for (const i64 a : residues)
      for (const i64 b : residues) lee += cyclic_distance(a, b, k);
    return lee;
  }
  const auto classes = static_cast<i64>(residues.size());
  i64 lee = checked_mul(classes, classes);
  lee = checked_mul(lee, u.d);
  lee = checked_mul(lee, k * k / 4);
  for (i32 i = 0; i < 2 * u.d - 3; ++i) lee = checked_mul(lee, k);
  return lee;
}

/// The fold, with one representative per orbit: node o < m, residue o.
TranslationFold fold_of(const CosetUnion& u, i64 period) {
  TranslationFold fold = coordinate_sum_fold(Torus(u.d, u.k), period);
  for (i64 o = 0; o < period; ++o)
    if (u.classes[static_cast<std::size_t>(o)]) fold.reps.push_back(o);
  return fold;
}

/// FoldedLoads from per-dimension label loads: pos[i][a] and neg[i][a]
/// for dimension i and residue a < period.
FoldedLoads assemble(const CosetUnion& u, i64 lee_total,
                     const std::vector<std::vector<double>>& pos,
                     const std::vector<std::vector<double>>& neg) {
  const i64 period = class_period(u);
  const auto d = static_cast<std::size_t>(u.d);
  std::vector<double> loads(static_cast<std::size_t>(period) * 2 * d);
  for (std::size_t o = 0; o < static_cast<std::size_t>(period); ++o)
    for (std::size_t i = 0; i < d; ++i) {
      loads[o * 2 * d + 2 * i] = pos[i][o];
      loads[o * 2 * d + 2 * i + 1] = neg[i][o];
    }
  return FoldedLoads{fold_of(u, period), std::move(loads), lee_total};
}

// --- ODR and UDR: weighted runs -----------------------------------------

/// f(x) = a + b·[x ∈ C]: a count of tuples, summed over the classes.
struct ClassFn {
  i128 a = 0;
  i128 b = 0;
};

/// The weight, in units, of the runs that enter a dimension at label A
/// and correct an offset D there: x + y·[A ∈ C] + z·[A + D ∈ C] +
/// v·[A ∈ C]·[A + D ∈ C].
struct RunWeight {
  i128 x = 0, y = 0, z = 0, v = 0;

  /// += coef·f(A)·g(A + D).
  void add(i128 coef, const ClassFn& f, const ClassFn& g) {
    x += coef * f.a * g.a;
    y += coef * f.b * g.a;
    z += coef * f.a * g.b;
    v += coef * f.b * g.b;
  }

  bool operator==(const RunWeight&) const = default;
};

/// One dimension's loads per label, in units.
struct RunLoads {
  std::vector<i128> pos, neg;
};

/// Adds every run of one dimension: the run entering at label A with
/// offset D in [1, k) moves min(D, k - D) hops, positive when D <= k - D
/// (PositiveOnly), and loads the links whose tails are the labels of its
/// first hops.  The x part loads every label alike; the others start at
/// or end in a class, so difference arrays over the ring take them in
/// O(|C|·k).
RunLoads add_runs(const RunWeight& w, const std::vector<bool>& in, i32 k) {
  const auto n = static_cast<std::size_t>(k);
  std::vector<std::size_t> residues;
  for (std::size_t r = 0; r < n; ++r)
    if (in[r]) residues.push_back(r);
  std::vector<i128> pos(n + 1, 0), neg(n + 1, 0);
  i128 all_pos = 0, all_neg = 0;
  for (std::size_t step = 1; step < n; ++step) {
    const bool forward = step <= n - step;
    const std::size_t len = forward ? step : n - step;
    std::vector<i128>& diff = forward ? pos : neg;
    (forward ? all_pos : all_neg) += w.x * static_cast<i128>(len);
    // The run entering at a covers [a, a + len) forward and
    // [a - len + 1, a] backward.
    const auto run = [&](std::size_t a, i128 weight) {
      const std::size_t lo = forward ? a : (a + n + 1 - len) % n;
      diff[lo] += weight;
      if (lo + len <= n) {
        diff[lo + len] -= weight;
      } else {
        diff[n] -= weight;
        diff[0] += weight;
        diff[lo + len - n] -= weight;
      }
    };
    for (const std::size_t c : residues) {
      if (w.y != 0) run(c, w.y);
      if (w.z != 0) run((c + n - step) % n, w.z);
      if (w.v != 0 && in[(c + step) % n]) run(c, w.v);
    }
  }
  RunLoads out{std::vector<i128>(n), std::vector<i128>(n)};
  for (std::size_t a = 0; a < n; ++a) {
    out.pos[a] = all_pos += pos[a];
    out.neg[a] = all_neg += neg[a];
  }
  return out;
}

/// k^e as an i128 (e >= 0; the torus bounds k^d below 2^63).
i128 power(i64 k, i64 e) {
  i128 out = 1;
  for (i64 i = 0; i < e; ++i) out *= k;
  return out;
}

/// The ODR and UDR counts, per dimension, in units of 1/unit.
std::vector<RunLoads> count_runs(const CosetUnion& u, RouterKind kind,
                                 i64 unit) {
  const i32 d = u.d;
  const i64 k = u.k;
  const auto classes = static_cast<i128>(residues_of(u).size());
  std::vector<RunLoads> out;
  if (kind == RouterKind::Odr) {
    // Dimension i is entered from a source of class c at c + Σ_{j<i} D_j:
    // k^{i-1} prefixes per sum (only the empty one when i = 0), and
    // k^{d-2-i} suffixes per destination class (only the empty one when
    // i = d - 1).
    RunWeight last;
    for (i32 i = 0; i < d; ++i) {
      const ClassFn from = i == 0 ? ClassFn{0, 1}
                                  : ClassFn{classes * power(k, i - 1), 0};
      const ClassFn to = i == d - 1 ? ClassFn{0, 1}
                                    : ClassFn{classes * power(k, d - 2 - i), 0};
      RunWeight w;
      w.add(unit, from, to);
      if (i > 0 && w == last)
        out.push_back(out.back());
      else
        out.push_back(add_runs(w, u.classes, u.k));
      last = w;
    }
    return out;
  }
  // UDR: of the d - 1 other dimensions, m are corrected before j (all
  // nonzero), n after it (nonzero) and the rest are zero; the order
  // weight m!n!/(m+n+1)! times the (d-1)!/(m!n!(d-1-m-n)!) ways to pick
  // them is (d-1)!/((d-1-m-n)!(m+n+1)!).
  std::vector<ClassFn> nonzero(static_cast<std::size_t>(d));
  i128 kp = 1;  // (k - 1)^m
  i128 sign = 1;
  for (i32 m = 0; m < d; ++m) {
    nonzero[static_cast<std::size_t>(m)] = ClassFn{classes * ((kp - sign) / k), sign};
    kp *= k - 1;
    sign = -sign;
  }
  RunWeight w;
  for (i32 m = 0; m < d; ++m)
    for (i32 n = 0; m + n < d; ++n) {
      const i128 coef = static_cast<i128>(unit) / factorial(m + n + 1) *
                        factorial(d - 1) / factorial(d - 1 - m - n);
      w.add(coef, nonzero[static_cast<std::size_t>(m)],
            nonzero[static_cast<std::size_t>(n)]);
    }
  out.assign(static_cast<std::size_t>(d), add_runs(w, u.classes, u.k));
  return out;
}

FoldedLoads counted_exact(const CosetUnion& u, RouterKind kind) {
  const i64 lee_total = lee_total_of(u);
  const i64 unit = 2 * factorial(u.d);
  const std::vector<RunLoads> runs = count_runs(u, kind, unit);
  // Each pair puts exactly its Lee distance in units on the links, which
  // the buckets, k^{d-1} links each, must show.
  i128 sum = 0;
  for (const RunLoads& r : runs)
    for (std::size_t a = 0; a < r.pos.size(); ++a) sum += r.pos[a] + r.neg[a];
  TP_ASSERT(sum * power(u.k, u.d - 1) == static_cast<i128>(unit) * lee_total,
            "link loads do not add up to the Lee distances");
  const auto d = static_cast<std::size_t>(u.d);
  std::vector<std::vector<double>> pos(d), neg(d);
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t a = 0; a < runs[i].pos.size(); ++a) {
      pos[i].push_back(round_quotient(static_cast<u128>(runs[i].pos[a]),
                                      static_cast<u64>(unit)));
      neg[i].push_back(round_quotient(static_cast<u128>(runs[i].neg[a]),
                                      static_cast<u64>(unit)));
    }
  return assemble(u, lee_total, pos, neg);
}

// --- adaptive: corridor states in double-double --------------------------

/// hi + lo with |lo| <= ulp(hi)/2.  Only non-negative values are formed,
/// and every operation below has a relative error under 4u² (u = 2^-53):
/// kOpError bounds it with room to spare.
struct Dd {
  double hi = 0.0;
  double lo = 0.0;
};

constexpr double kOpError = 0x1p-100;

Dd fast_two_sum(double a, double b) {
  const double s = a + b;
  return {s, b - (s - a)};
}

Dd two_sum(double a, double b) {
  const double s = a + b;
  const double bb = s - a;
  return {s, (a - (s - bb)) + (b - bb)};
}

/// a·m exactly, for an integer m < 2^26: Dekker's product, with m short
/// enough to need no split.
Dd two_prod(double a, double m) {
  const double p = a * m;
  const double c = 134217729.0 * a;  // 2^27 + 1: Veltkamp's split
  const double a1 = c - (c - a);
  const double a2 = a - a1;
  return {p, (a1 * m - p) + a2 * m};
}

Dd operator+(Dd x, Dd y) {
  const Dd s = two_sum(x.hi, y.hi);
  return fast_two_sum(s.hi, s.lo + (x.lo + y.lo));
}

/// x·m for an integer m in [0, 2^26).
Dd operator*(Dd x, double m) {
  const Dd p = two_prod(x.hi, m);
  return fast_two_sum(p.hi, p.lo + x.lo * m);
}

/// x/m for an integer m in [1, 2^26).
Dd operator/(Dd x, double m) {
  const double q = x.hi / m;
  const Dd p = two_prod(q, m);
  return fast_two_sum(q, ((x.hi - p.hi) - p.lo + x.lo) / m);
}

Dd exact(i128 n) {
  const auto hi = static_cast<double>(n);
  return fast_two_sum(hi, static_cast<double>(n - static_cast<i128>(hi)));
}

/// The double nearest x's exact value, which lies within a relative
/// `error` of x.  TP_ASSERT: every value that close rounds the same way.
double round_within(Dd x, double error) {
  if (x.hi == 0.0) return 0.0;
  const double up = std::nextafter(x.hi, std::numeric_limits<double>::infinity());
  const double down = std::nextafter(x.hi, 0.0);
  const double slack = 2 * error * x.hi;
  TP_ASSERT(x.lo + slack < (up - x.hi) / 2 && slack - x.lo < (x.hi - down) / 2,
            "adaptive load too close to a rounding boundary for its error "
            "bound");
  return x.hi;
}

/// Offsets of T_k^d per (D_+, D_-), times 2^d: the coefficient of
/// x^{D_+}·y^{D_-} in (A(x) + B(y))^d, where A(x) = 2 + 2(x + ... + x^L)
/// + [k even]·x^{k/2} counts one dimension's zero or positive corrections
/// (a tie commits each way with weight 1/2) and B(y) = A(y) - 2 its
/// negative ones; L = ⌊(k-1)/2⌋.
class OffsetCounts {
 public:
  OffsetCounts(i32 d, i32 k) : d_(d) {
    const i32 half = k / 2;
    const i32 longest = (k - 1) / 2;
    const bool even = k % 2 == 0;
    // next = 2·Σ_{l=first}^{longest} prev·x^l + [even]·prev·x^{half}.
    const auto times = [&](const std::vector<i128>& prev, i32 first) {
      std::vector<i128> next(prev.size() + static_cast<std::size_t>(half), 0);
      std::vector<i128> prefix(prev.size() + 1, 0);
      for (std::size_t i = 0; i < prev.size(); ++i)
        prefix[i + 1] = prefix[i] + prev[i];
      const auto top = static_cast<i64>(prev.size());
      for (std::size_t e = 0; e < next.size(); ++e) {
        const auto x = static_cast<i64>(e);
        // Σ prev[x - l] for l in [first, longest], x - l in [0, top).
        const i64 hi = std::min(x - first, top - 1);
        const i64 lo = std::max<i64>(x - longest, 0);
        if (hi >= lo)
          next[e] = 2 * (prefix[static_cast<std::size_t>(hi + 1)] -
                         prefix[static_cast<std::size_t>(lo)]);
        if (even && x >= half && x - half < top)
          next[e] += prev[static_cast<std::size_t>(x - half)];
      }
      return next;
    };
    plus_.push_back({1});
    minus_.push_back({1});
    for (i32 j = 1; j <= d; ++j) {
      plus_.push_back(times(plus_.back(), 0));
      minus_.push_back(times(minus_.back(), 1));
    }
  }

  i128 operator()(i32 plus, i32 minus) const {
    i128 n = 0;
    for (i32 j = 0; j <= d_; ++j) {
      const auto& a = plus_[static_cast<std::size_t>(j)];
      const auto& b = minus_[static_cast<std::size_t>(d_ - j)];
      if (static_cast<std::size_t>(plus) < a.size() &&
          static_cast<std::size_t>(minus) < b.size())
        n += binomial(d_, j) * a[static_cast<std::size_t>(plus)] *
             b[static_cast<std::size_t>(minus)];
    }
    return n;
  }

 private:
  i32 d_;
  std::vector<std::vector<i128>> plus_, minus_;  ///< A^j, B^j
};

/// Expands the class of offsets with `plus` positive and `minus` negative
/// steps, `weight` of them, into pos/neg[(r_+ - r_-) mod k]: the flow of
/// a uniform minimal path through its states.  A state holds the weight
/// of paths reaching it, and passes (plus - r_+)/(n - r) of it on along a
/// positive dimension, the rest along a negative one.  The states of one
/// anti-diagonal r = r_+ + r_- are independent, so they go one diagonal at
/// a time (`here`, then `next`); every value is a positive sum of positive
/// terms, and a term is at most 3n operations deep.
void expand_class(i32 plus, i32 minus, Dd weight, i32 k, Dd* pos, Dd* neg,
                  std::vector<Dd>& here, std::vector<Dd>& next) {
  const i32 n = plus + minus;
  const auto ring = static_cast<std::size_t>(k);
  here.assign(static_cast<std::size_t>(plus) + 2, Dd{});
  next.assign(static_cast<std::size_t>(plus) + 2, Dd{});
  here[0] = weight;
  for (i32 r = 0; r < n; ++r) {
    const i32 first = std::max(0, r - minus);
    const i32 last = std::min(plus, r);
    const auto steps = static_cast<double>(n - r);
    // Label offset of state (first, r - first): 2·first - r mod k.
    auto at = static_cast<std::size_t>(((2 * first - r) % k + k) % k);
    Dd carry{};  // the positive share of the state before
    for (i32 rp = first; rp <= last; ++rp) {
      const auto i = static_cast<std::size_t>(rp);
      const Dd share = here[i] / steps;
      const Dd up = share * static_cast<double>(plus - rp);
      const Dd down = share * static_cast<double>(minus - (r - rp));
      pos[at] = pos[at] + up;
      neg[at] = neg[at] + down;
      next[i] = down + carry;
      carry = up;
      at += 2;
      if (at >= ring) at -= ring;
    }
    next[static_cast<std::size_t>(last) + 1] = carry;
    std::swap(here, next);
  }
}

/// The maximal runs [lo, lo + len) of `in` on the ring Z_k; one run of
/// length k when every residue is in.
std::vector<std::pair<i32, i32>> ring_runs(const std::vector<bool>& in) {
  const auto k = static_cast<i32>(in.size());
  i32 gap = -1;
  for (i32 r = 0; r < k && gap < 0; ++r)
    if (!in[static_cast<std::size_t>(r)]) gap = r;
  if (gap < 0) return {{0, k}};
  std::vector<std::pair<i32, i32>> runs;
  for (i32 step = 1; step <= k; ++step) {
    const i32 r = (gap + step) % k;
    if (!in[static_cast<std::size_t>(r)]) continue;
    if (!runs.empty() && (runs.back().first + runs.back().second) % k == r)
      ++runs.back().second;
    else
      runs.push_back({r, 1});
  }
  return runs;
}

/// out[(lo + b) mod k] += Σ_{u < len} prof[(b - u) mod k] for every b:
/// the profile added at the `len` sources lo, ..., lo + len - 1.  Window
/// sums by blocks of len (van Herk / Gil-Werman), so every value is a sum
/// of positive terms at most 2·len + 1 operations deep: O(k + len).
void add_at_sources(const std::vector<Dd>& prof, i32 lo, i32 len,
                    std::vector<Dd>& out) {
  const auto k = static_cast<std::size_t>(prof.size());
  const auto w = static_cast<std::size_t>(len);
  const auto start = static_cast<std::size_t>(lo);
  if (w == k) {
    Dd total{};
    for (const Dd& v : prof) total = total + v;
    for (Dd& v : out) v = v + total;
    return;
  }
  // line[i] = prof[(i - w + 1) mod k]: the window ending at b is
  // line[b .. b + w - 1].
  const std::size_t size = k + w - 1;
  std::vector<Dd> line(size), suffix(size), prefix(size);
  for (std::size_t i = 0; i < size; ++i) line[i] = prof[(i + k - (w - 1)) % k];
  for (std::size_t b = 0; b < size; b += w) {
    const std::size_t end = std::min(b + w, size);
    prefix[b] = line[b];
    for (std::size_t i = b + 1; i < end; ++i) prefix[i] = prefix[i - 1] + line[i];
    suffix[end - 1] = line[end - 1];
    for (std::size_t i = end - 1; i-- > b;) suffix[i] = suffix[i + 1] + line[i];
  }
  for (std::size_t b = 0; b < k; ++b) {
    const Dd window = b % w == 0 ? suffix[b] : suffix[b] + prefix[b + w - 1];
    Dd& slot = out[(start + b) % k];
    slot = slot + window;
  }
}

FoldedLoads counted_adaptive(const CosetUnion& u) {
  const i32 d = u.d;
  const i32 k = u.k;
  const i32 side = d * (k / 2);  // the longest corridor, in steps
  TP_REQUIRE(side <= kMaxCountedCorridor,
             "torus too large for exact adaptive loads");
  const i64 lee_total = lee_total_of(u);
  const OffsetCounts counts(d, k);
  const auto ring = static_cast<std::size_t>(k);
  std::vector<Dd> pos(ring), neg(ring), total_pos(ring), total_neg(ring);
  std::vector<Dd> here, next;
  std::vector<bool> sources(ring);
  // Longest chain of rounded operations behind any bucket: a term's 3n,
  // one per term added before it into its profile slot (at most every
  // state), a window, one per run added into the total, and the division.
  i64 chain = 3 * side + 2 * k + 4;
  for (i32 delta = 0; delta < k; ++delta) {
    // Sources of class c reach class c + delta.
    bool any = false;
    for (std::size_t c = 0; c < ring; ++c) {
      sources[c] = u.classes[c] &&
                   u.classes[(c + static_cast<std::size_t>(delta)) % ring];
      any = any || sources[c];
    }
    if (!any) continue;
    std::fill(pos.begin(), pos.end(), Dd{});
    std::fill(neg.begin(), neg.end(), Dd{});
    for (i32 minus = 0; minus <= side; ++minus)
      for (i32 plus = (minus + delta) % k; plus <= side; plus += k) {
        if (plus + minus == 0) continue;
        const i128 weight = counts(plus, minus);
        if (weight == 0) continue;
        expand_class(plus, minus, exact(weight), k, pos.data(), neg.data(),
                     here, next);
        chain += static_cast<i64>(plus + 1) * (minus + 1);
      }
    for (const auto& [lo, len] : ring_runs(sources)) {
      add_at_sources(pos, lo, len, total_pos);
      add_at_sources(neg, lo, len, total_neg);
      ++chain;
    }
  }
  // Every dimension carries the same loads; the counts carry 2^d.
  const double error = static_cast<double>(chain) * kOpError;
  std::vector<double> per_pos(ring), per_neg(ring);
  double sum = 0.0;
  const auto scale = [d](Dd x) {
    x = x / static_cast<double>(d);
    return Dd{std::ldexp(x.hi, -d), std::ldexp(x.lo, -d)};
  };
  for (std::size_t a = 0; a < ring; ++a) {
    per_pos[a] = round_within(scale(total_pos[a]), error);
    per_neg[a] = round_within(scale(total_neg[a]), error);
    sum += per_pos[a] + per_neg[a];
  }
  const double total = static_cast<double>(lee_total);
  TP_ASSERT(std::abs(sum * d * static_cast<double>(power(k, d - 1)) - total) <=
                1e-9 * total,
            "link loads do not add up to the Lee distances");
  return assemble(u, lee_total, std::vector<std::vector<double>>(
                                    static_cast<std::size_t>(d), per_pos),
                  std::vector<std::vector<double>>(static_cast<std::size_t>(d),
                                                   per_neg));
}

}  // namespace

FoldedLoads counted_orbit_loads(const CosetUnion& u, RouterKind kind) {
  TP_REQUIRE(u.d >= 1 && static_cast<std::size_t>(u.d) <= kMaxDims &&
                 u.k >= 2 && u.classes.size() == static_cast<std::size_t>(u.k),
             "a coset union needs 1 <= d <= kMaxDims, k >= 2 and k classes");
  switch (kind) {
    case RouterKind::Odr: {
      TP_OBS_SCOPE("load.odr");
      return counted_exact(u, kind);
    }
    case RouterKind::Udr: {
      TP_OBS_SCOPE("load.udr");
      return counted_exact(u, kind);
    }
    case RouterKind::Adaptive: {
      TP_OBS_SCOPE("load.adaptive");
      return counted_adaptive(u);
    }
  }
  TP_ASSERT(false, "unknown router kind");
}

}  // namespace tp
