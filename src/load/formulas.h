// Closed-form expressions from the paper, collected in one place so that
// benches and tests compare measured loads against the exact published
// formulas.  Section/equation references follow the IEEE TC 49(3) text.

#pragma once

#include "src/util/math.h"

namespace tp {

/// Eq. (1)/(6) — Blaum et al.'s lower bound:  E_max >= (|P|-1) / 2d.
double blaum_lower_bound(i64 placement_size, i32 d);

/// Lemma 1 — separator bound:  E_max >= 2|S|(|P|-|S|) / |dS|.
double separator_lower_bound(i64 s_size, i64 placement_size,
                             i64 boundary_size);

/// Eq. (8) — bisection form of Lemma 1:  E_max >= 2(|P|/2)^2 / |d_b P|.
double bisection_lower_bound(i64 placement_size, i64 bisection_width);

/// Section 4 — improved dimension-independent bound for uniform placements
/// of size c*k^{d-1}:  E_max >= c^2 k^{d-1} / 8 for even k.  The paper's
/// half-torus slab needs even k; for odd k the best slab holds floor(k/2)
/// of the k layers and Lemma 1 gives c^2 floor(k/2) ceil(k/2) k^{d-3} / 2,
/// slightly below c^2 k^{d-1} / 8 (full T_3^3: 9, not 10.125).
double improved_lower_bound(double c, i32 k, i32 d);

/// Corollary 1 — upper bound on the bisection width of T_k^d with respect
/// to any placement (directed edges):  |d_b P| <= 6 d k^{d-1}.
i64 bisection_width_upper_bound(i32 k, i32 d);

/// Theorem 1 — bisection width w.r.t. a uniform placement: 4 k^{d-1}
/// directed edges.
i64 uniform_bisection_width(i32 k, i32 d);

/// Eq. (9) — maximum size of a placement that can keep E_max <= c1 |P|:
/// |P| <= 12 d c1 k^{d-1}.
double max_placement_size(double c1, i32 k, i32 d);

/// Section 1 — fully populated torus: some link in the bisection carries
/// load > k^{d+1} / 8.
double full_torus_load_lower_bound(i32 k, i32 d);

/// Section 6.1 — the paper's refined ODR load count on the all-ones linear
/// placement:
///   k even:  k^{d-1}/8 + k^{d-2}/4
///   k odd:   k^{d-1}/8 - k^{d-3}/8
/// Measurement shows this is the exact maximum over links of *interior*
/// dimensions (2 <= s <= d-1), hence it needs d >= 3; the overall maximum
/// is attained on first/last-dimension links and is given by
/// odr_linear_emax_overall() below.
double odr_linear_emax(i32 k, i32 d);

/// Exact overall maximum ODR load on the all-ones linear placement, as
/// *measured* by this reproduction:  floor(k/2) * k^{d-2}  for d >= 2.
///
/// The paper's Section 6.1 count (odr_linear_emax) enumerates the pairs
/// crossing a link whose dimension s has free coordinates on both sides,
/// which requires 2 <= s <= d-1.  On links of the first (and last)
/// dimension one endpoint of the pair is pinned by the placement equation
/// instead, and the count becomes floor(k/2) * k^{d-2} — larger, and this
/// is where the true maximum sits.  Still Theta(k^{d-1}) = Theta(|P|), so
/// Theorem 2's linearity claim is unaffected; only the constant changes
/// (1/2 instead of 1/8).  See EXPERIMENTS.md (E7) for the measurement.
double odr_linear_emax_overall(i32 k, i32 d);

/// Theorem 2 — coarse ODR upper bound:  E_max <= k^{d-1}.
double odr_linear_emax_upper(i32 k, i32 d);

/// Theorem 3 — multiple linear with ODR:  E_max <= t^2 k^{d-1}.
double multiple_odr_upper(i32 t, i32 k, i32 d);

/// Theorem 4 — UDR upper bound on the linear placement:
/// E_max < 2^{d-1} k^{d-1}.
double udr_linear_emax_upper(i32 k, i32 d);

/// Reproduction conjecture (not in the paper): the exact UDR maximum on
/// the all-ones linear placement, observed to hold on every instance this
/// library can measure (see tests/test_golden.cpp):
///   d = 2:            floor(k/2) / 2           (both parities)
///   d = 3, k even:    (5 k^2 + 2 k) / 24
///   d = 3, k odd:     (5 k^2 - 4 k - 1) / 24
/// Returns -1 outside the covered domain (use the measured value there).
double udr_linear_emax_conjectured(i32 k, i32 d);

/// Theorem 5 — multiple linear with UDR:  E_max < t^2 2^{d-1} k^{d-1}.
double multiple_udr_upper(i32 t, i32 k, i32 d);

/// Section 7 — UDR path count for a pair differing in s dimensions: s!.
i64 udr_path_count(i32 s);

/// Appendix — hyperplane sweep separator bound: a sweep hyperplane crosses
/// at most 2 d k^{d-1} undirected array edges.
i64 sweep_separator_upper_bound(i32 k, i32 d);

}  // namespace tp
