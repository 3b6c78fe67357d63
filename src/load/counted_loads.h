// Link-orbit loads of a union of cosets of L_0 = {x : Σx ≡ 0 (mod k)} on
// T_k^d, counted instead of routed: the paper's Section 6.1 counting
// argument run as code, in the way Jung & Sakho count all-to-all link
// loads on k-ary n-tori.
//
// Such a placement is P = {x : Σx mod k ∈ C} for a residue set C ⊆ Z_k,
// and every served placement is one: multiple_linear_placement(t) is
// C = {0, ..., t-1}.  A link's load depends only on its dimension, its
// direction and its tail's label Σx mod k, and a pair's contribution only
// on its offset D = q - p, so the kernels count offsets by the sums that
// decide where their paths run, with no Placement and no pair walk:
//
//   ODR       a pair from class a enters dimension i at label a + Σ_{j<i} D_j
//             and runs step(D_i) hops; the offsets with a given prefix sum,
//             D_i and destination class number a product of powers of k,
//             so each (dimension, entry label, D_i) is one weighted run on
//             the Z_k ring, added by a difference array: O(d·k²).
//   UDR       dimension j is entered at a + Σ_{i∈S} D_i in |S|!(s-1-|S|)!/s!
//             of the orders; offsets are counted by |S|, by the nonzero
//             dimensions outside S and by their sums mod k, and the nonzero
//             m-tuples over Z_k with sum x number ((k-1)^m - (-1)^m)/k +
//             (-1)^m·[x ≡ 0].  Every dimension carries the same loads:
//             O(d² + k²).
//   adaptive  a pair with D_+ positive and D_- negative steps (a tied
//             dimension commits each way with weight 1/2) takes its step
//             after r_+ positive and r_- negative moves from the label
//             a + r_+ - r_- along a positive dimension in a fraction
//             C(r, r_+)·C(n-r, D_+-r_+)/C(n, D_+) · (D_+-r_+)/(n-r) of its
//             minimal paths (n = D_+ + D_-, r = r_+ + r_-); negative steps
//             swap the roles.  Offsets are counted per (D_+, D_-), each
//             class is expanded once over its (D_+ + 1)(D_- + 1) states,
//             and the profile of every class with the same D_+ - D_- mod k
//             is added at its source labels by window sums over C.
//             O(d²·k + Σ states + k·runs), where only the classes whose
//             destination lies in C count.
//
// ODR and UDR count in i128, in units of 1/(2·d!), and round once.  The
// adaptive fractions are built by recurrence in double-double arithmetic
// (no binomial, so nothing overflows); every term is positive, so one
// relative error bound covers every bucket, and each answer is the double
// nearest the exact rational — TP_ASSERT checks that the bound decides the
// rounding.  The walk kernels of complete_exchange.h stay the oracle and
// serve every placement that is not a coset union.

#pragma once

#include <optional>
#include <vector>

#include "src/load/complete_exchange.h"
#include "src/placement/placement.h"
#include "src/routing/router.h"

namespace tp {

/// P = {x in T_k^d : Σx mod k ∈ C}: a union of |C| cosets of L_0, with
/// |P| = |C|·k^{d-1}.
struct CosetUnion {
  i32 d = 1;
  i32 k = 2;
  std::vector<bool> classes;  ///< classes[r]: residue r is in C (size k)
};

/// The coset union `p` is, read off its nodes: on a uniform-radix torus,
/// C is the set of residues of P's nodes, and P qualifies exactly when
/// |P| == |C|·k^{d-1} and every node of every class in C is in P.
/// nullopt for any other placement (and for the empty one).  O(|P| + k)
/// membership tests, no decoding.
std::optional<CosetUnion> coset_union_of(const Torus& torus,
                                         const Placement& p);

/// The loads of `u` per link orbit under `kind` (ODR and UDR with the
/// PositiveOnly tie-break, the served one), counted from (d, k, C): the
/// same FoldedLoads the walk kernels return on the placement, with the
/// fold of coordinate_sum_fold.  Profiles as load.odr / load.udr /
/// load.adaptive.  Throws when the total load overflows int64, and for
/// adaptive loads past corridors of d·⌊k/2⌋ = kMaxCountedCorridor steps,
/// where the smallest path fractions leave the double range.
FoldedLoads counted_orbit_loads(const CosetUnion& u, RouterKind kind);

/// The longest Lee distance d·⌊k/2⌋ the adaptive count serves.
inline constexpr i64 kMaxCountedCorridor = 900;

}  // namespace tp
