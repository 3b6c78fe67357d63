// Exact per-link loads under complete exchange (all-to-all personalized
// communication), Definition 4 of the paper:
//
//   E(l) = sum over ordered pairs p != q of |C_{p->l->q}| / |C_{p->q}|.
//
// `reference_loads` implements the definition literally through the Router
// interface (enumerate every path of every pair) — the oracle the fast
// paths are tested against.  The specialized functions compute identical
// numbers without enumerating path sets, and fold over the placement's
// translation symmetry (TranslationFold below): they route only from the
// R = |P|/|H| coset representatives of P, into one bucket per link orbit,
// then broadcast the buckets back to the 2dN links.
//
//   odr_loads      O(R·|P| · d · k)          canonical segment walk
//   udr_loads      O(R·|P| · s·2^s · k)      subset-weighted segment walk
//   adaptive_loads O(R·|P| · corridor size)  multinomial path fractions
//
// plus finding H (O(|P|·log|H|) lookups on the paper's placements, at
// most O(|P|²)), and O(N·d) each to label the orbits and to broadcast.
// R = t for the paper's (multiple) linear placements and R = |P| when the
// stabilizer H is trivial (random, clustered), where the kernels are the
// unfolded ones.  ODR and UDR accumulate int64 counts in units of
// 1/(2·d!) — every ODR/UDR link weight is a multiple of it: the tie split
// gives the 2, the UDR order weight m!(s-1-m)!/s! divides d! — and divide
// only at the broadcast, so their doubles are the correctly rounded exact
// rationals whatever the fold, thread count or summation order.  Adaptive
// weights have no fixed denominator; adaptive_loads keeps double buckets.
//
// udr_loads_enumerated keeps the s!-enumeration variant alive as a second
// independent implementation for cross-checking.

#pragma once

#include <vector>

#include "src/load/load_map.h"
#include "src/placement/placement.h"
#include "src/routing/router.h"

namespace tp {

/// The translation symmetry the load analyzers fold over.  H = {h : P + h
/// = P} is the placement's stabilizer in Z_{k_1} x ... x Z_{k_d}, so P is
/// a union of H-cosets.  ODR, UDR and adaptive path sets depend only on
/// q - p, so E is constant on each H-orbit of links (same dim and dir,
/// tails in one coset of H): routing from one node per coset of P into
/// one bucket per link orbit yields E(l) as the bucket of l's orbit.
struct TranslationFold {
  i64 stabilizer_size = 1;   ///< |H|
  std::vector<NodeId> reps;  ///< first node of each H-coset of P, in P order
  i64 num_orbits = 0;        ///< N / |H| node orbits
  /// Node -> orbit index in [0, num_orbits); empty when H is trivial, where
  /// every node is its own orbit.
  std::vector<i64> orbit;

  i64 orbit_of(NodeId n) const {
    return orbit.empty() ? n : orbit[static_cast<std::size_t>(n)];
  }
};

/// Finds H from the placement alone (no dispatch on its name): candidates
/// h = q - p0 for q in P, each tested for P + h = P with
/// Placement::contains, H closed under addition as each generator is
/// found.  A placement that is a union of cosets of a large H costs
/// O(|P| · log|H|) lookups; a candidate that is not a period usually fails
/// on its first lookup.  Profiles as fold.detect.
TranslationFold translation_fold(const Torus& torus, const Placement& p);

/// Literal Definition 4 via Router::paths().  Exact but slow; intended for
/// tests and tiny instances.
LoadMap reference_loads(const Torus& torus, const Placement& p,
                        const Router& router);

/// Loads under Ordered Dimensional Routing (Section 6).
LoadMap odr_loads(const Torus& torus, const Placement& p,
                  TieBreak tie = TieBreak::PositiveOnly);

/// Loads under ODR correcting dimensions in a custom order (a permutation
/// of 0..d-1).  odr_loads(t, p, tie) is the identity-order special case.
LoadMap odr_loads_ordered(const Torus& torus, const Placement& p,
                          const SmallVec<i32>& order,
                          TieBreak tie = TieBreak::PositiveOnly);

/// Loads under Unordered Dimensional Routing (Section 7), computed with
/// subset weights: correcting dimension j after the subset S of the other
/// differing dimensions happens in |S|!(s-1-|S|)!/s! of all orders.
LoadMap udr_loads(const Torus& torus, const Placement& p,
                  TieBreak tie = TieBreak::PositiveOnly);

/// Loads under UDR by explicit enumeration of all s! correction orders.
/// Same result as udr_loads; exists as an independent cross-check.
LoadMap udr_loads_enumerated(const Torus& torus, const Placement& p,
                             TieBreak tie = TieBreak::PositiveOnly);

/// Loads under fully adaptive minimal routing: each pair spreads one unit
/// of traffic over all its minimal paths uniformly.
LoadMap adaptive_loads(const Torus& torus, const Placement& p);

/// Multi-threaded ODR loads: partitions the coset representatives over
/// `threads` workers, each accumulating into private int64 buckets, then
/// sums them exactly.  Bit-identical to odr_loads at any width.
LoadMap odr_loads_parallel(const Torus& torus, const Placement& p,
                           i32 threads,
                           TieBreak tie = TieBreak::PositiveOnly);

/// Multi-threaded UDR loads, the same exact int64 reduction as
/// odr_loads_parallel.  Bit-identical to udr_loads at any width.
LoadMap udr_loads_parallel(const Torus& torus, const Placement& p,
                           i32 threads,
                           TieBreak tie = TieBreak::PositiveOnly);

/// The value total_load() must equal for any minimal router: the sum of
/// Lee distances over all ordered processor pairs.
double expected_total_load(const Torus& torus, const Placement& p);

}  // namespace tp
