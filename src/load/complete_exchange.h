// Exact per-link loads under complete exchange (all-to-all personalized
// communication), Definition 4 of the paper:
//
//   E(l) = sum over ordered pairs p != q of |C_{p->l->q}| / |C_{p->q}|.
//
// `reference_loads` implements the definition literally through the Router
// interface (enumerate every path of every pair) — the oracle the fast
// paths are tested against.  The specialized kernels compute identical
// numbers without enumerating path sets, and fold over the placement's
// translation symmetry (TranslationFold below): they route only from the
// R = |P|/|H| coset representatives of P, into one bucket per link orbit,
// and return the buckets (FoldedLoads).  An answer reads E_max, the exact
// mean and the loaded-link count off those (N/|H|)·2d buckets; only a
// caller that needs per-link values broadcasts them to the 2dN links.
//
//   odr_orbit_loads      O(R·|P| · d · k)          canonical segment walk
//   udr_orbit_loads      O(R·|P| · s·2^s · k)      subset-weighted segment walk
//   adaptive_orbit_loads O(R·|P| · corridor size)  multinomial path fractions
//
// plus finding H (O(|P|·log|H|) lookups on the paper's placements, at
// most O(|P|²)), O(|P|·d) to label P's nodes and O(Σk_i) for the cosets
// of each dimension's multiples.  A hop relabels in O(1) when its
// dimension moves one factor of the quotient (every placement of the
// paper), O(r) otherwise.  There is no O(N·d) label or broadcast term
// unless a map is asked for: broadcast() and the *_loads wrappers that
// return a LoadMap cost O(N·d) on top.
// R = t for the paper's (multiple) linear placements and R = |P| when the
// stabilizer H is trivial (random, clustered), where the kernels are the
// unfolded ones.  ODR and UDR accumulate int64 counts in units of
// 1/(2·d!) — every ODR/UDR link weight is a multiple of it: the tie split
// gives the 2, the UDR order weight m!(s-1-m)!/s! divides d! — and divide
// once per bucket, so their doubles are the correctly rounded exact
// rationals whatever the fold, thread count or summation order.  Adaptive
// weights have no fixed denominator; adaptive_orbit_loads keeps double
// buckets.
//
// udr_loads_enumerated keeps the s!-enumeration variant alive as a second
// independent implementation for cross-checking.

#pragma once

#include <array>
#include <vector>

#include "src/load/load_map.h"
#include "src/placement/placement.h"
#include "src/routing/router.h"
#include "src/torus/lattice.h"

namespace tp {

/// The translation symmetry the load analyzers fold over.  H = {h : P + h
/// = P} is the placement's stabilizer in G = Z_{k_1} x ... x Z_{k_d}, so P
/// is a union of H-cosets.  ODR, UDR and adaptive path sets depend only on
/// q - p, so E is constant on each H-orbit of links (same dim and dir,
/// tails in one coset of H): routing from one node per coset of P into
/// one bucket per link orbit yields E(l) as the bucket of l's orbit.
///
/// Cosets are labelled by arithmetic, with no table.  A diagonal (Smith)
/// form of the lattice H + diag(k_1..k_d)·Z^d gives a homomorphism from G
/// onto Z_{s_0} x ... x Z_{s_{r-1}} whose kernel is H: component i of
/// node x's coset is sum_j x_j·unit[j][i] mod modulus[i], and its label
/// is the components read as a mixed-radix number (label weight[i]),
/// component 0 most significant.  A step along dimension j adds row j of
/// `unit`.  When H is trivial the components are the coordinates and the
/// label is the node id.  The kernels carry a coset as its label and its
/// components packed in one word, component i in the bits `field[i]` from
/// `offset[i]` up: one bit wider than modulus[i] - 1 needs, so the sum of
/// two components stays in its field until it is wrapped.  Every move and
/// every hop is one such add and, per component it moves, one wrap.
struct TranslationFold {
  explicit TranslationFold(const Lattice& lattice) : lat(lattice) {}

  i64 stabilizer_size = 1;   ///< |H|
  std::vector<NodeId> reps;  ///< first node of each H-coset of P, in P order
  i64 num_orbits = 0;        ///< N / |H| cosets, labelled 0..num_orbits-1

  Lattice lat;
  std::size_t num_factors = 0;          ///< r
  std::array<i64, kMaxDims> modulus{};  ///< s_i >= 2
  std::array<i64, kMaxDims> weight{};   ///< s_{i+1}·...·s_{r-1}
  /// unit[j][i]: component i of the coset of e_j, in [0, modulus[i]).
  std::array<std::array<i64, kMaxDims>, kMaxDims> unit{};
  /// moves[j]: bit i set when unit[j][i] != 0.
  std::array<std::uint32_t, kMaxDims> moves{};
  std::array<i32, kMaxDims> offset{};       ///< component i's lowest bit
  std::array<u64, kMaxDims> field{};        ///< component i's bits, in place
  std::array<u64, kMaxDims> wrap_digits{};  ///< modulus[i] << offset[i]
  std::array<i64, kMaxDims> wrap_label{};   ///< modulus[i]·weight[i]

  /// Label of node n's coset: equal for two nodes exactly when their
  /// difference lies in H.  Decodes n.
  i64 orbit_of(NodeId n) const;
};

/// Definition 4's loads folded over H: one value per link orbit, and the
/// exact total.  Slot 2·dim + (dir == Neg) of the orbit whose tails have
/// label o sits at o·2d + slot — a LoadMap's layout when H is trivial.
struct FoldedLoads {
  TranslationFold fold;
  std::vector<double> orbit_load;
  /// Sum of Lee distances over ordered pairs of P: the exact total load
  /// of every minimal router.
  i64 lee_total = 0;

  /// E_max (Definition 5): the largest orbit load.
  double max_load() const;
  /// lee_total / 2dN, rounded once: the exact mean over all links.
  double mean_load() const;
  /// Links with load > tol: |H| per orbit above it.
  i64 num_loaded_edges(double tol = 1e-12) const;
  /// Every link's load in EdgeId order, carrying lee_total as the map's
  /// exact total.  O(N·d); profiles as fold.broadcast.
  LoadMap broadcast(const Torus& torus) const;
};

/// Finds H from the placement alone (no dispatch on its name): candidates
/// h = q - p0 for q in P, each tested for P + h = P with
/// Placement::contains, H closed under addition as each generator is
/// found.  A placement that is a union of cosets of a large H costs
/// O(|P| · log|H|) lookups; a candidate that is not a period usually fails
/// on its first lookup.  Profiles as fold.detect.
TranslationFold translation_fold(const Torus& torus, const Placement& p);

/// ODR loads per link orbit (Section 6), routed by up to `threads`
/// workers (bit-identical at any width).
FoldedLoads odr_orbit_loads(const Torus& torus, const Placement& p,
                            TieBreak tie = TieBreak::PositiveOnly,
                            i32 threads = 1);

/// UDR loads per link orbit (Section 7), computed with subset weights:
/// correcting dimension j after the subset S of the other differing
/// dimensions happens in |S|!(s-1-|S|)!/s! of all orders.  Bit-identical
/// at any width.
FoldedLoads udr_orbit_loads(const Torus& torus, const Placement& p,
                            TieBreak tie = TieBreak::PositiveOnly,
                            i32 threads = 1);

/// Fully adaptive minimal routing per link orbit: each pair spreads one
/// unit of traffic over all its minimal paths uniformly.
FoldedLoads adaptive_orbit_loads(const Torus& torus, const Placement& p);

/// Literal Definition 4 via Router::paths().  Exact but slow; intended for
/// tests and tiny instances.
LoadMap reference_loads(const Torus& torus, const Placement& p,
                        const Router& router);

// The per-link maps below are the orbit kernels above, broadcast.

/// Loads under Ordered Dimensional Routing (Section 6).
LoadMap odr_loads(const Torus& torus, const Placement& p,
                  TieBreak tie = TieBreak::PositiveOnly);

/// Loads under ODR correcting dimensions in a custom order (a permutation
/// of 0..d-1).  odr_loads(t, p, tie) is the identity-order special case.
LoadMap odr_loads_ordered(const Torus& torus, const Placement& p,
                          const SmallVec<i32>& order,
                          TieBreak tie = TieBreak::PositiveOnly);

/// Loads under Unordered Dimensional Routing (Section 7).
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
