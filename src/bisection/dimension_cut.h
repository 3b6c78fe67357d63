// Theorem 1's constructive bisection, and the layer prefix cut that
// stands in for it when no pair of layer boundaries balances P.
//
// For a placement that is uniform along some dimension, removing the links
// between consecutive principal subtori at two positions (0|1 and
// k/2 | k/2+1 in the paper's proof) splits T_k^d into two parts with equal
// numbers of processors while cutting exactly 4 k^{d-1} directed links.
//
// The implementation generalizes the proof slightly: it searches all pairs
// of layer boundaries along the chosen dimension (via prefix sums over the
// layer counts, O(k^2)) and returns the pair that balances the placement
// best, so it also yields the best two-boundary cut for placements that
// are *not* uniform.  For a uniform placement and even k it reproduces the
// theorem exactly.
//
// The width needs no link count: each boundary is N/k wires whichever pair
// is chosen, so every such cut removes 4·N/k directed links.  The search
// reads only LayerCounts; a Cut is built only for callers that want the
// partition (dimension_cut, best_dimension_cut).
//
// When no pair balances P (odd k on a uniform placement, lopsided P), the
// prefix cut A = {n : id(n) < r} takes whole layers first and then splits
// the next layer the same way, one dimension down.  r is the largest
// multiple of the coarsest stride inside (id of processor ⌊|P|/2⌋ - 1,
// id of processor ⌊|P|/2⌋], so A holds exactly ⌊|P|/2⌋ processors.  Along
// dimension j only the lines through r's own layer cross, so with r_j the
// j-th digit of r (dimension 0 most significant) and R_j = r mod stride_j,
// the cut crosses 2·(R_j·[r_j < k_j-1] + (stride_j - R_j)·[r_j >= 1])
// wires: O(d) in all, and at most 4(k^d - 1)/(k - 1) directed links.

#pragma once

#include "src/bisection/cut.h"
#include "src/placement/layer_counts.h"

namespace tp {

/// The boundary pair along one dimension that balances the placement best.
struct LayerSplit {
  i32 dim = 0;
  i32 a = 0;  ///< side A = layers a+1..b
  i32 b = 0;
  i64 imbalance = -1;  ///< |#processors(A) - #processors(B)|
  i64 width = 0;       ///< directed links removed: 4·N/k_dim
};

/// Best boundary pair along `dim`: least imbalance, first pair on ties.
LayerSplit best_layer_split(const Torus& torus, const LayerCounts& counts,
                            i32 dim);

/// Best over all dimensions: least imbalance, then least width, first
/// dimension on ties.
LayerSplit best_layer_split(const Torus& torus, const LayerCounts& counts);

/// Result of the two-boundary layer cut along one dimension.
struct DimensionCutResult {
  Cut cut;                 ///< side A = layers in (first, second]
  i32 dim = 0;             ///< dimension the layers are stacked along
  i32 first_boundary = 0;  ///< cut between layers first and first+1 (mod k)
  i32 second_boundary = 0; ///< cut between layers second and second+1 (mod k)
  i64 directed_edges = 0;  ///< directed links removed
  i64 imbalance = 0;       ///< |#processors(A) - #processors(B)|
};

/// Best two-boundary cut along `dim`.
DimensionCutResult dimension_cut(const Torus& torus, const Placement& p,
                                 i32 dim);

/// Best two-boundary cut over all dimensions (the Theorem 1 bisection when
/// the placement is uniform along any dimension and its layer count is
/// even-splittable).
DimensionCutResult best_dimension_cut(const Torus& torus, const Placement& p);

/// The prefix cut A = {n : id(n) < r} that puts ⌊|P|/2⌋ processors on A.
struct PrefixCut {
  NodeId r = 0;
  i64 directed_edges = 0;  ///< prefix_cut_width(torus, r)
};

/// The layer prefix cut of a placement with |P| >= 2 (see above).
PrefixCut middle_prefix_cut(const Torus& torus, const LayerCounts& counts);

/// Directed links crossing {n : id(n) < r}, in O(d); 0 < r < N.
i64 prefix_cut_width(const Torus& torus, NodeId r);

}  // namespace tp
