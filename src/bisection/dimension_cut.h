// Theorem 1's constructive bisection.
//
// For a placement that is uniform along some dimension, removing the links
// between consecutive principal subtori at two positions (0|1 and
// k/2 | k/2+1 in the paper's proof) splits T_k^d into two parts with equal
// numbers of processors while cutting exactly 4 k^{d-1} directed links.
//
// The implementation generalizes the proof slightly: it searches all pairs
// of layer boundaries along the chosen dimension (via prefix sums, O(k^2))
// and returns the pair that balances the placement best, so it also yields
// the best two-boundary cut for placements that are *not* uniform.  For a
// uniform placement and even k it reproduces the theorem exactly.
//
// The width needs no link count: each boundary is N/k wires whichever pair
// is chosen, so every such cut removes 4·N/k directed links.  The search
// compares dimensions by layer counts and that closed form, and only the
// winning dimension's Cut is built.

#pragma once

#include <optional>

#include "src/bisection/cut.h"

namespace tp {

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

}  // namespace tp
