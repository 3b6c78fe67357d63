// Lemma 1 separator search over coordinate slabs.
//
// Lemma 1 gives a lower bound for every processor subset S; the bound's
// strength depends on finding an S with many processors and a small
// boundary.  Coordinate slabs — nodes whose coordinate in one dimension
// lies in a window [lo, lo+len) — have boundary exactly 4·N/k directed
// links regardless of the window, so sweeping all O(d·k²) slabs finds the
// strongest slab-shaped instantiation of Lemma 1 in polynomial time.
// For uniform placements the half-torus slab recovers the Section 4
// improved bound; for skewed placements the search can beat it.

#pragma once

#include "src/bounds/lower_bounds.h"
#include "src/placement/layer_counts.h"
#include "src/placement/placement.h"

namespace tp {

/// The best (largest) Lemma 1 bound over all coordinate slabs, together
/// with the slab that achieved it.
struct SlabBound {
  double value = 0.0;
  i32 dim = 0;        ///< slab dimension
  i32 lo = 0;         ///< first layer in the slab
  i32 len = 0;        ///< number of consecutive layers (cyclically)
  i64 procs_in = 0;   ///< processors inside the slab
  i64 boundary = 0;   ///< directed boundary links

  bool operator==(const SlabBound&) const = default;
};

/// Sweeps every (dim, lo, len) slab; len ranges 1..k-1.  Reads only the
/// layer counts, which the Placement overload fills in one pass.
SlabBound best_slab_bound(const Torus& torus, const Placement& p);
SlabBound best_slab_bound(const Torus& torus, const LayerCounts& counts);

}  // namespace tp
