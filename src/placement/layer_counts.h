// What the lower bounds read of a placement.
//
// Theorem 1's dimension cut, the slab search and Section 4's improved
// bound see a placement only through its processors per principal
// subtorus (its layer counts), and the prefix cut only through the ids of
// its two middle processors.  LayerCounts holds |P| and those numbers,
// nothing per node, so the bounds cost O(d·k²) whatever the torus size.
//
// layer_counts() reads them off any placement in one pass over its nodes.
// For the paper's multiple linear placement they are closed forms in
// (d, k, t), which is how every served key is planned without a Placement.

#pragma once

#include <vector>

#include "src/placement/placement.h"

namespace tp {

struct LayerCounts {
  i64 size = 0;  ///< |P|
  /// layers[j][v]: processors whose coordinate in dimension j is v.
  std::vector<std::vector<i64>> layers;
  /// Ids of processors ⌊|P|/2⌋ - 1 and ⌊|P|/2⌋ in id order (0 when
  /// |P| < 2): a prefix {n : n < r} with below_middle < r <= middle holds
  /// exactly ⌊|P|/2⌋ processors.
  NodeId below_middle = 0;
  NodeId middle = 0;

  bool operator==(const LayerCounts&) const = default;
};

/// The counts of any placement: one O(|P|·d) pass over its nodes.
LayerCounts layer_counts(const Torus& torus, const Placement& p);

/// The counts of multiple_linear_placement(torus, t) in closed form:
/// |P| = t·k^{d-1}, t·k^{d-2} processors in every layer (for d = 1, t ones
/// then zeros), and the middle ids from multiple_linear_node.  O(d·k).
LayerCounts multiple_linear_counts(const Torus& torus, i32 t);

}  // namespace tp
