// Placements of processors in a torus (Definition 2 of the paper).
//
// A Placement is a subset of the torus's nodes: the nodes that carry a
// processor and inject messages.  It is a value type (nodes are copied and
// indexed) so that placements can outlive the generator that produced them;
// it remembers the node count of the torus it was built for and refuses to
// be combined with a torus of a different size.

#pragma once

#include <string>
#include <vector>

#include "src/torus/torus.h"

namespace tp {

/// An immutable set of processor nodes in a torus.
class Placement {
 public:
  /// Builds a placement from a list of nodes (deduplicated and sorted).
  /// All nodes must be valid in `torus`.
  Placement(const Torus& torus, std::vector<NodeId> nodes, std::string name);

  /// Number of processors |P|.
  i64 size() const { return static_cast<i64>(nodes_.size()); }

  /// Processor nodes in increasing id order.
  const std::vector<NodeId>& nodes() const { return nodes_; }

  /// O(1) membership test.
  bool contains(NodeId n) const;

  /// Human-readable generator name, e.g. "linear(c=0)".
  const std::string& name() const { return name_; }

  /// Node count of the torus this placement was generated for.
  i64 torus_nodes() const { return torus_nodes_; }

  /// Throws unless the placement was built for a torus of this size.
  void check_torus(const Torus& torus) const;

 private:
  std::vector<NodeId> nodes_;
  std::vector<bool> member_;
  std::string name_;
  i64 torus_nodes_ = 0;
};

// --- generators -----------------------------------------------------------

/// Linear placement (Definition 10): nodes whose coordinates satisfy
///   coeff_1 p_1 + ... + coeff_d p_d == c (mod k).
/// Requires a uniform-radix torus and at least one coefficient coprime to k
/// (this guarantees exactly k^{d-1} processors).
Placement linear_placement(const Torus& torus, const SmallVec<i32>& coeffs,
                           i32 c);

/// Linear placement with all coefficients 1: p_1 + ... + p_d == c (mod k).
Placement linear_placement(const Torus& torus, i32 c = 0);

/// Multiple linear placement (Section 5): union of the all-ones linear
/// placements with residues 0, 1, ..., t-1.  Size is t * k^{d-1}.
/// Requires 1 <= t <= k.  Generated row by row: each row (p_1, ..., p_{d-1})
/// holds the t nodes whose last coordinate brings the sum into [0, t).
Placement multiple_linear_placement(const Torus& torus, i32 t);

/// The name multiple_linear_placement(torus, t) carries.
std::string multiple_linear_name(i32 t);

/// Id of processor m (0-based, in id order) of
/// multiple_linear_placement(torus, t), in O(d) and without the placement.
/// Requires a uniform-radix torus, 1 <= t <= k and 0 <= m < t·k^{d-1}.
NodeId multiple_linear_node(const Torus& torus, i32 t, i64 m);

/// Shifted diagonal placement in the style of Blaum et al.: the set
///   { p : p_d == shift - (p_1 + ... + p_{d-1}) (mod k) }.
/// Equivalent to linear_placement(torus, shift); provided as the named
/// baseline the paper compares against (tests assert the equivalence).
Placement shifted_diagonal_placement(const Torus& torus, i32 shift = 0);

/// Every node carries a processor (the fully populated torus of Section 1).
Placement full_population(const Torus& torus);

/// Uniformly random subset of the requested size (reproducible via seed).
Placement random_placement(const Torus& torus, i64 size, u64 seed);

/// Adversarially non-uniform placement: the first `size` nodes in id order,
/// which clusters all processors into a corner of the torus.  Used as a
/// baseline that violates uniformity.
Placement clustered_placement(const Torus& torus, i64 size);

/// Single fixed-coordinate slab: all nodes whose coordinate in `dim` equals
/// `value` (one principal subtorus).  Size k^{d-1} but maximally non-uniform
/// along `dim` — a natural "wrong" competitor to the linear placement.
Placement subtorus_placement(const Torus& torus, i32 dim, i32 value);

}  // namespace tp
