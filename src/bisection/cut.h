// Cuts and bisections of a torus with respect to a placement
// (Definitions 7 and 8 of the paper).
//
// A Cut is a two-sided node partition; its edge set is every directed link
// crossing between the sides.  The *bisection width with respect to a
// placement P* is the minimum directed-cut size over partitions that split
// P's processors equally (within one).

#pragma once

#include <utility>
#include <vector>

#include "src/placement/placement.h"
#include "src/torus/graph.h"
#include "src/torus/torus.h"

namespace tp {

/// A node partition of a torus into side A (false) and side B (true).
class Cut {
 public:
  /// `side` must have one entry per torus node.
  Cut(const Torus& torus, std::vector<bool> side);

  const std::vector<bool>& side() const { return side_; }
  bool side_of(NodeId n) const { return side_.at(static_cast<std::size_t>(n)); }

  /// Number of directed links crossing the partition (both directions of a
  /// wire count separately; the paper's Theorem 1 counts this quantity).
  i64 directed_cut_size(const Torus& torus) const;

  /// Number of wires (undirected edges) crossing the partition.
  i64 undirected_cut_size(const Torus& torus) const;

  /// Processor counts on (side A, side B).
  std::pair<i64, i64> processor_split(const Torus& torus,
                                      const Placement& p) const;

  /// True when the processor counts differ by at most one.
  bool bisects(const Torus& torus, const Placement& p) const;

  /// The crossing links as an EdgeSet (for connectivity checks: removing
  /// them must disconnect side A from side B).
  EdgeSet crossing_edges(const Torus& torus) const;

  /// Node counts on (side A, side B).
  std::pair<i64, i64> node_split() const;

 private:
  bool crosses(NodeId a, NodeId b) const {
    return side_[static_cast<std::size_t>(a)] !=
           side_[static_cast<std::size_t>(b)];
  }

  std::vector<bool> side_;
};

}  // namespace tp
