// Routing algorithms (Definition 3 of the paper).
//
// A Router specifies, for every ordered processor pair (p, q), the set
// C_{p->q} of shortest paths the algorithm allows.  Message delivery picks
// one of those paths uniformly at random, which is why the load of a pair
// on a link is |C_{p->l->q}| / |C_{p->q}| (Definition 4).
//
// Concrete routers:
//   OdrRouter              — Ordered Dimensional Routing  (Section 6)
//   UdrRouter              — Unordered Dimensional Routing (Section 7)
//   AdaptiveMinimalRouter  — every minimal path (reference upper envelope)

#pragma once

#include <string>
#include <vector>

#include "src/routing/path.h"
#include "src/torus/torus.h"
#include "src/util/prng.h"

namespace tp {

/// What to do in a dimension where k is even and the two coordinates are
/// exactly k/2 apart, so both directions are minimal.
enum class TieBreak {
  PositiveOnly,    ///< canonical rule of Section 6: correct in + direction
  BothDirections,  ///< allow either direction (more paths, more tolerance)
};

/// The three routing families the paper compares.
enum class RouterKind {
  Odr,       ///< one path per pair; smallest E_max (Theorem 2)
  Udr,       ///< s! paths per pair; fault-tolerant (Theorem 4)
  Adaptive,  ///< every minimal path; reference envelope
};

/// Interface for routing algorithms.
class Router {
 public:
  virtual ~Router() = default;

  /// Short name for reports, e.g. "ODR" or "UDR".
  virtual std::string name() const = 0;

  /// The full path set C_{p->q}.  Paths are minimal and distinct.
  virtual std::vector<Path> paths(const Torus& torus, NodeId p,
                                  NodeId q) const = 0;

  /// |C_{p->q}| without materializing the paths.
  virtual i64 num_paths(const Torus& torus, NodeId p, NodeId q) const;

  /// One path drawn uniformly at random from C_{p->q}.
  virtual Path sample_path(const Torus& torus, NodeId p, NodeId q,
                           Xoshiro256SS& rng) const;
};

namespace routing_detail {

/// Directions the algorithm may use to correct dimension `dim` from
/// coordinate a to b (empty if a == b; two entries only on a tie with
/// TieBreak::BothDirections).
SmallVec<i32> allowed_dirs(const Torus& torus, i32 dim, i32 a, i32 b,
                           TieBreak tie);

/// Appends to `path` the links of a full correction of dimension `dim`
/// from the coordinate of `node` to coordinate `to`, moving in direction
/// `dir`.  Returns the node reached.
NodeId append_segment(const Torus& torus, NodeId node, i32 dim, i32 to,
                      Dir dir, std::vector<EdgeId>& path);

/// Steps needed to correct dimension `dim` from a to b in direction `dir`.
i64 steps_in_dir(const Torus& torus, i32 dim, i32 a, i32 b, Dir dir);

}  // namespace routing_detail

}  // namespace tp
