// Concrete lower-bound evaluation for a given torus and placement.
//
// The paper proves several lower bounds on E_max; this module instantiates
// each of them on an actual (torus, placement) pair so experiments can
// compare them with measured loads and with each other:
//
//   blaum            (|P|-1)/2d                          eq. (1)/(6)
//   separator        2|S|(|P|-|S|)/|dS| for a given S     Lemma 1
//   bisection        2⌊|P|/2⌋⌈|P|/2⌉ / |d_b P|            Lemma 1 on a cut
//                    with ⌊|P|/2⌋ processors on one side; eq. (8)'s
//                    2(|P|/2)^2/|d_b P| for even |P|
//   improved         c^2 k^{d-1}/8 with c = |P|/k^{d-1}   Section 4 (odd k:
//                    the half-slab value, see formulas.h)
//
// The bisection cut is Theorem 1's dimension cut when some pair of layer
// boundaries balances P to within one processor, else the layer prefix
// cut {n : id(n) < r} of dimension_cut.h, which takes whole layers first
// and holds exactly ⌊|P|/2⌋ processors.  An odd |P| split ⌊|P|/2⌋ :
// ⌈|P|/2⌉ proves only the Lemma 1 value, 1/(2|d_b P|) below eq. (8)'s.
//
// Blaum, bisection and improved read the placement only through its
// LayerCounts (src/placement/layer_counts.h), so a caller that has the
// counts in closed form (the planner) needs no Placement; the Placement
// overloads fill the counts in one pass and share the same arithmetic.
// No bound builds a Cut or sweeps.
//
// All bounds are valid for every shortest-path routing algorithm; `best`
// returns the largest applicable one.

#pragma once

#include <string>
#include <vector>

#include "src/placement/layer_counts.h"
#include "src/placement/placement.h"

namespace tp {

/// A named lower bound instantiated on a concrete placement.
struct BoundValue {
  std::string name;
  double value = 0.0;
  bool applicable = true;  ///< e.g. `improved` needs a uniform placement
  std::string note;        ///< why not applicable / what it used

  bool operator==(const BoundValue&) const = default;
};

/// Eq. (1): (|P|-1)/2d.
BoundValue blaum_bound(const Torus& torus, const Placement& p);

/// Lemma 1 for a caller-supplied processor subset S, with |dS| computed as
/// the directed boundary of S's node set in the torus.
BoundValue separator_bound(const Torus& torus, const Placement& p,
                           const std::vector<NodeId>& subset);

/// Lemma 1 on a bisection: Theorem 1's dimension cut when it balances P,
/// else the layer prefix cut (see above).
BoundValue bisection_bound(const Torus& torus, const Placement& p);
BoundValue bisection_bound(const Torus& torus, const LayerCounts& counts);

/// Section 4's dimension-independent bound.  Applicable when the placement
/// is uniform along at least one dimension (the generalization the paper
/// notes after Theorem 1) and the torus has uniform radix.
BoundValue improved_bound(const Torus& torus, const Placement& p);
BoundValue improved_bound(const Torus& torus, const LayerCounts& counts);

/// Every bound above (separator over singleton subsets == blaum, so the
/// subset variant is not repeated) and, in `.back()`, the best value.
std::vector<BoundValue> all_bounds(const Torus& torus, const Placement& p);
std::vector<BoundValue> all_bounds(const Torus& torus,
                                   const LayerCounts& counts);

/// max over all applicable bounds.
double best_lower_bound(const Torus& torus, const Placement& p);

}  // namespace tp
