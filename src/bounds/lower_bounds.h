// Concrete lower-bound evaluation for a given torus and placement.
//
// The paper proves several lower bounds on E_max; this module instantiates
// each of them on an actual (torus, placement) pair so experiments can
// compare them with measured loads and with each other:
//
//   blaum            (|P|-1)/2d                          eq. (1)/(6)
//   separator        2|S|(|P|-|S|)/|dS| for a given S     Lemma 1
//   bisection        2(|P|/2)^2 / |d_b P|                 eq. (8), with
//                    |d_b P| instantiated by a constructive cut
//   improved         c^2 k^{d-1}/8 with c = |P|/k^{d-1}   Section 4 (odd k:
//                    the half-slab value, see formulas.h)
//
// All bounds are valid for every shortest-path routing algorithm; `best`
// returns the largest applicable one.

#pragma once

#include <string>
#include <vector>

#include "src/bisection/cut.h"
#include "src/placement/placement.h"

namespace tp {

/// A named lower bound instantiated on a concrete placement.
struct BoundValue {
  std::string name;
  double value = 0.0;
  bool applicable = true;  ///< e.g. `improved` needs a uniform placement
  std::string note;        ///< why not applicable / what it used
};

/// Eq. (1): (|P|-1)/2d.
BoundValue blaum_bound(const Torus& torus, const Placement& p);

/// Lemma 1 for a caller-supplied processor subset S, with |dS| computed as
/// the directed boundary of S's node set in the torus.
BoundValue separator_bound(const Torus& torus, const Placement& p,
                           const std::vector<NodeId>& subset);

/// Eq. (8) with the bisection realized by the best dimension cut
/// (Theorem 1) when it balances, else by the hyperplane sweep.
BoundValue bisection_bound(const Torus& torus, const Placement& p);

/// Section 4's dimension-independent bound.  Applicable when the placement
/// is uniform along at least one dimension (the generalization the paper
/// notes after Theorem 1) and the torus has uniform radix.
BoundValue improved_bound(const Torus& torus, const Placement& p);

/// Every bound above (separator over singleton subsets == blaum, so the
/// subset variant is not repeated) and, in `.back()`, the best value.
std::vector<BoundValue> all_bounds(const Torus& torus, const Placement& p);

/// max over all applicable bounds.
double best_lower_bound(const Torus& torus, const Placement& p);

}  // namespace tp
