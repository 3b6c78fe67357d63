// Per-link communication loads (Definitions 4 and 5 of the paper).
//
// A LoadMap holds E(l) for every directed link l of a torus under the
// complete-exchange scenario.  Loads are rationals with small denominators
// (products of path-set sizes).  The ODR and UDR analyzers accumulate them
// exactly, as integers over 2·d!, and store each as the correctly rounded
// double; reference_loads sums exact Rationals and rounds once, so it
// equals them bit for bit.  adaptive_loads sums doubles, accurate to a
// few ulps at the sizes this library targets.
//
// The exact total: a map broadcast by the load analyzers carries the sum of
// its loads as the exact integer ΣLee (the Lee distances over ordered
// processor pairs, complete_exchange.h), so total_load() and mean_load()
// are that integer and ΣLee / 2dN rounded once, not a double sum of
// rounded loads.  add() drops it; a map built link by link sums doubles.

#pragma once

#include <optional>
#include <vector>

#include "src/torus/torus.h"

namespace tp {

/// Dense per-directed-link load table.
class LoadMap {
 public:
  explicit LoadMap(const Torus& torus)
      : loads_(static_cast<std::size_t>(torus.num_directed_edges()), 0.0),
        dims_(torus.dims()) {}

  /// Adopts one load per directed link, in EdgeId order, and optionally
  /// their exact sum.
  LoadMap(const Torus& torus, std::vector<double> loads,
          std::optional<double> exact_total = std::nullopt);

  void add(EdgeId e, double w) {
    exact_total_.reset();
    loads_.at(static_cast<std::size_t>(e)) += w;
  }
  double operator[](EdgeId e) const {
    return loads_.at(static_cast<std::size_t>(e));
  }

  i64 num_edges() const { return static_cast<i64>(loads_.size()); }

  /// E_max (Definition 5).
  double max_load() const;

  /// All links achieving the maximum (within tol).
  std::vector<EdgeId> argmax(double tol = 1e-9) const;

  /// Sum of E(l) over all links.  Equals the sum of (expected) path lengths
  /// over ordered processor pairs — see expected_total_load().  The exact
  /// total when the map carries one, else a double sum.
  double total_load() const;

  /// Mean load over all links (used links and idle ones alike):
  /// total_load() / 2dN.
  double mean_load() const;

  /// Number of links with load > tol.
  i64 num_loaded_edges(double tol = 1e-12) const;

  /// Maximum load among the links of one dimension only.
  double max_load_in_dim(const Torus& torus, i32 dim) const;

  /// Histogram of loads with the given number of equal-width bins over
  /// [0, max_load()].  Returns bin counts; empty map yields all zeros.
  std::vector<i64> histogram(std::size_t bins) const;

  /// Largest absolute difference against another map (cross-check tool).
  double max_abs_diff(const LoadMap& other) const;

  const std::vector<double>& raw() const { return loads_; }

 private:
  std::vector<double> loads_;
  std::optional<double> exact_total_;
  i32 dims_;
};

}  // namespace tp
