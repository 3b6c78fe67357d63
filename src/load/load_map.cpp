#include "src/load/load_map.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/util/error.h"

namespace tp {

LoadMap::LoadMap(const Torus& torus, std::vector<double> loads)
    : loads_(std::move(loads)), dims_(torus.dims()) {
  TP_REQUIRE(static_cast<i64>(loads_.size()) == torus.num_directed_edges(),
             "one load per directed link required");
}

double LoadMap::max_load() const {
  double m = 0.0;
  for (double v : loads_) m = std::max(m, v);
  return m;
}

std::vector<EdgeId> LoadMap::argmax(double tol) const {
  const double m = max_load();
  std::vector<EdgeId> edges;
  for (std::size_t i = 0; i < loads_.size(); ++i)
    if (loads_[i] >= m - tol) edges.push_back(static_cast<EdgeId>(i));
  return edges;
}

double LoadMap::total_load() const {
  double sum = 0.0;
  for (double v : loads_) sum += v;
  return sum;
}

double LoadMap::mean_load() const {
  return loads_.empty() ? 0.0 : total_load() / static_cast<double>(loads_.size());
}

i64 LoadMap::num_loaded_edges(double tol) const {
  i64 n = 0;
  for (double v : loads_)
    if (v > tol) ++n;
  return n;
}

double LoadMap::max_load_in_dim(const Torus& torus, i32 dim) const {
  TP_REQUIRE(dim >= 0 && dim < dims_, "dimension out of range");
  double m = 0.0;
  for (std::size_t i = 0; i < loads_.size(); ++i) {
    const Link l = torus.link(static_cast<EdgeId>(i));
    if (l.dim == dim) m = std::max(m, loads_[i]);
  }
  return m;
}

std::vector<i64> LoadMap::histogram(std::size_t bins) const {
  TP_REQUIRE(bins >= 1, "need at least one bin");
  std::vector<i64> counts(bins, 0);
  const double m = max_load();
  if (m <= 0.0) {
    counts[0] = static_cast<i64>(loads_.size());
    return counts;
  }
  for (double v : loads_) {
    auto b = static_cast<std::size_t>(std::floor(v / m * static_cast<double>(bins)));
    if (b >= bins) b = bins - 1;
    ++counts[b];
  }
  return counts;
}

double LoadMap::max_abs_diff(const LoadMap& other) const {
  TP_REQUIRE(loads_.size() == other.loads_.size(),
             "load maps cover different tori");
  double m = 0.0;
  for (std::size_t i = 0; i < loads_.size(); ++i)
    m = std::max(m, std::abs(loads_[i] - other.loads_[i]));
  return m;
}

}  // namespace tp
