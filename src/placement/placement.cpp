#include "src/placement/placement.h"

#include <algorithm>
#include <numeric>

#include "src/torus/lattice.h"
#include "src/util/error.h"
#include "src/util/prng.h"

namespace tp {

Placement::Placement(const Torus& torus, std::vector<NodeId> nodes,
                     std::string name)
    : nodes_(std::move(nodes)),
      member_(static_cast<std::size_t>(torus.num_nodes()), false),
      name_(std::move(name)),
      torus_nodes_(torus.num_nodes()) {
  std::sort(nodes_.begin(), nodes_.end());
  nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
  for (NodeId n : nodes_) {
    TP_REQUIRE(torus.valid_node(n), "placement node outside torus");
    member_[static_cast<std::size_t>(n)] = true;
  }
}

bool Placement::contains(NodeId n) const {
  TP_REQUIRE(n >= 0 && n < torus_nodes_, "node id out of range");
  return member_[static_cast<std::size_t>(n)];
}

void Placement::check_torus(const Torus& torus) const {
  TP_REQUIRE(torus.num_nodes() == torus_nodes_,
             "placement was generated for a different torus");
}

Placement linear_placement(const Torus& torus, const SmallVec<i32>& coeffs,
                           i32 c) {
  TP_REQUIRE(torus.is_uniform_radix(),
             "linear placements require a uniform-radix torus");
  TP_REQUIRE(coeffs.size() == static_cast<std::size_t>(torus.dims()),
             "one coefficient per dimension required");
  const i32 k = torus.radix(0);
  bool any_coprime = false;
  for (std::size_t i = 0; i < coeffs.size(); ++i)
    if (is_coprime(coeffs[i], k)) any_coprime = true;
  TP_REQUIRE(any_coprime,
             "at least one coefficient must be relatively prime to k");

  std::vector<NodeId> nodes;
  for (NodeId n = 0; n < torus.num_nodes(); ++n) {
    i64 sum = 0;
    for (i32 d = 0; d < torus.dims(); ++d)
      sum += static_cast<i64>(coeffs[static_cast<std::size_t>(d)]) *
             torus.coord_of(n, d);
    if (mod_norm(sum, k) == mod_norm(c, k)) nodes.push_back(n);
  }
  std::string name = "linear(c=" + std::to_string(mod_norm(c, k));
  bool all_ones = true;
  for (std::size_t i = 0; i < coeffs.size(); ++i)
    if (coeffs[i] != 1) all_ones = false;
  if (!all_ones) {
    name += ",coeffs=[";
    for (std::size_t i = 0; i < coeffs.size(); ++i) {
      if (i > 0) name += ",";
      name += std::to_string(coeffs[i]);
    }
    name += "]";
  }
  name += ")";
  return Placement(torus, std::move(nodes), std::move(name));
}

Placement linear_placement(const Torus& torus, i32 c) {
  SmallVec<i32> coeffs(static_cast<std::size_t>(torus.dims()), 1);
  return linear_placement(torus, coeffs, c);
}

Placement multiple_linear_placement(const Torus& torus, i32 t) {
  TP_REQUIRE(torus.is_uniform_radix(),
             "multiple linear placements require a uniform-radix torus");
  const i32 k = torus.radix(0);
  TP_REQUIRE(t >= 1 && t <= k, "t must be in [1, k]");
  const Lattice lat(torus);
  std::vector<NodeId> nodes;
  lat.for_each_node([&](NodeId n, const i32* c) {
    i32 residue = 0;  // coordinate sum mod k
    for (std::size_t i = 0; i < lat.d; ++i) {
      residue += c[i];
      if (residue >= k) residue -= k;
    }
    if (residue < t) nodes.push_back(n);
  });
  return Placement(torus, std::move(nodes),
                   "multiple_linear(t=" + std::to_string(t) + ")");
}

Placement shifted_diagonal_placement(const Torus& torus, i32 shift) {
  TP_REQUIRE(torus.is_uniform_radix(),
             "shifted diagonal placements require a uniform-radix torus");
  const i32 k = torus.radix(0);
  std::vector<NodeId> nodes;
  for (NodeId n = 0; n < torus.num_nodes(); ++n) {
    i64 head = 0;
    for (i32 d = 0; d < torus.dims() - 1; ++d) head += torus.coord_of(n, d);
    const i64 want = mod_norm(shift - head, k);
    if (torus.coord_of(n, torus.dims() - 1) == want) nodes.push_back(n);
  }
  return Placement(torus, std::move(nodes),
                   "shifted_diagonal(shift=" + std::to_string(shift) + ")");
}

Placement full_population(const Torus& torus) {
  return Placement(torus, torus.all_nodes(), "full");
}

Placement random_placement(const Torus& torus, i64 size, u64 seed) {
  TP_REQUIRE(size >= 0 && size <= torus.num_nodes(),
             "placement size exceeds torus");
  std::vector<NodeId> all = torus.all_nodes();
  Xoshiro256SS rng(seed);
  // Partial Fisher-Yates: shuffle the first `size` positions.
  for (i64 i = 0; i < size; ++i) {
    const auto j =
        i + static_cast<i64>(rng.below(static_cast<u64>(torus.num_nodes() - i)));
    std::swap(all[static_cast<std::size_t>(i)],
              all[static_cast<std::size_t>(j)]);
  }
  all.resize(static_cast<std::size_t>(size));
  return Placement(torus, std::move(all),
                   "random(n=" + std::to_string(size) +
                       ",seed=" + std::to_string(seed) + ")");
}

Placement clustered_placement(const Torus& torus, i64 size) {
  TP_REQUIRE(size >= 0 && size <= torus.num_nodes(),
             "placement size exceeds torus");
  std::vector<NodeId> nodes(static_cast<std::size_t>(size));
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  return Placement(torus, std::move(nodes),
                   "clustered(n=" + std::to_string(size) + ")");
}

Placement subtorus_placement(const Torus& torus, i32 dim, i32 value) {
  return Placement(torus, torus.principal_subtorus(dim, value),
                   "subtorus(dim=" + std::to_string(dim) +
                       ",value=" + std::to_string(value) + ")");
}

}  // namespace tp
