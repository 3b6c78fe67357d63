#include "src/bisection/cut.h"

#include "src/torus/lattice.h"
#include "src/util/error.h"

namespace tp {

Cut::Cut(const Torus& torus, std::vector<bool> side) : side_(std::move(side)) {
  TP_REQUIRE(static_cast<i64>(side_.size()) == torus.num_nodes(),
             "one side entry per node required");
}

i64 Cut::directed_cut_size(const Torus& torus) const {
  // A crossing wire is crossed in both directions.
  return 2 * undirected_cut_size(torus);
}

i64 Cut::undirected_cut_size(const Torus& torus) const {
  const Lattice lat(torus);
  i64 count = 0;
  for (i32 dim = 0; dim < torus.dims(); ++dim)
    lat.for_each_pos_link(dim, [&](NodeId n, NodeId up, i32) {
      if (crosses(n, up)) ++count;
    });
  return count;
}

std::pair<i64, i64> Cut::processor_split(const Torus& torus,
                                         const Placement& p) const {
  p.check_torus(torus);
  i64 a = 0, b = 0;
  for (NodeId n : p.nodes())
    (side_[static_cast<std::size_t>(n)] ? b : a) += 1;
  return {a, b};
}

bool Cut::bisects(const Torus& torus, const Placement& p) const {
  const auto [a, b] = processor_split(torus, p);
  return (a > b ? a - b : b - a) <= 1;
}

EdgeSet Cut::crossing_edges(const Torus& torus) const {
  const Lattice lat(torus);
  EdgeSet set(torus);
  for (i32 dim = 0; dim < torus.dims(); ++dim)
    lat.for_each_pos_link(dim, [&](NodeId n, NodeId up, i32) {
      if (!crosses(n, up)) return;
      set.insert(torus.edge_id(n, dim, Dir::Pos));
      set.insert(torus.edge_id(up, dim, Dir::Neg));  // the reverse link
    });
  return set;
}

std::pair<i64, i64> Cut::node_split() const {
  i64 a = 0, b = 0;
  for (bool s : side_) (s ? b : a) += 1;
  return {a, b};
}

}  // namespace tp
