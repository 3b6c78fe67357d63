#include "src/service/query.h"

#include <algorithm>
#include <utility>

#include "src/load/counted_loads.h"
#include "src/obs/obs.h"
#include "src/util/error.h"

namespace tp::service {

const char* op_name(QueryOp op) {
  switch (op) {
    case QueryOp::Plan:
      return "plan";
    case QueryOp::Bounds:
      return "bounds";
    case QueryOp::Load:
      return "load";
    case QueryOp::Analyze:
      return "analyze";
  }
  TP_ASSERT(false, "unknown query op");
}

QueryOp parse_op(const std::string& name) {
  if (name == "plan" || name.empty()) return QueryOp::Plan;
  if (name == "bounds") return QueryOp::Bounds;
  if (name == "load") return QueryOp::Load;
  if (name == "analyze") return QueryOp::Analyze;
  throw Error("unknown op '" + name + "' (plan|bounds|load|analyze)");
}

const char* router_name_short(RouterKind kind) {
  switch (kind) {
    case RouterKind::Odr:
      return "odr";
    case RouterKind::Udr:
      return "udr";
    case RouterKind::Adaptive:
      return "adaptive";
  }
  TP_ASSERT(false, "unknown router kind");
}

RouterKind parse_router_kind(const std::string& name) {
  if (name == "odr" || name.empty()) return RouterKind::Odr;
  if (name == "udr") return RouterKind::Udr;
  if (name == "adaptive") return RouterKind::Adaptive;
  throw Error("unknown router '" + name + "' (odr|udr|adaptive)");
}

QueryOp QueryKey::op() const {
  if (measure && bounds) return QueryOp::Analyze;
  if (measure) return QueryOp::Load;
  if (bounds) return QueryOp::Bounds;
  return QueryOp::Plan;
}

u64 QueryKey::hash() const {
  // FNV-1a over the normalized fields; stable across runs and platforms.
  u64 h = 14695981039346656037ull;
  const auto mix = [&h](u64 v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (byte * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<u64>(radices.size()));
  for (const i32 r : radices) mix(static_cast<u64>(r));
  mix(static_cast<u64>(t));
  mix(static_cast<u64>(router));
  mix((measure ? 1u : 0u) | (bounds ? 2u : 0u));
  return h;
}

bool QueryKey::operator==(const QueryKey& o) const {
  return radices == o.radices && t == o.t && router == o.router &&
         measure == o.measure && bounds == o.bounds;
}

std::string QueryKey::str() const {
  std::string s(op_name(op()));
  s += " d" + std::to_string(dims());
  const bool uniform =
      std::all_of(radices.begin(), radices.end(),
                  [&](i32 r) { return r == radices[0]; });
  if (uniform && !radices.empty()) {
    s += " k" + std::to_string(radices[0]);
  } else {
    s += " k";
    for (std::size_t i = 0; i < radices.size(); ++i) {
      if (i > 0) s += "x";
      s += std::to_string(radices[i]);
    }
  }
  s += " t" + std::to_string(t);
  s += " ";
  s += router_name_short(router);
  return s;
}

QueryKey make_query_key(const Radices& radices, i32 t, RouterKind router,
                        QueryOp op) {
  QueryKey key;
  key.radices = radices;
  std::sort(key.radices.begin(), key.radices.end());
  key.t = t;
  key.router = router;
  key.measure = op == QueryOp::Load || op == QueryOp::Analyze;
  key.bounds = op == QueryOp::Bounds || op == QueryOp::Analyze;
  return key;
}

QueryResult compute_query(const QueryKey& key) {
  TP_REQUIRE(!key.radices.empty(), "query needs at least one dimension");
  const Torus torus(key.radices);

  QueryResult r;
  r.key = key;

  DesignPlan plan = plan_design(torus, key.t, key.router);
  r.placement_name = std::move(plan.placement_name);
  r.router_name = plan.router->name();
  r.summary = std::move(plan.summary);
  r.placement_size = plan.counts.size;
  r.predicted_emax = plan.predicted_emax;
  r.prediction_exact = plan.prediction_exact;
  r.lower_bound = plan.lower_bound;

  if (key.measure) {
    TP_OBS_SCOPE("plan.measure");
    // multiple_linear_placement(t) is the union of the cosets 0..t-1.
    CosetUnion u{torus.dims(), torus.radix(0),
                 std::vector<bool>(static_cast<std::size_t>(torus.radix(0)))};
    std::fill_n(u.classes.begin(), key.t, true);
    const FoldedLoads loads = counted_orbit_loads(u, key.router);
    r.measured_emax = loads.max_load();
    r.mean_load = loads.mean_load();
    r.loaded_links = loads.num_loaded_edges();
  }

  if (key.bounds) {
    r.bound_table = std::move(plan.bounds);
    if (plan.counts.size >= 2) {
      r.slab = best_slab_bound(torus, plan.counts);
      r.has_slab = true;
    }
  }
  return r;
}

}  // namespace tp::service
