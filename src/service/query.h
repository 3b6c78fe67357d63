// Canonicalized design queries and their immutable results.
//
// The paper's deliverable is a closed-form answer to "given (d, k, t),
// what is the optimal placement and its exact E_max?" — a request/response
// shape.  A QueryKey is the normalized form of one such request: radices
// sorted ascending, multiplicity, router kind, and which outputs the
// caller wants (exact loads, the full bound table).  Two requests that
// normalize to the same key are the same computation, which is what makes
// caching and request coalescing sound.
//
// QueryResult is the complete, immutable answer: everything any front-end
// (JSONL batch/serve, CLI sweep/analyze, benches) needs to render a
// response without recomputing.  Results are shared by const pointer
// between the cache and all coalesced waiters; render paths must treat
// them as frozen.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/bounds/lower_bounds.h"
#include "src/bounds/slab_search.h"
#include "src/core/planner.h"
#include "src/load/load_map.h"

namespace tp::service {

/// What a query asks for.  Load implies the plan; Analyze is Load plus
/// the full bound table (the CLI `analyze` view).
enum class QueryOp {
  Plan,     ///< placement + router + predicted E_max + best lower bound
  Bounds,   ///< Plan plus every lower bound and the slab search
  Load,     ///< Plan plus the exact loads' E_max, mean and loaded links
  Analyze,  ///< Load plus Bounds
};

const char* op_name(QueryOp op);
QueryOp parse_op(const std::string& name);
const char* router_name_short(RouterKind kind);
RouterKind parse_router_kind(const std::string& name);

/// Normalized request identity.  Construct through make_query_key so the
/// radices are always sorted; equality and hashing are field-wise.
struct QueryKey {
  Radices radices;                     ///< sorted ascending
  i32 t = 1;                           ///< placement multiplicity
  RouterKind router = RouterKind::Odr;
  bool measure = false;                ///< measure the exact loads
  bool bounds = false;                 ///< compute the full bound table

  i32 dims() const { return static_cast<i32>(radices.size()); }
  QueryOp op() const;

  /// Stable FNV-1a hash of the normalized fields — identical across runs
  /// and processes (cache sharding and lookup both key on it).
  u64 hash() const;

  bool operator==(const QueryKey& o) const;

  /// Canonical text form, e.g. "load d3 k8 t1 udr".
  std::string str() const;
};

/// Canonicalizes a request into its key (sorts the radices).  Radix and
/// multiplicity *validity* is checked at compute time, not here: invalid
/// requests still need a well-defined key to carry their error response.
QueryKey make_query_key(const Radices& radices, i32 t, RouterKind router,
                        QueryOp op);

/// Hasher for unordered containers keyed on QueryKey.
struct QueryKeyHash {
  std::size_t operator()(const QueryKey& k) const {
    return static_cast<std::size_t>(k.hash());
  }
};

/// The immutable answer to one query.
struct QueryResult {
  QueryKey key;

  // Plan (always present).
  std::string placement_name;
  std::string router_name;
  std::string summary;
  i64 placement_size = 0;
  double predicted_emax = 0.0;
  bool prediction_exact = false;
  double lower_bound = 0.0;

  // Exact loads (present iff key.measure), read off the link-orbit
  // buckets: mean_load is exactly ΣLee / 2dN, rounded once.
  double measured_emax = 0.0;
  double mean_load = 0.0;
  i64 loaded_links = 0;
  /// Always null: answers keep no per-link map.  Kept for the benchmark's
  /// in-process replay (tpbench/replay.cpp), which still assigns one.
  std::shared_ptr<const LoadMap> loads;

  // Bound table (present iff key.bounds).
  std::vector<BoundValue> bound_table;
  bool has_slab = false;
  SlabBound slab;
};

/// Executes a query synchronously — the engine's work function, also
/// usable directly for a poolless one-shot.  `measure_threads` is the
/// analyzer width passed to the parallel load analyzers (1 = serial).
/// Throws tp::Error on invalid parameters (non-uniform radices, t out of
/// [1, k], ...); the engine converts the throw into an error response.
QueryResult compute_query(const QueryKey& key, i32 measure_threads = 1);

}  // namespace tp::service
