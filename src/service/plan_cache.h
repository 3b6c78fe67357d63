// Sharded LRU cache of computed query results.
//
// The cache maps QueryKey -> shared_ptr<const QueryResult>.  Results are
// immutable, so a hit hands back the exact object a miss produced —
// responses rendered from a hit are byte-identical to responses rendered
// from the original computation.
//
// Sharding: the key's stable hash selects one of `shards` independent
// LRU lists, each behind its own mutex, so concurrent engine workers
// touching different keys do not serialize on one lock.  Eviction is
// strictly per-shard LRU and therefore deterministic for a given sequence
// of get/put calls (tests pin shards = 1 to observe the global order).

#pragma once

#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/obs/registry.h"
#include "src/service/query.h"
#include "src/util/thread_annotations.h"

namespace tp::service {

class PlanCache {
 public:
  struct Stats {
    i64 hits = 0;
    i64 misses = 0;
    i64 evictions = 0;
    i64 entries = 0;
  };

  /// `capacity` is the total entry budget, split evenly across `shards`
  /// (each shard holds at least one entry).
  explicit PlanCache(std::size_t capacity, std::size_t shards = 8);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached result and promotes it to most-recently-used;
  /// nullptr on miss.
  std::shared_ptr<const QueryResult> get(const QueryKey& key);

  /// Inserts (or refreshes) an entry, evicting the shard's least-recently
  /// used entry when the shard is full.  Re-putting an existing key
  /// replaces the value and promotes it.
  void put(const QueryKey& key, std::shared_ptr<const QueryResult> result);

  /// Swaps a resident entry's result in place: its LRU position and age
  /// stay, and nothing is counted.  No-op when the key is not resident.
  void replace(const QueryKey& key,
               std::shared_ptr<const QueryResult> result);

  /// Aggregated over all shards.
  Stats stats() const;

  /// One Stats per shard, indexed by shard id — the {"op":"cachez"}
  /// admin view (docs/service.md).
  std::vector<Stats> shard_stats() const;

  /// Ages (µs since insert, duration buckets) of every resident entry.
  /// Refreshing a key via put() resets its age; a get() promotion does
  /// not — age measures data staleness, not access recency.
  obs::HistogramData age_histogram() const;

  std::size_t per_shard_capacity() const { return per_shard_capacity_; }

  std::size_t size() const;
  std::size_t num_shards() const { return shards_.size(); }
  std::size_t shard_of(const QueryKey& key) const {
    return static_cast<std::size_t>(key.hash()) % shards_.size();
  }

  /// Keys of one shard, most-recently-used first (eviction happens from
  /// the back).  For tests and introspection.
  std::vector<QueryKey> shard_keys_mru(std::size_t shard) const;

  /// Every resident entry, shard by shard, each shard most-recently-used
  /// first.  Does not promote and does not count as hits — this is the
  /// snapshot path (src/service/snapshot.h), not a lookup.
  std::vector<std::pair<QueryKey, std::shared_ptr<const QueryResult>>>
  entries_mru() const;

 private:
  struct Entry {
    QueryKey key;
    std::shared_ptr<const QueryResult> result;
    i64 insert_ns = 0;  ///< steady clock at insert/refresh (for ages)
  };

  struct Shard {
    mutable Mutex mu;
    // front = most recently used; eviction pops the back.
    std::list<Entry> lru TP_GUARDED_BY(mu);
    std::unordered_map<QueryKey, decltype(lru)::iterator, QueryKeyHash> index
        TP_GUARDED_BY(mu);
    i64 hits TP_GUARDED_BY(mu) = 0;
    i64 misses TP_GUARDED_BY(mu) = 0;
    i64 evictions TP_GUARDED_BY(mu) = 0;
  };

  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace tp::service
