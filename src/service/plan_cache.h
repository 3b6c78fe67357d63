// The engine's one table: per key, a ready result or the computation
// that will produce it, with its waiters.
//
// Ready results (shared_ptr<const QueryResult>, immutable, so a hit hands
// back the exact object the miss produced and renders byte-identical
// responses) sit in a per-shard LRU.  A key being computed sits beside it
// with its waiters (Pending, the engine's type, held only by pointer); it
// is never evicted, snapshotted or counted as an entry.  probe() and
// publish() move a key between the two under its shard's lock, so a key
// is ready, computing or absent, never two at once.
//
// The key's stable hash selects one of `shards` shards, each behind its
// own mutex.  Eviction is strictly per-shard LRU, so deterministic for a
// given sequence of calls (tests pin shards = 1 to see the global order).

#pragma once

#include <algorithm>
#include <chrono>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/obs/registry.h"
#include "src/service/query.h"
#include "src/util/thread_annotations.h"

namespace tp::service {

/// A request waiting on a computing key: the engine's (engine.cpp).
struct Pending;

class PlanCache {
 public:
  using Clock = std::chrono::steady_clock;
  using Waiters = std::vector<std::shared_ptr<Pending>>;

  struct Stats {
    i64 hits = 0;
    i64 misses = 0;
    i64 evictions = 0;
    i64 entries = 0;    ///< ready entries
    i64 computing = 0;  ///< keys being computed
  };

  /// How probe() found a key.
  enum class Probe { Hit, Coalesced, New };

  /// `capacity` is the total entry budget, split evenly across `shards`
  /// (each shard holds at least one entry).
  explicit PlanCache(std::size_t capacity, std::size_t shards = 8);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the ready result and promotes it to most-recently-used;
  /// nullptr on miss (a computing key is a miss).
  std::shared_ptr<const QueryResult> get(const QueryKey& key);

  /// Inserts (or refreshes) a ready entry, evicting the shard's
  /// least-recently used entry when the shard is full.  Re-putting an
  /// existing key replaces the value and promotes it.
  void put(const QueryKey& key, std::shared_ptr<const QueryResult> result);

  /// Classifies one request in a single shard-locked step.  A ready entry
  /// is promoted and returned in *hit (Hit).  Otherwise the waiter that
  /// make_waiter() builds, under the lock, joins the key's computation
  /// (Coalesced) or starts one (New), which is wanted until the latest
  /// `until` of its waiters.  Counted as one hit or miss, like get().
  template <class MakeWaiter>
  Probe probe(const QueryKey& key, Clock::time_point until,
              std::shared_ptr<const QueryResult>* hit, MakeWaiter make_waiter) {
    Shard& shard = shard_for(key);
    const MutexLock lock(shard.mu);
    *hit = find_ready(shard, key);
    if (*hit != nullptr) return Probe::Hit;
    std::shared_ptr<Pending> waiter = make_waiter();
    const auto [it, fresh] = shard.computing.try_emplace(key);
    it->second.waiters.push_back(std::move(waiter));
    it->second.until = std::max(it->second.until, until);
    return fresh ? Probe::New : Probe::Coalesced;
  }

  /// Ends `key`'s computation, when no waiter wants it at `now` (by
  /// default, always), and returns its waiters, its starter first.  A
  /// result becomes the ready entry (an insert that may evict); null
  /// drops the computation, so the next probe starts afresh.
  Waiters publish(const QueryKey& key,
                  std::shared_ptr<const QueryResult> result,
                  Clock::time_point now = Clock::time_point::max());

  /// Aggregated over all shards.
  Stats stats() const;

  /// One Stats per shard, indexed by shard id — the {"op":"cachez"}
  /// admin view (docs/service.md).
  std::vector<Stats> shard_stats() const;

  /// Ages (µs since insert, duration buckets) of every ready entry.
  /// Refreshing a key via put() resets its age; a get() promotion does
  /// not — age measures data staleness, not access recency.
  obs::HistogramData age_histogram() const;

  std::size_t per_shard_capacity() const { return per_shard_capacity_; }

  /// Ready entries.
  std::size_t size() const;
  std::size_t num_shards() const { return shards_.size(); }
  std::size_t shard_of(const QueryKey& key) const {
    return static_cast<std::size_t>(key.hash()) % shards_.size();
  }

  /// Every ready entry, shard by shard, each shard most-recently-used
  /// first (eviction happens from the back).  Does not promote and does
  /// not count as hits — this is the snapshot path (src/service/
  /// snapshot.h), not a lookup.
  std::vector<std::pair<QueryKey, std::shared_ptr<const QueryResult>>>
  entries_mru() const;

 private:
  struct Entry {
    QueryKey key;
    std::shared_ptr<const QueryResult> result;
    i64 insert_ns = 0;  ///< steady clock at insert/refresh (for ages)
  };

  struct Computing {
    Waiters waiters;
    Clock::time_point until = Clock::time_point::min();
  };

  struct Shard {
    mutable Mutex mu;
    // front = most recently used; eviction pops the back.
    std::list<Entry> lru TP_GUARDED_BY(mu);
    std::unordered_map<QueryKey, decltype(lru)::iterator, QueryKeyHash> index
        TP_GUARDED_BY(mu);
    std::unordered_map<QueryKey, Computing, QueryKeyHash> computing
        TP_GUARDED_BY(mu);
    i64 hits TP_GUARDED_BY(mu) = 0;
    i64 misses TP_GUARDED_BY(mu) = 0;
    i64 evictions TP_GUARDED_BY(mu) = 0;
  };

  Shard& shard_for(const QueryKey& key) const { return *shards_[shard_of(key)]; }

  /// The ready result, promoted and counted as a hit; nullptr, counted as
  /// a miss, when there is none.
  static std::shared_ptr<const QueryResult> find_ready(Shard& shard,
                                                       const QueryKey& key)
      TP_REQUIRES(shard.mu);
  void insert_ready(Shard& shard, const QueryKey& key,
                    std::shared_ptr<const QueryResult> result) const
      TP_REQUIRES(shard.mu);

  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace tp::service
