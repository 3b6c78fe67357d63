#include "src/service/plan_cache.h"

#include "src/obs/timer.h"
#include "src/util/error.h"

namespace tp::service {

PlanCache::PlanCache(std::size_t capacity, std::size_t shards) {
  TP_REQUIRE(capacity >= 1, "cache capacity must be at least 1");
  TP_REQUIRE(shards >= 1, "cache needs at least one shard");
  shards = std::min(shards, capacity);
  per_shard_capacity_ = std::max<std::size_t>(1, capacity / shards);
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

std::shared_ptr<const QueryResult> PlanCache::find_ready(Shard& shard,
                                                         const HashedKey& key) {
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    ++shard.misses;
    return nullptr;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->result;
}

void PlanCache::insert_ready(Shard& shard, const HashedKey& key,
                             std::shared_ptr<const QueryResult> result) const {
  const i64 now_ns = obs::Stopwatch::now_ns();
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->result = std::move(result);
    it->second->insert_ns = now_ns;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  if (shard.lru.size() >= per_shard_capacity_) {
    shard.index.erase(shard.lru.back().key);
    shard.lru.pop_back();
    ++shard.evictions;
  }
  shard.lru.push_front(Entry{key, std::move(result), now_ns});
  shard.index.emplace(key, shard.lru.begin());
}

std::shared_ptr<const QueryResult> PlanCache::get(const HashedKey& key) {
  Shard& shard = shard_for(key);
  const MutexLock lock(shard.mu);
  return find_ready(shard, key);
}

void PlanCache::put(const HashedKey& key,
                    std::shared_ptr<const QueryResult> result) {
  TP_REQUIRE(result != nullptr, "cannot cache a null result");
  Shard& shard = shard_for(key);
  const MutexLock lock(shard.mu);
  insert_ready(shard, key, std::move(result));
}

PlanCache::Waiters PlanCache::publish(
    const HashedKey& key, std::shared_ptr<const QueryResult> result,
    Clock::time_point now) {
  Shard& shard = shard_for(key);
  const MutexLock lock(shard.mu);
  const auto it = shard.computing.find(key);
  TP_ASSERT(it != shard.computing.end(), "publish of a key not computing");
  if (now < it->second.until) return {};
  Waiters waiters = std::move(it->second.waiters);
  shard.computing.erase(it);
  if (result != nullptr) insert_ready(shard, key, std::move(result));
  return waiters;
}

PlanCache::Stats PlanCache::stats() const {
  Stats total;
  for (const Stats& s : shard_stats()) {
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.entries += s.entries;
    total.computing += s.computing;
  }
  return total;
}

std::vector<PlanCache::Stats> PlanCache::shard_stats() const {
  std::vector<Stats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const MutexLock lock(shard->mu);
    out.push_back({shard->hits, shard->misses, shard->evictions,
                   static_cast<i64>(shard->lru.size()),
                   static_cast<i64>(shard->computing.size())});
  }
  return out;
}

obs::HistogramData PlanCache::age_histogram() const {
  obs::HistogramData ages(obs::duration_bucket_bounds());
  const i64 now_ns = obs::Stopwatch::now_ns();
  for (const auto& shard : shards_) {
    const MutexLock lock(shard->mu);
    for (const Entry& e : shard->lru)
      ages.record((now_ns - e.insert_ns) / 1000);
  }
  return ages;
}

std::size_t PlanCache::size() const {
  return static_cast<std::size_t>(stats().entries);
}

std::vector<std::pair<QueryKey, std::shared_ptr<const QueryResult>>>
PlanCache::entries_mru() const {
  std::vector<std::pair<QueryKey, std::shared_ptr<const QueryResult>>> out;
  for (const auto& shard : shards_) {
    const MutexLock lock(shard->mu);
    for (const Entry& e : shard->lru) out.emplace_back(e.key.key, e.result);
  }
  return out;
}

}  // namespace tp::service
