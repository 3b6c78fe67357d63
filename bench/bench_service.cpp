// E-service — the query engine: cache hits vs cold plans, coalescing.
//
// The service answers (d, k, t, router) design queries through a sharded
// LRU cache with in-flight coalescing.  The table contrasts a cold miss
// (full plan + exact load computation) with a warm hit (one lock + list
// splice) and shows the dedup a coalesced 64-client burst achieves; the
// timing section backs the same three paths with wall times.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/util/thread_annotations.h"
#include "src/service/service.h"

namespace tp {
namespace {

std::string bench_tmp(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

service::QueryKey load_key(i32 d, i32 k) {
  Radices radices;
  for (i32 i = 0; i < d; ++i) radices.push_back(k);
  return service::make_query_key(radices, 1, RouterKind::Odr,
                                 service::QueryOp::Load);
}

void print_tables() {
  bench_banner("E-service: plan query engine (cache + coalescing)",
               "a warm hit skips the whole computation; N identical "
               "concurrent requests compute once");
  Table table({"query", "cold plans", "warm plans", "64-client plans",
               "64-client dedup"});
  for (const auto& [d, k] :
       std::vector<std::pair<i32, i32>>{{2, 16}, {3, 8}}) {
    const service::QueryKey key = load_key(d, k);

    service::Engine cold;
    cold.run({key});
    const i64 cold_plans = cold.stats().plans_computed;
    cold.run({key});
    const i64 warm_plans = cold.stats().plans_computed - cold_plans;

    service::EngineConfig config;
    config.threads = 4;
    service::Engine burst(config);
    std::vector<tp::Thread> clients;
    clients.reserve(64);
    for (int i = 0; i < 64; ++i)
      clients.emplace_back([&burst, &key] { burst.run({key}); });
    for (auto& c : clients) c.join();
    const service::EngineStats s = burst.stats();

    table.add_row({key.str(), fmt(static_cast<long long>(cold_plans)),
                   fmt(static_cast<long long>(warm_plans)),
                   fmt(static_cast<long long>(s.plans_computed)),
                   fmt(static_cast<long long>(s.cache_hits + s.coalesced)) +
                       "/64"});
  }
  table.print(std::cout);
  std::cout << std::endl;
}

// Cold miss: every iteration hits a fresh engine, so the full plan +
// exact-load computation runs each time.
void BM_ServiceColdMiss(benchmark::State& state) {
  const service::QueryKey key = load_key(2, static_cast<i32>(state.range(0)));
  for (auto _ : state) {
    service::Engine engine;
    const service::Response r = engine.run({key});
    benchmark::DoNotOptimize(r.result);
  }
}

// Warm hit: the engine is primed once; iterations measure the cache path
// (submit -> shard lock -> LRU splice -> a ticket holding its answer).
void BM_ServiceWarmHit(benchmark::State& state) {
  const service::QueryKey key = load_key(2, static_cast<i32>(state.range(0)));
  service::Engine engine;
  engine.run({key});
  for (auto _ : state) {
    const service::Response r = engine.run({key});
    benchmark::DoNotOptimize(r.result);
  }
}

// Coalesced burst: 64 clients hammer one key on a fresh engine.  The
// throughput number is requests answered per unit time; plans_computed
// stays 1 per iteration.
void BM_ServiceCoalesced64(benchmark::State& state) {
  const service::QueryKey key = load_key(2, static_cast<i32>(state.range(0)));
  i64 plans = 0;
  for (auto _ : state) {
    service::EngineConfig config;
    config.threads = 4;
    service::Engine engine(config);
    std::vector<service::Engine::Ticket> tickets;
    tickets.reserve(64);
    for (int i = 0; i < 64; ++i) tickets.push_back(engine.submit({key}));
    for (auto& t : tickets) benchmark::DoNotOptimize(t.wait().ok);
    plans = engine.stats().plans_computed;
  }
  state.counters["plans"] = static_cast<double>(plans);
  state.counters["requests"] =
      benchmark::Counter(64, benchmark::Counter::kIsIterationInvariantRate);
}

// Snapshot save: serializing a warm cache (CRC framing + fsync + atomic
// rename) — the cost the periodic saver pays per interval.
void BM_SnapshotSave(benchmark::State& state) {
  service::PlanCache cache(16, 4);
  for (i64 i = 0; i < state.range(0); ++i) {
    const service::QueryKey key = load_key(2, 8 + 2 * static_cast<i32>(i));
    cache.put(key, std::make_shared<service::QueryResult>(
                       service::compute_query(key)));
  }
  const std::string path =
      bench_tmp("bench_snapshot_save.snap");
  i64 bytes = 0;
  for (auto _ : state)
    bytes = service::save_cache_snapshot(cache, path).bytes;
  state.counters["bytes"] = static_cast<double>(bytes);
  std::remove(path.c_str());
}

// Snapshot load: parse + verify (per-record and whole-file CRCs, key hash
// cross-checks) + re-insert — the cost a warm boot adds to startup.
void BM_SnapshotLoad(benchmark::State& state) {
  service::PlanCache cache(16, 4);
  for (i64 i = 0; i < state.range(0); ++i) {
    const service::QueryKey key = load_key(2, 8 + 2 * static_cast<i32>(i));
    cache.put(key, std::make_shared<service::QueryResult>(
                       service::compute_query(key)));
  }
  const std::string path =
      bench_tmp("bench_snapshot_load.snap");
  service::save_cache_snapshot(cache, path);
  for (auto _ : state) {
    service::PlanCache warmed(16, 4);
    benchmark::DoNotOptimize(
        service::load_cache_snapshot(warmed, path).entries);
  }
  std::remove(path.c_str());
}

// Full warm boot: engine construction with --cache-load semantics — pool
// spawn + snapshot load + teardown.
void BM_WarmBoot(benchmark::State& state) {
  {
    service::EngineConfig config;
    config.threads = 2;
    config.snapshot_path =
        bench_tmp("bench_warm_boot.snap");
    service::Engine primer(config);
    for (i64 i = 0; i < state.range(0); ++i)
      primer.run({load_key(2, 8 + 2 * static_cast<i32>(i))});
    primer.save_snapshot();
  }
  const std::string path = bench_tmp("bench_warm_boot.snap");
  for (auto _ : state) {
    service::EngineConfig config;
    config.threads = 2;
    config.snapshot_path = path;
    config.snapshot_load = true;
    service::Engine engine(config);
    benchmark::DoNotOptimize(engine.snapshot_status().warm_entries);
  }
  std::remove(path.c_str());
}

// JSONL batch end-to-end: parse + submit + collect + render for a
// 100-request file with 10 unique keys.
void BM_ServiceBatch100(benchmark::State& state) {
  std::string input;
  for (int i = 0; i < 100; ++i)
    input += "{\"op\":\"load\",\"d\":2,\"k\":" + std::to_string(4 + i % 5) +
             ",\"router\":\"" + ((i / 5) % 2 == 0 ? "odr" : "udr") + "\"}\n";
  for (auto _ : state) {
    service::EngineConfig config;
    config.threads = 4;
    service::Engine engine(config);
    std::istringstream in(input);
    std::ostringstream out;
    benchmark::DoNotOptimize(service::run_batch(engine, in, out));
  }
}

BENCHMARK(BM_ServiceColdMiss)->Arg(8)->Arg(16)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ServiceWarmHit)->Arg(8)->Arg(16)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ServiceCoalesced64)->Arg(16)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SnapshotSave)->Arg(4)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SnapshotLoad)->Arg(4)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WarmBoot)->Arg(4)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ServiceBatch100)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tp

TP_BENCH_MAIN(tp::print_tables)
