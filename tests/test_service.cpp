// Tests for the query service: key normalization, cache LRU semantics,
// engine coalescing/deadlines/drain, and the JSONL front-end.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/core/torusplace.h"
#include "src/obs/obs.h"
#include "src/service/service.h"

namespace tp::service {
namespace {

QueryKey key_dk(i32 d, i32 k, i32 t = 1, RouterKind r = RouterKind::Odr,
                QueryOp op = QueryOp::Plan) {
  Radices radices;
  for (i32 i = 0; i < d; ++i) radices.push_back(k);
  return make_query_key(radices, t, r, op);
}

std::shared_ptr<const QueryResult> dummy_result(const QueryKey& key) {
  auto r = std::make_shared<QueryResult>();
  r->key = key;
  r->placement_name = "dummy";
  return r;
}

// ---------------------------------------------------------------- QueryKey

TEST(QueryKey, NormalizesRadixOrder) {
  Radices a{6, 4, 8};
  Radices b{8, 6, 4};
  const QueryKey ka = make_query_key(a, 1, RouterKind::Odr, QueryOp::Plan);
  const QueryKey kb = make_query_key(b, 1, RouterKind::Odr, QueryOp::Plan);
  EXPECT_EQ(ka, kb);
  EXPECT_EQ(ka.hash(), kb.hash());
  EXPECT_EQ(ka.radices[0], 4);
  EXPECT_EQ(ka.radices[2], 8);
}

TEST(QueryKey, DistinguishesEveryField) {
  const QueryKey base = key_dk(3, 8);
  EXPECT_FALSE(base == key_dk(2, 8));
  EXPECT_FALSE(base == key_dk(3, 6));
  EXPECT_FALSE(base == key_dk(3, 8, 2));
  EXPECT_FALSE(base == key_dk(3, 8, 1, RouterKind::Udr));
  EXPECT_FALSE(base == key_dk(3, 8, 1, RouterKind::Odr, QueryOp::Load));
}

TEST(QueryKey, HashIsStableAcrossProcessRuns) {
  // FNV-1a over the normalized fields: a fixed key must hash to a fixed
  // value forever (the cache shard layout depends on it).
  EXPECT_EQ(key_dk(3, 8).hash(), key_dk(3, 8).hash());
  const QueryKey k1 = key_dk(3, 8);
  const QueryKey k2 = key_dk(3, 8, 1, RouterKind::Odr, QueryOp::Load);
  EXPECT_NE(k1.hash(), k2.hash());
}

TEST(QueryKey, OpRoundTrip) {
  EXPECT_EQ(key_dk(2, 4, 1, RouterKind::Odr, QueryOp::Plan).op(),
            QueryOp::Plan);
  EXPECT_EQ(key_dk(2, 4, 1, RouterKind::Odr, QueryOp::Load).op(),
            QueryOp::Load);
  EXPECT_EQ(key_dk(2, 4, 1, RouterKind::Odr, QueryOp::Bounds).op(),
            QueryOp::Bounds);
  EXPECT_EQ(key_dk(2, 4, 1, RouterKind::Odr, QueryOp::Analyze).op(),
            QueryOp::Analyze);
  EXPECT_EQ(key_dk(3, 8, 2, RouterKind::Udr, QueryOp::Load).str(),
            "load d3 k8 t2 udr");
}

TEST(ComputeQuery, MatchesPlannerDirectly) {
  const Torus torus(3, 8);
  const PlacementPlan plan = plan_placement(torus, 1, RouterKind::Odr);
  const QueryResult r =
      compute_query(key_dk(3, 8, 1, RouterKind::Odr, QueryOp::Load));
  EXPECT_EQ(r.placement_name, plan.placement.name());
  EXPECT_EQ(r.placement_size, plan.placement.size());
  EXPECT_EQ(r.predicted_emax, plan.predicted_emax);
  EXPECT_EQ(r.prediction_exact, plan.prediction_exact);
  EXPECT_EQ(r.lower_bound, plan.lower_bound);
  EXPECT_EQ(r.measured_emax, measure_emax(torus, plan));
  // The answer is read off the orbit buckets and keeps no map; it equals
  // the broadcast map's, bit for bit.
  EXPECT_EQ(r.loads, nullptr);
  const LoadMap loads =
      measure_loads(torus, plan.placement, RouterKind::Odr);
  EXPECT_EQ(r.measured_emax, loads.max_load());
  EXPECT_EQ(r.mean_load, loads.mean_load());
  EXPECT_EQ(r.loaded_links, loads.num_loaded_edges());
}

TEST(ComputeQuery, RejectsInvalidParameters) {
  EXPECT_THROW(compute_query(key_dk(3, 8, 99)), Error);  // t > k
  Radices mixed{4, 6};
  EXPECT_THROW(compute_query(make_query_key(mixed, 1, RouterKind::Odr,
                                            QueryOp::Plan)),
               Error);  // planning requires uniform radix
}

// ---------------------------------------------------------------- PlanCache

TEST(PlanCache, DeterministicLruEvictionOrder) {
  // One shard, capacity 2: the eviction order is the global LRU order.
  PlanCache cache(2, 1);
  const QueryKey a = key_dk(2, 4), b = key_dk(2, 6), c = key_dk(2, 8);
  cache.put(a, dummy_result(a));
  cache.put(b, dummy_result(b));
  EXPECT_NE(cache.get(a), nullptr);  // promotes a; b is now LRU
  cache.put(c, dummy_result(c));     // evicts b
  EXPECT_EQ(cache.get(b), nullptr);
  EXPECT_NE(cache.get(a), nullptr);
  EXPECT_NE(cache.get(c), nullptr);

  const auto mru = cache.shard_keys_mru(0);
  ASSERT_EQ(mru.size(), 2u);
  EXPECT_EQ(mru[0], c);  // last touched
  EXPECT_EQ(mru[1], a);

  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.entries, 2);
  EXPECT_EQ(s.misses, 1);  // the get(b) after eviction
  EXPECT_EQ(s.hits, 3);
}

TEST(PlanCache, HitReturnsTheExactObjectPut) {
  PlanCache cache(4, 2);
  const QueryKey a = key_dk(3, 8);
  const auto result = dummy_result(a);
  cache.put(a, result);
  EXPECT_EQ(cache.get(a).get(), result.get());  // same object, not a copy
}

TEST(PlanCache, RePutReplacesAndPromotes) {
  PlanCache cache(2, 1);
  const QueryKey a = key_dk(2, 4), b = key_dk(2, 6);
  cache.put(a, dummy_result(a));
  cache.put(b, dummy_result(b));
  const auto fresh = dummy_result(a);
  cache.put(a, fresh);  // replace + promote; nothing evicted
  EXPECT_EQ(cache.stats().evictions, 0);
  EXPECT_EQ(cache.get(a).get(), fresh.get());
  const auto mru = cache.shard_keys_mru(0);
  EXPECT_EQ(mru[0], a);
}

TEST(PlanCache, ShardSelectionIsStable) {
  PlanCache cache(16, 4);
  const QueryKey a = key_dk(3, 8);
  EXPECT_EQ(cache.shard_of(a), cache.shard_of(a));
  EXPECT_EQ(cache.shard_of(a), static_cast<std::size_t>(a.hash()) % 4);
}

// ------------------------------------------------------------------ Engine

TEST(Engine, AnswersASingleQuery) {
  EngineConfig config;
  config.threads = 2;
  Engine engine(config);
  const Response r = engine.run({key_dk(3, 8, 1, RouterKind::Odr,
                                        QueryOp::Load)});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.result->placement_size, 64);
  EXPECT_EQ(r.result->measured_emax, 32.0);
}

TEST(Engine, HammeredKeyComputesExactlyOnce) {
  // N threads submit the identical key concurrently; the engine must
  // compute one plan and serve every thread the same immutable result.
  EngineConfig config;
  config.threads = 4;
  Engine engine(config);
  const QueryKey key = key_dk(3, 8, 1, RouterKind::Odr, QueryOp::Load);

  constexpr int kClients = 16;
  std::vector<std::shared_ptr<const QueryResult>> results(kClients);
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int i = 0; i < kClients; ++i)
      clients.emplace_back([&engine, &results, &failures, &key, i] {
        const Response r = engine.run({key});
        if (r.ok)
          results[static_cast<std::size_t>(i)] = r.result;
        else
          ++failures;
      });
    for (auto& c : clients) c.join();
  }
  EXPECT_EQ(failures.load(), 0);

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.plans_computed, 1);
  EXPECT_EQ(s.cache_misses, 1);
  EXPECT_EQ(s.requests, kClients);
  EXPECT_EQ(s.completed, kClients);
  EXPECT_EQ(s.cache_hits + s.coalesced, kClients - 1);

  // Every client got the exact same object (shared, not re-rendered).
  for (int i = 1; i < kClients; ++i)
    EXPECT_EQ(results[static_cast<std::size_t>(i)].get(), results[0].get());
}

TEST(Engine, ExpiredDeadlineTimesOutWithoutPoisoningTheCache) {
  EngineConfig config;
  config.threads = 1;
  Engine engine(config);
  const QueryKey key = key_dk(2, 6, 1, RouterKind::Odr, QueryOp::Load);

  // deadline_ms = 0 expires at submit: a deterministic structured timeout
  // that never reaches a worker.
  Request expired;
  expired.key = key;
  expired.deadline_ms = 0;
  const Response t = engine.run(expired);
  EXPECT_FALSE(t.ok);
  EXPECT_TRUE(t.timeout);
  EXPECT_NE(t.error.find("deadline exceeded"), std::string::npos);
  EXPECT_EQ(t.result, nullptr);
  EXPECT_EQ(engine.stats().timeouts, 1);
  EXPECT_EQ(engine.stats().plans_computed, 0);
  EXPECT_EQ(engine.cache().size(), 0u);  // nothing partial cached

  // The same key still computes fine afterwards — the timeout left no
  // poisoned entry behind.
  const Response r = engine.run({key});
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(engine.stats().plans_computed, 1);
  EXPECT_EQ(r.result->measured_emax, 3.0);
}

TEST(Engine, InvalidRequestYieldsErrorResponseAndIsNotCached) {
  EngineConfig config;
  config.threads = 1;
  Engine engine(config);
  const QueryKey bad = key_dk(2, 4, 99);  // t > k
  const Response r = engine.run({bad});
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.timeout);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(engine.stats().errors, 1);
  EXPECT_EQ(engine.cache().size(), 0u);

  // Errors are not cached: a retry recomputes (and fails again).
  const Response again = engine.run({bad});
  EXPECT_FALSE(again.ok);
  EXPECT_EQ(engine.stats().plans_computed, 2);
}

TEST(Engine, CacheHitReturnsIdenticalResultObject) {
  EngineConfig config;
  config.threads = 1;
  Engine engine(config);
  const QueryKey key = key_dk(2, 8, 1, RouterKind::Odr, QueryOp::Analyze);
  const Response miss = engine.run({key});
  const Response hit = engine.run({key});
  ASSERT_TRUE(miss.ok);
  ASSERT_TRUE(hit.ok);
  EXPECT_EQ(miss.result.get(), hit.result.get());
  EXPECT_EQ(engine.stats().cache_hits, 1);
  EXPECT_EQ(engine.stats().plans_computed, 1);
}

TEST(Engine, DrainWaitsForAllSubmitted) {
  EngineConfig config;
  config.threads = 2;
  Engine engine(config);
  std::vector<Engine::Ticket> tickets;
  for (i32 k : {4, 5, 6, 7, 8})
    tickets.push_back(engine.submit({key_dk(2, k, 1, RouterKind::Odr,
                                            QueryOp::Load)}));
  engine.drain();
  // After drain every ticket is already fulfilled; wait() returns
  // immediately with the result.
  for (auto& t : tickets) EXPECT_TRUE(t.wait().ok);
  EXPECT_EQ(engine.stats().plans_computed, 5);
  EXPECT_EQ(engine.stats().queue_depth, 0);
}

TEST(Engine, LruEvictionAppliesUnderTheEngine) {
  EngineConfig config;
  config.threads = 1;
  config.cache_capacity = 2;
  config.cache_shards = 1;
  Engine engine(config);
  ASSERT_TRUE(engine.run({key_dk(2, 4)}).ok);
  ASSERT_TRUE(engine.run({key_dk(2, 6)}).ok);
  ASSERT_TRUE(engine.run({key_dk(2, 8)}).ok);  // evicts k=4
  EXPECT_EQ(engine.stats().cache_evictions, 1);
  ASSERT_TRUE(engine.run({key_dk(2, 4)}).ok);  // recomputes
  EXPECT_EQ(engine.stats().plans_computed, 4);
}

TEST(Engine, PublishStatsIsDeltaBased) {
  obs::MetricsRegistry& reg = obs::registry();
  reg.reset();
  reg.set_enabled(true);

  {
    EngineConfig config;
    config.threads = 1;
    Engine engine(config);
    ASSERT_TRUE(engine.run({key_dk(2, 4)}).ok);
    engine.publish_stats();
    engine.publish_stats();  // no new work: must not double-count
    ASSERT_TRUE(engine.run({key_dk(2, 4)}).ok);  // cache hit
    engine.publish_stats();

    const obs::MetricsSnapshot snap = reg.snapshot();
    const i64* requests = snap.counter("service.requests");
    const i64* plans = snap.counter("service.plans_computed");
    const i64* hits = snap.counter("service.cache_hits");
    ASSERT_NE(requests, nullptr);
    ASSERT_NE(plans, nullptr);
    ASSERT_NE(hits, nullptr);
    EXPECT_EQ(*requests, 2);
    EXPECT_EQ(*plans, 1);
    EXPECT_EQ(*hits, 1);
    const obs::HistogramData* lat = snap.histogram("service.request_us");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count, 2);
  }

  reg.set_enabled(false);
  reg.reset();
}

TEST(Engine, WorkersDropNestedInstrumentationUnderAnEnabledRegistry) {
  // TSan regression for the second race family this PR fixed: engine
  // workers run compute_query -> plan_placement, whose TP_OBS_SCOPE
  // spans (plan.plan / plan.place / plan.route) used to record straight
  // into the single-writer registry from several workers at once when a
  // caller had the registry enabled.  Workers now carry the pool-worker
  // mark, so the nested spans drop out; the engine's own exact counters
  // still arrive via the publish_stats() delta path.  (Under the tsan
  // preset this hammer raced before the fix and is silent after.)
  obs::MetricsRegistry& reg = obs::registry();
  reg.reset();
  reg.set_enabled(true);

  {
    EngineConfig config;
    config.threads = 4;
    Engine engine(config);
    constexpr int kClients = 8;
    std::atomic<int> failures{0};
    {
      std::vector<std::thread> clients;
      clients.reserve(kClients);
      for (int i = 0; i < kClients; ++i)
        clients.emplace_back([&engine, &failures, i] {
          // Distinct keys: every request really computes a plan.
          const Response r = engine.run({key_dk(2, 4 + 2 * i)});
          if (!r.ok) ++failures;
        });
      for (auto& c : clients) c.join();
    }
    EXPECT_EQ(failures.load(), 0);
    engine.publish_stats();

    const obs::MetricsSnapshot snap = reg.snapshot();
    // No worker-side planner span leaked into the registry (the name may
    // exist from an earlier call-site resolution; the count must be 0).
    for (const char* name : {"plan.plan_us", "plan.place_us",
                             "plan.route_us"}) {
      const obs::HistogramData* h = snap.histogram(name);
      if (h != nullptr) {
        EXPECT_EQ(h->count, 0) << name;
      }
    }
    // The engine's published exact counters did arrive.
    const i64* requests = snap.counter("service.requests");
    const i64* plans = snap.counter("service.plans_computed");
    ASSERT_NE(requests, nullptr);
    ASSERT_NE(plans, nullptr);
    EXPECT_EQ(*requests, kClients);
    EXPECT_EQ(*plans, kClients);
  }

  reg.set_enabled(false);
  reg.reset();
}

// ------------------------------------------------------------------- JSONL

TEST(Jsonl, ParsesUniformAndExplicitRadices) {
  const BatchRequest a =
      parse_request_line(R"({"op":"load","d":3,"k":8,"t":2,"router":"udr"})",
                         1);
  EXPECT_EQ(a.request.key, key_dk(3, 8, 2, RouterKind::Udr, QueryOp::Load));
  EXPECT_EQ(a.id.as_int(), 1);  // defaulted to the line number

  const BatchRequest b = parse_request_line(
      R"({"id":"x","radices":[8,4,6],"t":1})", 7);
  Radices expect{4, 6, 8};
  EXPECT_EQ(b.request.key,
            make_query_key(expect, 1, RouterKind::Odr, QueryOp::Plan));
  EXPECT_EQ(b.id.as_string(), "x");
}

TEST(Jsonl, RejectsMalformedRequests) {
  EXPECT_THROW(parse_request_line("nope", 1), Error);
  EXPECT_THROW(parse_request_line(R"({"d":3})", 1), Error);  // missing k
  EXPECT_THROW(parse_request_line(R"({"d":3,"k":8,"typo":1})", 1), Error);
  EXPECT_THROW(parse_request_line(R"({"k":4,"radices":[4,4]})", 1), Error);
  EXPECT_THROW(parse_request_line(R"({"d":3,"k":8,"deadline_ms":-5})", 1),
               Error);
  EXPECT_THROW(parse_request_line(R"({"d":99,"k":2})", 1), Error);
}

TEST(Jsonl, ResponseEchoesArbitraryIdValues) {
  Response resp;
  resp.ok = false;
  resp.error = "boom";
  const obs::JsonValue id = obs::parse_json(R"({"trace":"abc","n":3})");
  const obs::JsonValue out = response_to_json(id, resp);
  EXPECT_EQ(out.dump(),
            R"({"id":{"trace":"abc","n":3},"ok":false,"error":"boom"})");
}

std::string batch_output(const std::string& input, i32 threads) {
  EngineConfig config;
  config.threads = threads;
  Engine engine(config);
  std::istringstream in(input);
  std::ostringstream out;
  run_batch(engine, in, out);
  return out.str();
}

TEST(Jsonl, BatchOutputIsByteIdenticalAcrossPoolWidths) {
  // Responses are a pure function of the request — no timing or cache
  // fields — so the full batch output must match byte-for-byte between a
  // single worker and a wide pool (including error lines).
  std::string input;
  for (i32 k : {4, 6, 8, 4, 6, 8, 5, 7})
    input += R"({"op":"load","d":2,"k":)" + std::to_string(k) + "}\n";
  input += R"({"op":"analyze","d":2,"k":6})" "\n";
  input += R"({"op":"bounds","d":3,"k":4,"router":"udr"})" "\n";
  input += R"({"id":"bad","d":2})" "\n";  // validation error line
  const std::string serial = batch_output(input, 1);
  const std::string parallel = batch_output(input, 8);
  EXPECT_EQ(serial, parallel);
  // Repeat run: output is also stable across cold/warm engines.
  EXPECT_EQ(serial, batch_output(input, 8));
}

TEST(Jsonl, ServeAnswersLineByLine) {
  EngineConfig config;
  config.threads = 1;
  Engine engine(config);
  std::istringstream in(
      "{\"id\":1,\"op\":\"plan\",\"d\":2,\"k\":4}\n"
      "garbage\n"
      "{\"id\":1,\"op\":\"plan\",\"d\":2,\"k\":4}\n");
  std::ostringstream out;
  EXPECT_EQ(run_serve(engine, in, out), 3);
  std::istringstream lines(out.str());
  std::string l1, l2, l3;
  std::getline(lines, l1);
  std::getline(lines, l2);
  std::getline(lines, l3);
  EXPECT_EQ(l1, l3);  // second answer came from the cache, same bytes
  EXPECT_NE(l2.find("\"ok\":false"), std::string::npos);
  EXPECT_EQ(engine.stats().cache_hits, 1);
}

// -------------------------------------------------------------- Telemetry

TEST(SlowQueryLog, KeepsTheNSlowestSorted) {
  SlowQueryLog log(3);
  for (i64 us : {50, 10, 90, 30, 70}) {
    RequestSpan span;
    span.total_us = us;
    span.outcome = SpanOutcome::Computed;
    log.record(span);
  }
  const auto slowest = log.slowest();
  ASSERT_EQ(slowest.size(), 3u);  // bounded at capacity
  EXPECT_EQ(slowest[0].total_us, 90);
  EXPECT_EQ(slowest[1].total_us, 70);
  EXPECT_EQ(slowest[2].total_us, 50);
  EXPECT_TRUE(log.recent_failures().empty());  // no timeout/error recorded
}

TEST(SlowQueryLog, FailureRingIsNewestFirstAndBounded) {
  SlowQueryLog log(2);
  for (int i = 0; i < 4; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof buf, "f%d", i);  // GCC 12 restrict workaround
    RequestSpan span;
    span.request_id = buf;
    span.total_us = i;
    span.outcome = i % 2 == 0 ? SpanOutcome::Timeout : SpanOutcome::Error;
    log.record(span);
  }
  const auto failures = log.recent_failures();
  ASSERT_EQ(failures.size(), 2u);
  EXPECT_EQ(failures[0].request_id, "f3");  // newest first
  EXPECT_EQ(failures[1].request_id, "f2");
}

TEST(Engine, EchoesClientRequestIdThroughEveryOutcome) {
  EngineConfig config;
  config.threads = 1;
  Engine engine(config);

  Request computed;
  computed.key = key_dk(2, 4, 1, RouterKind::Odr, QueryOp::Load);
  computed.id = "first";
  EXPECT_EQ(engine.run(computed).request_id, "first");

  Request hit = computed;
  hit.id = "again";
  const Response r = engine.run(hit);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.request_id, "again");

  Request expired;
  expired.key = computed.key;
  expired.id = "late";
  expired.deadline_ms = 0;
  const Response t = engine.run(expired);
  EXPECT_TRUE(t.timeout);
  EXPECT_EQ(t.request_id, "late");

  Request bad;
  bad.key = key_dk(2, 4, 99);  // t > k: computation error
  bad.id = "broken";
  EXPECT_EQ(engine.run(bad).request_id, "broken");
}

TEST(Engine, GeneratesStableIdsWhenTheClientSendsNone) {
  EngineConfig config;
  config.threads = 1;
  Engine engine(config);
  EXPECT_EQ(engine.run({key_dk(2, 4)}).request_id, "r1");
  EXPECT_EQ(engine.run({key_dk(2, 4)}).request_id, "r2");
}

TEST(Engine, SlowQueryLogRecordsOutcomesAndFailures) {
  EngineConfig config;
  config.threads = 1;
  config.slow_log_capacity = 4;
  Engine engine(config);

  Request ok;
  ok.key = key_dk(2, 6, 1, RouterKind::Odr, QueryOp::Load);
  ok.id = "good";
  ASSERT_TRUE(engine.run(ok).ok);

  Request bad;
  bad.key = key_dk(2, 4, 99);
  bad.id = "bad";
  ASSERT_FALSE(engine.run(bad).ok);

  const auto slowest = engine.slowest_requests();
  ASSERT_EQ(slowest.size(), 2u);
  for (const RequestSpan& span : slowest)
    EXPECT_GE(span.total_us, 0);

  const auto failures = engine.recent_failures();
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].request_id, "bad");
  EXPECT_EQ(failures[0].outcome, SpanOutcome::Error);
  EXPECT_EQ(std::string(span_outcome_name(failures[0].outcome)), "error");
}

TEST(Engine, ReportsWorkerStatesUptimeAndRates) {
  EngineConfig config;
  config.threads = 3;
  Engine engine(config);
  ASSERT_TRUE(engine.run({key_dk(2, 4)}).ok);
  ASSERT_TRUE(engine.run({key_dk(2, 4)}).ok);  // hit

  EXPECT_GE(engine.uptime_ms(), 0);
  const auto states = engine.worker_states();
  ASSERT_EQ(states.size(), 3u);
  engine.drain();
  for (const std::string& s : engine.worker_states()) EXPECT_EQ(s, "idle");

  // Both requests landed within the last 60s; one was a cache hit.
  const ServiceRates rates = engine.rates();
  EXPECT_GE(rates.qps_1s, 0.0);
  EXPECT_GT(rates.qps_60s, 0.0);
  EXPECT_GT(rates.hit_ratio_60s, 0.0);
  EXPECT_LE(rates.hit_ratio_60s, 1.0);
}

TEST(Engine, PublishesRequestScopedHistograms) {
  obs::MetricsRegistry& reg = obs::registry();
  reg.reset();
  reg.set_enabled(true);
  {
    EngineConfig config;
    config.threads = 1;
    Engine engine(config);
    Request req;
    req.key = key_dk(2, 4);
    req.deadline_ms = 60000;  // far future: margin recorded, not missed
    ASSERT_TRUE(engine.run(req).ok);
    engine.publish_stats();

    const obs::MetricsSnapshot snap = reg.snapshot();
    for (const char* name :
         {"service.queue_wait_us", "service.fanin",
          "service.deadline_margin_us"}) {
      const obs::HistogramData* h = snap.histogram(name);
      ASSERT_NE(h, nullptr) << name;
      EXPECT_EQ(h->count, 1) << name;
    }
    const i64* inflight = snap.gauge("service.inflight");
    ASSERT_NE(inflight, nullptr);
    EXPECT_EQ(*inflight, 0);
  }
  reg.set_enabled(false);
  reg.reset();
}

// ------------------------------------------------------------------- Admin

std::string serve_one(Engine& engine, const std::string& line) {
  std::istringstream in(line + "\n");
  std::ostringstream out;
  run_serve(engine, in, out);
  std::string first = out.str();
  const std::size_t nl = first.find('\n');
  if (nl != std::string::npos) first.resize(nl);
  return first;
}

/// Top-level member names in document order — the schema fingerprint the
/// golden tests pin (admin responses carry live values, so the *names*
/// are the stable part).
std::string member_keys(const obs::JsonValue& doc) {
  std::string keys;
  for (const auto& [key, value] : doc.members()) {
    if (!keys.empty()) keys += ",";
    keys += key;
  }
  return keys;
}

TEST(Admin, StatuszGoldenSchema) {
  EngineConfig config;
  config.threads = 2;
  Engine engine(config);
  ASSERT_TRUE(engine.run({key_dk(2, 4)}).ok);

  const obs::JsonValue doc =
      obs::parse_json(serve_one(engine, R"({"id":"s1","op":"statusz"})"));
  EXPECT_EQ(member_keys(doc),
            "id,ok,op,uptime_ms,version,git,compiler,build_type,engine,"
            "rates,totals,snapshot,listener");
  EXPECT_EQ(doc.find("id")->as_string(), "s1");
  EXPECT_TRUE(doc.find("ok")->as_bool());
  EXPECT_EQ(doc.find("op")->as_string(), "statusz");
  EXPECT_FALSE(doc.find("version")->as_string().empty());

  EXPECT_EQ(member_keys(*doc.find("engine")),
            "pool_threads,queue_depth,queue_capacity,inflight,workers");
  EXPECT_EQ(doc.find("engine")->find("pool_threads")->as_int(), 2);
  EXPECT_EQ(doc.find("engine")->find("workers")->items().size(), 2u);

  EXPECT_EQ(member_keys(*doc.find("rates")),
            "qps_1s,qps_10s,qps_60s,hit_ratio_60s,p50_us_10s,p99_us_10s");
  EXPECT_EQ(member_keys(*doc.find("totals")),
            "requests,completed,cache_hits,coalesced,plans_computed,"
            "timeouts,errors");
  EXPECT_EQ(doc.find("totals")->find("requests")->as_int(), 1);

  // Durability block: no snapshot path configured here, so the status is
  // the all-disabled shape with stable member order.
  EXPECT_EQ(member_keys(*doc.find("snapshot")),
            "configured,load_outcome,warm_entries,saves,save_failures,"
            "last_save_outcome,last_save_entries,age_ms");
  EXPECT_FALSE(doc.find("snapshot")->find("configured")->as_bool());
  EXPECT_EQ(doc.find("snapshot")->find("load_outcome")->as_string(),
            "disabled");
  EXPECT_EQ(doc.find("snapshot")->find("last_save_outcome")->as_string(),
            "none");
  EXPECT_EQ(doc.find("snapshot")->find("age_ms")->as_int(), -1);

  // Listener block: no TCP front-end installed in this process, so the
  // all-none shape with the member order pinned (src/net/ fills it in).
  EXPECT_EQ(member_keys(*doc.find("listener")),
            "configured,address,state,open_connections,"
            "draining_connections,accepted,rejected");
  EXPECT_FALSE(doc.find("listener")->find("configured")->as_bool());
  EXPECT_EQ(doc.find("listener")->find("state")->as_string(), "none");
}

TEST(Admin, CachezGoldenSchema) {
  EngineConfig config;
  config.threads = 1;
  config.cache_shards = 2;
  config.cache_capacity = 8;
  Engine engine(config);
  ASSERT_TRUE(engine.run({key_dk(2, 4)}).ok);

  const obs::JsonValue doc =
      obs::parse_json(serve_one(engine, R"({"op":"cachez"})"));
  EXPECT_EQ(member_keys(doc),
            "id,ok,op,capacity,entries,shards,age_us,snapshot");
  EXPECT_EQ(doc.find("entries")->as_int(), 1);
  EXPECT_EQ(doc.find("capacity")->as_int(), 8);
  const auto& shards = doc.find("shards")->items();
  ASSERT_EQ(shards.size(), 2u);
  EXPECT_EQ(member_keys(shards[0]), "shard,entries,hits,misses,evictions");
  // One real miss happened; it landed in exactly one shard.
  EXPECT_EQ(shards[0].find("misses")->as_int() +
                shards[1].find("misses")->as_int(),
            1);
  EXPECT_EQ(doc.find("age_us")->find("count")->as_int(), 1);
}

TEST(Admin, SlowzGoldenSchema) {
  EngineConfig config;
  config.threads = 1;
  Engine engine(config);
  Request req;
  req.key = key_dk(2, 4, 1, RouterKind::Odr, QueryOp::Load);
  req.id = "probe";
  req.deadline_ms = 60000;
  ASSERT_TRUE(engine.run(req).ok);

  const obs::JsonValue doc =
      obs::parse_json(serve_one(engine, R"({"op":"slowz"})"));
  EXPECT_EQ(member_keys(doc), "id,ok,op,slowest,failed");
  const auto& slowest = doc.find("slowest")->items();
  ASSERT_EQ(slowest.size(), 1u);
  EXPECT_EQ(member_keys(slowest[0]),
            "request_id,key,outcome,total_us,queue_us,compute_us,fanin,"
            "shard,deadline_margin_us");
  EXPECT_EQ(slowest[0].find("request_id")->as_string(), "probe");
  EXPECT_EQ(slowest[0].find("outcome")->as_string(), "computed");
  EXPECT_EQ(doc.find("failed")->items().size(), 0u);
}

TEST(Admin, MetricszReportsRegistryAndPrometheus) {
  obs::MetricsRegistry& reg = obs::registry();
  reg.reset();
  reg.set_enabled(true);
  {
    EngineConfig config;
    config.threads = 1;
    Engine engine(config);
    ASSERT_TRUE(engine.run({key_dk(2, 4)}).ok);

    const obs::JsonValue json =
        obs::parse_json(serve_one(engine, R"({"op":"metricsz"})"));
    EXPECT_EQ(member_keys(json), "id,ok,op,format,metrics");
    EXPECT_EQ(json.find("format")->as_string(), "json");
    const obs::JsonValue* counters = json.find("metrics")->find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_NE(counters->find("service.requests"), nullptr);
    EXPECT_EQ(counters->find("service.requests")->as_int(), 1);

    const obs::JsonValue prom = obs::parse_json(serve_one(
        engine, R"({"op":"metricsz","format":"prometheus"})"));
    EXPECT_EQ(member_keys(prom), "id,ok,op,format,text");
    const std::string& text = prom.find("text")->as_string();
    EXPECT_NE(text.find("# TYPE tp_service_requests counter"),
              std::string::npos);
    EXPECT_NE(text.find("tp_service_request_us_bucket{le="),
              std::string::npos);

    EXPECT_NE(serve_one(engine, R"({"op":"metricsz","format":"xml"})")
                  .find("\"ok\":false"),
              std::string::npos);
  }
  reg.set_enabled(false);
  reg.reset();
}

TEST(Admin, UnknownAdminFieldFailsLoudly) {
  EngineConfig config;
  config.threads = 1;
  Engine engine(config);
  const std::string reply =
      serve_one(engine, R"({"op":"statusz","verbose":true})");
  EXPECT_NE(reply.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(reply.find("unknown admin request field"), std::string::npos);
}

TEST(Admin, QuitzStopsServeReadingFurtherLines) {
  EngineConfig config;
  config.threads = 1;
  Engine engine(config);
  std::istringstream in(
      "{\"id\":1,\"op\":\"plan\",\"d\":2,\"k\":4}\n"
      "{\"id\":\"bye\",\"op\":\"quitz\"}\n"
      "{\"id\":2,\"op\":\"plan\",\"d\":2,\"k\":6}\n");
  std::ostringstream out;
  EXPECT_EQ(run_serve(engine, in, out), 2);  // third line never read
  EXPECT_NE(out.str().find("\"draining\":true"), std::string::npos);
  EXPECT_EQ(out.str().find("\"id\":2"), std::string::npos);
}

TEST(Admin, BatchAnswersAdminMidStreamAndQuitzStopsIntake) {
  EngineConfig config;
  config.threads = 2;
  Engine engine(config);
  std::istringstream in(
      "{\"id\":\"q1\",\"op\":\"load\",\"d\":2,\"k\":4}\n"
      "{\"id\":\"probe\",\"op\":\"statusz\"}\n"
      "{\"id\":\"q2\",\"op\":\"load\",\"d\":2,\"k\":6}\n"
      "{\"op\":\"quitz\"}\n"
      "{\"id\":\"q3\",\"op\":\"load\",\"d\":2,\"k\":8}\n");
  std::ostringstream out;
  EXPECT_EQ(run_batch(engine, in, out), 4);  // q3 never submitted
  std::istringstream lines(out.str());
  std::string l1, l2, l3, l4;
  std::getline(lines, l1);
  std::getline(lines, l2);
  std::getline(lines, l3);
  std::getline(lines, l4);
  EXPECT_NE(l1.find("\"id\":\"q1\""), std::string::npos);
  EXPECT_NE(l2.find("\"op\":\"statusz\""), std::string::npos);
  EXPECT_NE(l3.find("\"id\":\"q2\""), std::string::npos);
  EXPECT_NE(l4.find("\"draining\":true"), std::string::npos);
  EXPECT_EQ(out.str().find("\"id\":\"q3\""), std::string::npos);
}

TEST(Jsonl, BatchOutputIsByteIdenticalWithInstrumentationOn) {
  // The per-request telemetry (ids, spans, slow-query log, rolling
  // windows, tracer events) must never leak timing into query responses:
  // with the registry AND tracer live, batch output still matches
  // byte-for-byte across pool widths.
  obs::MetricsRegistry& reg = obs::registry();
  reg.reset();
  reg.set_enabled(true);
  obs::tracer().set_enabled(true);

  std::string input;
  for (i32 k : {4, 6, 8, 4, 6})
    input += R"({"id":"k)" + std::to_string(k) +
             R"(","op":"load","d":2,"k":)" + std::to_string(k) + "}\n";
  input += R"({"id":"bad","d":2})" "\n";
  const std::string serial = batch_output(input, 1);
  const std::string parallel = batch_output(input, 8);
  EXPECT_EQ(serial, parallel);

  obs::tracer().set_enabled(false);
  obs::tracer().clear();
  reg.set_enabled(false);
  reg.reset();
}

// The ISSUE acceptance scenario: a 100-request batch with duplicate keys
// computes each unique plan exactly once (verified through the obs
// counters) and every response matches the single-threaded direct
// computation byte-for-byte.
TEST(Acceptance, HundredRequestBatchComputesUniquePlansOnce) {
  obs::MetricsRegistry& reg = obs::registry();
  reg.reset();
  reg.set_enabled(true);

  // 100 requests over 10 unique keys (k in 4..8 x {odr, udr}, op load).
  std::string input;
  std::vector<std::string> lines;
  for (int i = 0; i < 100; ++i) {
    const i32 k = 4 + (i % 5);
    const char* router = (i / 5) % 2 == 0 ? "odr" : "udr";
    lines.push_back(R"({"id":)" + std::to_string(i) +
                    R"(,"op":"load","d":2,"k":)" + std::to_string(k) +
                    R"(,"router":")" + router + "\"}");
    input += lines.back() + "\n";
  }

  EngineConfig config;
  config.threads = 8;
  Engine engine(config);
  std::istringstream in(input);
  std::ostringstream out;
  EXPECT_EQ(run_batch(engine, in, out), 100);
  engine.publish_stats();

  const obs::MetricsSnapshot snap = reg.snapshot();
  const i64* plans = snap.counter("service.plans_computed");
  const i64* requests = snap.counter("service.requests");
  ASSERT_NE(plans, nullptr);
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(*requests, 100);
  EXPECT_EQ(*plans, 10);  // exactly once per unique key
  EXPECT_EQ(engine.stats().cache_hits + engine.stats().coalesced, 90);

  // Cross-check every response against a poolless single-threaded
  // serve over the same requests (engine with one worker, fresh cache).
  EngineConfig serial_config;
  serial_config.threads = 1;
  Engine serial(serial_config);
  std::istringstream in2(input);
  std::ostringstream out2;
  run_serve(serial, in2, out2);
  EXPECT_EQ(out.str(), out2.str());

  // And spot-check values against the planner called directly.
  const Torus torus(2, 6);
  const PlacementPlan plan = plan_placement(torus, 1, RouterKind::Odr);
  const double emax = measure_emax(torus, plan);
  std::istringstream result_lines(out.str());
  std::string line;
  int checked = 0;
  while (std::getline(result_lines, line)) {
    if (line.find("\"k\":6") == std::string::npos ||
        line.find("\"router\":\"odr\"") == std::string::npos)
      continue;
    const obs::JsonValue doc = obs::parse_json(line);
    EXPECT_TRUE(doc.find("ok")->as_bool());
    EXPECT_EQ(doc.find("measured_emax")->as_number(), emax);
    EXPECT_EQ(doc.find("processors")->as_int(), plan.placement.size());
    ++checked;
  }
  EXPECT_EQ(checked, 10);  // 100 requests / 10 unique, k=6+odr appears 10x

  reg.set_enabled(false);
  reg.reset();
}

}  // namespace
}  // namespace tp::service
