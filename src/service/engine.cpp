#include "src/service/engine.h"

#include <chrono>
#include <cstdio>
#include <optional>

#include "src/obs/obs.h"
#include "src/service/jsonl.h"
#include "src/service/snapshot.h"
#include "src/util/error.h"
#include "src/util/parallel.h"
#include "src/util/worker_context.h"

namespace tp::service {

using Clock = std::chrono::steady_clock;

namespace {

i64 us_between(Clock::time_point from, Clock::time_point to) {
  const i64 us =
      std::chrono::duration_cast<std::chrono::microseconds>(to - from).count();
  return us < 0 ? 0 : us;
}

/// Shards of the engine's table: enough that requests for different keys
/// rarely share a lock.
constexpr std::size_t kCacheShards = 8;

/// Coalesce fan-in buckets: small exact powers of two — fan-in is a count
/// of waiters, not a duration.
std::vector<i64> fanin_bucket_bounds() {
  return {1, 2, 4, 8, 16, 32, 64, 128};
}

constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

/// Fills in the span fields every outcome shares.
void stamp(RequestSpan& span, const QueryKey& key, std::size_t shard,
           Clock::time_point submitted, Clock::time_point deadline,
           Clock::time_point now) {
  span.key = key;
  span.total_us = us_between(submitted, now);
  span.shard = static_cast<i64>(shard);
  span.has_deadline = deadline != kNoDeadline;
  if (span.has_deadline)
    span.deadline_margin_us =
        std::chrono::duration_cast<std::chrono::microseconds>(deadline - now)
            .count();
}

/// One Chrome complete event per answered request, when the tracer is on.
void trace(const RequestSpan& span) {
  obs::Tracer& tracer = obs::tracer();
  if (tracer.enabled())
    tracer.complete(span.request_id + " " + span.key.str(),
                    span.total_us * 1000, "service");
}

}  // namespace

/// A request that must wait for its key's computation.  Only its answer
/// changes once the cache holds it, under its own lock.
struct Pending {
  explicit Pending(HashedKey k) : key(std::move(k)) {}

  Mutex mu;
  CondVar cv;
  bool done TP_GUARDED_BY(mu) = false;
  Response response TP_GUARDED_BY(mu);

  HashedKey key;
  std::string id;
  Clock::time_point submitted;
  Clock::time_point deadline = kNoDeadline;
};

Engine::Engine(EngineConfig config)
    : config_(config),
      pool_threads_(config.threads > 0 ? config.threads : default_threads()),
      cache_(config.cache_capacity, kCacheShards),
      start_(Clock::now()),
      request_us_(obs::duration_bucket_bounds()),
      compute_us_(obs::duration_bucket_bounds()),
      queue_wait_us_(obs::duration_bucket_bounds()),
      fanin_(fanin_bucket_bounds()),
      deadline_margin_us_(obs::duration_bucket_bounds()),
      slow_log_(config.slow_log_capacity < 1 ? 1 : config.slow_log_capacity),
      requests_ring_({1}, 64),
      latency_ring_(obs::duration_bucket_bounds(), 64) {
  TP_REQUIRE(config_.queue_capacity >= 1, "queue capacity must be >= 1");
  worker_state_.assign(static_cast<std::size_t>(pool_threads_), "idle");

  // Warm boot before the pool exists: the load touches the cache with no
  // concurrent readers, and a corrupt/mismatched snapshot degrades to a
  // cold cache (the outcome is kept for statusz, never thrown).
  if (!config_.snapshot_path.empty()) {
    const MutexLock lock(snapshot_mu_);
    snapshot_.configured = true;
    snapshot_.load_outcome = "cold";
  }
  if (config_.snapshot_load && !config_.snapshot_path.empty()) {
    const SnapshotLoadInfo info =
        load_cache_snapshot(cache_, config_.snapshot_path);
    const MutexLock lock(snapshot_mu_);
    snapshot_.load_attempted = true;
    if (info.ok) {
      snapshot_.warm_entries = info.entries;
      snapshot_.load_outcome = "warm";
    } else {
      snapshot_.load_outcome = "error: " + info.error;
    }
  }

  pool_.reserve(static_cast<std::size_t>(pool_threads_));
  for (i32 i = 0; i < pool_threads_; ++i)
    pool_.emplace_back([this, i] { worker_loop(i); });
  if (config_.snapshot_save && !config_.snapshot_path.empty() &&
      config_.snapshot_interval_ms > 0) {
    has_saver_ = true;
    saver_ = Thread([this] { saver_loop(); });
  }
}

Engine::~Engine() {
  if (has_saver_) {
    {
      const MutexLock lock(saver_mu_);
      saver_stop_ = true;
    }
    saver_cv_.notify_all();
    saver_.join();
  }
  drain();
  // Shutdown snapshot: after the drain every computed plan is in the
  // cache, and only_if_dirty makes this a no-op when an explicit final
  // save (CLI graceful-shutdown path) already captured it.
  if (config_.snapshot_save && !config_.snapshot_path.empty())
    save_snapshot(/*only_if_dirty=*/true);
  {
    const MutexLock lock(queue_mu_);
    stopping_ = true;
  }
  queue_not_empty_.notify_all();
  queue_not_full_.notify_all();
  for (auto& t : pool_) t.join();
}

void Engine::saver_loop() {
  const auto interval =
      std::chrono::milliseconds(config_.snapshot_interval_ms);
  MutexLock lock(saver_mu_);
  for (;;) {
    const auto deadline = Clock::now() + interval;
    while (!saver_stop_ && Clock::now() < deadline)
      saver_cv_.wait_until(lock, deadline);
    if (saver_stop_) return;
    lock.unlock();
    save_snapshot(/*only_if_dirty=*/true);
    lock.lock();
  }
}

bool Engine::save_snapshot(bool only_if_dirty) {
  if (config_.snapshot_path.empty()) return false;
  const MutexLock io(save_io_mu_);
  i64 plans_now = 0;
  {
    const MutexLock lock(stats_mu_);
    plans_now = counters_.plans_computed;
  }
  if (only_if_dirty) {
    const MutexLock lock(snapshot_mu_);
    if (snapshot_.saves > 0 && plans_now == saved_plans_) return true;
  }

  bool ok = true;
  std::string error;
  SnapshotWriteInfo info;
  try {
    info = save_cache_snapshot(cache_, config_.snapshot_path);
  } catch (const std::exception& e) {
    ok = false;
    error = e.what();
  }

  const MutexLock lock(snapshot_mu_);
  if (ok) {
    ++snapshot_.saves;
    snapshot_.last_save_outcome = "ok";
    snapshot_.last_save_entries = info.entries;
    snapshot_.last_save_ms = uptime_ms();
    saved_plans_ = plans_now;
  } else {
    ++snapshot_.save_failures;
    snapshot_.last_save_outcome = "error: " + error;
  }
  return ok;
}

SnapshotStatus Engine::snapshot_status() const {
  const MutexLock lock(snapshot_mu_);
  return snapshot_;
}

Response Engine::timeout_response(const QueryKey& key) {
  Response r;
  r.timeout = true;
  r.error = "deadline exceeded: " + key.str();
  return r;
}

std::string Engine::count_request(const Request& req) {
  ++counters_.requests;
  // Stable request id: client-supplied wins; otherwise derive one from
  // the submit sequence number (unique for the engine's lifetime).
  if (!req.id.empty()) return req.id;
  char buf[24];
  std::snprintf(buf, sizeof buf, "r%lld",
                static_cast<long long>(counters_.requests));
  return buf;
}

void Engine::account(const RequestSpan& span, Clock::time_point now) {
  request_us_.record(span.total_us);
  queue_wait_us_.record(span.queue_us);
  fanin_.record(span.fanin);
  if (span.has_deadline)
    deadline_margin_us_.record(
        span.deadline_margin_us < 0 ? 0 : span.deadline_margin_us);
  slow_log_.record(span);
  const i64 tick =
      std::chrono::duration_cast<std::chrono::seconds>(now - start_).count();
  requests_ring_.record(tick, span.outcome == SpanOutcome::Hit ? 1 : 0);
  latency_ring_.record(tick, span.total_us);
  // The only place outcomes are counted: each request once, as what it
  // receives.
  if (span.outcome == SpanOutcome::Timeout)
    ++counters_.timeouts;
  else if (span.outcome == SpanOutcome::Error)
    ++counters_.errors;
  else
    ++counters_.completed;
}

void Engine::fulfill(Pending& pending, Response response, RequestSpan span) {
  // Everything up to `done` happens under the waiter's lock, so the
  // outcome cannot change between the decision and the wake-up: a
  // Ticket::wait that timed out first held this lock past the deadline,
  // so `now` here is past it too.  The counts are taken before `done`
  // flips, so a submitter returning from wait() (or drain()) sees this
  // request accounted for.
  MutexLock lock(pending.mu);
  const Clock::time_point now = Clock::now();
  // A request times out iff its answer was not ready by its deadline: a
  // late result is still cached (by publish), but this waiter gets the
  // structured timeout, whichever of wait() and fulfill runs first.
  if (response.ok && now >= pending.deadline)
    response = timeout_response(pending.key.key);
  if (!response.ok)
    span.outcome = response.timeout ? SpanOutcome::Timeout : SpanOutcome::Error;
  span.request_id = pending.id;
  stamp(span, pending.key.key, cache_.shard_of(pending.key), pending.submitted,
        pending.deadline, now);
  {
    const MutexLock stats_lock(stats_mu_);
    account(span, now);
  }
  drain_cv_.notify_all();
  trace(span);

  response.request_id = pending.id;
  pending.response = std::move(response);
  pending.done = true;
  // Wake after unlocking, so the waiter does not wake into a held lock.
  lock.unlock();
  pending.cv.notify_all();
}

std::shared_ptr<Pending> Engine::new_waiter(const Request& req,
                                            const HashedKey& key,
                                            Clock::time_point submitted,
                                            Clock::time_point deadline) {
  auto waiter = std::make_shared<Pending>(key);
  waiter->submitted = submitted;
  waiter->deadline = deadline;
  const MutexLock lock(stats_mu_);
  waiter->id = count_request(req);
  return waiter;
}

Engine::Ticket Engine::answer_at_submit(const Request& req,
                                        const HashedKey& key,
                                        Response response, SpanOutcome outcome,
                                        Clock::time_point submitted,
                                        Clock::time_point deadline) {
  const Clock::time_point now = Clock::now();
  RequestSpan span;
  span.outcome = outcome;
  stamp(span, key.key, cache_.shard_of(key), submitted, deadline, now);
  {
    const MutexLock lock(stats_mu_);
    span.request_id = count_request(req);
    if (outcome == SpanOutcome::Hit) ++counters_.cache_hits;
    account(span, now);
  }
  trace(span);
  response.request_id = std::move(span.request_id);
  return Ticket(std::move(response));
}

Engine::Ticket Engine::submit(const Request& req) {
  return submit_impl(req, /*may_block=*/true);
}

Engine::Ticket Engine::try_submit(const Request& req) {
  return submit_impl(req, /*may_block=*/false);
}

Engine::Ticket Engine::submit_impl(const Request& req, bool may_block) {
  const Clock::time_point submitted = Clock::now();
  // The one hash of this submit: the shard, the table and the span read it.
  const HashedKey key(req.key);
  // Request-level 0 means "already expired"; a config default of 0 means
  // "no deadline" (the common case).
  const i64 deadline_ms = req.deadline_ms >= 0 ? req.deadline_ms
                                               : config_.default_deadline_ms;
  const Clock::time_point deadline =
      req.deadline_ms >= 0 || deadline_ms > 0
          ? submitted + std::chrono::milliseconds(deadline_ms)
          : kNoDeadline;
  if (submitted >= deadline)
    return answer_at_submit(req, key, timeout_response(req.key),
                            SpanOutcome::Timeout, submitted, deadline);

  std::shared_ptr<const QueryResult> hit;
  std::shared_ptr<Pending> waiter;
  const PlanCache::Probe probe = cache_.probe(key, deadline, &hit, [&] {
    return waiter = new_waiter(req, key, submitted, deadline);
  });
  if (probe == PlanCache::Probe::Hit) {
    Response r;
    r.ok = true;
    r.result = std::move(hit);
    return answer_at_submit(req, key, std::move(r), SpanOutcome::Hit,
                            submitted, deadline);
  }
  if (probe == PlanCache::Probe::Coalesced) {
    const MutexLock lock(stats_mu_);
    ++counters_.coalesced;
    return Ticket(std::move(waiter));
  }

  // A new computation.  Bounded submission queue: back-pressure blocks
  // the submitter, never a worker.
  i64 depth = 0;
  {
    MutexLock lock(queue_mu_);
    if (!may_block && queue_.size() >= config_.queue_capacity &&
        !stopping_) {
      lock.unlock();
      // The job never starts: it leaves the table, and every waiter (the
      // submitter, plus any request that coalesced onto it meanwhile;
      // overload errors are retryable) gets a structured overload error.
      Response r;
      r.overload = true;
      r.error = "overloaded: submission queue full (capacity " +
                std::to_string(config_.queue_capacity) + "), dropped " +
                req.key.str();
      answer_waiters(cache_.publish(key, nullptr), r, submitted, 0);
      return Ticket(std::move(waiter));
    }
    while (queue_.size() >= config_.queue_capacity && !stopping_)
      queue_not_full_.wait(lock);
    TP_REQUIRE(!stopping_, "submit on a stopped engine");
    queue_.push_back(key);
    depth = static_cast<i64>(queue_.size());
  }
  queue_not_empty_.notify_one();
  {
    const MutexLock lock(stats_mu_);
    ++counters_.cache_misses;
    if (depth > counters_.peak_queue_depth)
      counters_.peak_queue_depth = depth;
  }
  return Ticket(std::move(waiter));
}

Response Engine::run(const Request& req) { return submit(req).wait(); }

Response Engine::Ticket::wait() {
  if (pending_ == nullptr) return answer_;
  Pending& p = *pending_;
  MutexLock lock(p.mu);
  while (!p.done) {
    if (p.deadline == kNoDeadline) {
      p.cv.wait(lock);
    } else if (p.cv.wait_until(lock, p.deadline) == std::cv_status::timeout &&
               !p.done) {
      // Deadline passed first.  The computation (if any) continues and
      // will land in the cache; fulfill() stores and counts this same
      // timeout when the late answer arrives.
      Response r = timeout_response(p.key.key);
      r.request_id = p.id;
      return r;
    }
  }
  return p.response;
}

void Engine::worker_loop(i32 worker) {
  // Engine workers are pool workers: compute_query's nested
  // instrumentation (planner scopes, router counters) must not record
  // into the single-writer registry from here.  The engine's own exact
  // counters/histograms are published by the caller via publish_stats().
  const PoolWorkerScope worker_scope;
  const std::size_t slot = static_cast<std::size_t>(worker);
  for (;;) {
    std::optional<HashedKey> key;
    {
      MutexLock lock(queue_mu_);
      while (!stopping_ && queue_.empty()) queue_not_empty_.wait(lock);
      if (queue_.empty()) return;  // stopping and fully drained
      key.emplace(std::move(queue_.front()));
      queue_.pop_front();
    }
    queue_not_full_.notify_one();
    {
      const MutexLock lock(stats_mu_);
      worker_state_[slot] = "compute " + key->key.str();
    }
    execute(*key, slot);
  }
}

void Engine::execute(const HashedKey& key, std::size_t slot) {
  const Clock::time_point dequeued = Clock::now();

  // Dequeue-time deadline sweep: when every waiter has already expired
  // there is no one left to receive the result — skip the computation
  // entirely (and leave no entry behind).
  const PlanCache::Waiters expired = cache_.publish(key, nullptr, dequeued);
  if (!expired.empty()) {
    {
      const MutexLock lock(stats_mu_);
      worker_state_[slot] = "idle";
    }
    answer_waiters(expired, timeout_response(key.key), dequeued, 0);
    return;
  }

  Response response;
  const Clock::time_point start = Clock::now();
  try {
    TP_PROF_PHASE("service.compute");
    QueryResult result = compute_query(key.key);
    result.body = render_body(result);
    response.ok = true;
    response.result = std::make_shared<const QueryResult>(std::move(result));
  } catch (const Error& e) {
    response.ok = false;
    response.error = e.what();
  }
  const i64 compute_us = us_between(start, Clock::now());

  // Failed computations are dropped, never cached: an error must not
  // poison the cache for later, well-formed retries of the same key.  The
  // entry is published before plans_computed counts it, so a save that
  // reads the count finds the entry.
  const PlanCache::Waiters waiters =
      cache_.publish(key, response.ok ? response.result : nullptr);
  {
    const MutexLock lock(stats_mu_);
    worker_state_[slot] = "idle";
    ++counters_.plans_computed;
    compute_us_.record(compute_us);
  }
  answer_waiters(waiters, response, dequeued, compute_us);
}

void Engine::answer_waiters(const PlanCache::Waiters& waiters,
                            const Response& response,
                            Clock::time_point dequeued, i64 compute_us) {
  for (std::size_t i = 0; i < waiters.size(); ++i) {
    Pending& w = *waiters[i];
    RequestSpan span;
    span.outcome = i == 0 ? SpanOutcome::Computed : SpanOutcome::Coalesced;
    span.queue_us = us_between(w.submitted, dequeued);
    span.compute_us = compute_us;
    span.fanin = static_cast<i64>(waiters.size());
    fulfill(w, response, std::move(span));
  }
}

void Engine::drain() {
  MutexLock lock(stats_mu_);
  while (counters_.requests !=
         counters_.completed + counters_.timeouts + counters_.errors)
    drain_cv_.wait(lock);
}

EngineStats Engine::stats() const {
  EngineStats s;
  {
    const MutexLock lock(stats_mu_);
    s = counters_;
  }
  {
    const MutexLock lock(queue_mu_);
    s.queue_depth = static_cast<i64>(queue_.size());
  }
  const PlanCache::Stats cs = cache_.stats();
  s.inflight = cs.computing;
  s.cache_entries = cs.entries;
  s.cache_evictions = cs.evictions;
  return s;
}

i64 Engine::uptime_ms() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start_)
      .count();
}

std::vector<std::string> Engine::worker_states() const {
  const MutexLock lock(stats_mu_);
  return worker_state_;
}

ServiceRates Engine::rates() const {
  const i64 tick = std::chrono::duration_cast<std::chrono::seconds>(
                       Clock::now() - start_)
                       .count();
  const MutexLock lock(stats_mu_);
  ServiceRates r;
  // One sample per request, 1 for a cache hit: count is the request
  // count, sum the hits.
  const obs::HistogramData w1 = requests_ring_.merged(tick, 1);
  const obs::HistogramData w10 = requests_ring_.merged(tick, 10);
  const obs::HistogramData w60 = requests_ring_.merged(tick, 60);
  r.qps_1s = static_cast<double>(w1.count);
  r.qps_10s = static_cast<double>(w10.count) / 10.0;
  r.qps_60s = static_cast<double>(w60.count) / 60.0;
  r.hit_ratio_60s = w60.count > 0 ? static_cast<double>(w60.sum) /
                                        static_cast<double>(w60.count)
                                  : 0.0;
  const obs::HistogramData lat = latency_ring_.merged(tick, 10);
  if (lat.count > 0) {
    r.p50_us_10s = lat.percentile(0.50);
    r.p99_us_10s = lat.percentile(0.99);
  }
  return r;
}

std::vector<RequestSpan> Engine::slowest_requests() const {
  const MutexLock lock(stats_mu_);
  return slow_log_.slowest();
}

std::vector<RequestSpan> Engine::recent_failures() const {
  const MutexLock lock(stats_mu_);
  return slow_log_.recent_failures();
}

void Engine::publish_stats() {
  obs::MetricsRegistry& reg = obs::registry();
  if (!reg.enabled()) return;

  const EngineStats cur = stats();
  obs::HistogramData request_delta(obs::duration_bucket_bounds());
  obs::HistogramData compute_delta(obs::duration_bucket_bounds());
  obs::HistogramData queue_wait_delta(obs::duration_bucket_bounds());
  obs::HistogramData fanin_delta(fanin_bucket_bounds());
  obs::HistogramData margin_delta(obs::duration_bucket_bounds());
  {
    const MutexLock lock(stats_mu_);
    std::swap(request_delta, request_us_);
    std::swap(compute_delta, compute_us_);
    std::swap(queue_wait_delta, queue_wait_us_);
    std::swap(fanin_delta, fanin_);
    std::swap(margin_delta, deadline_margin_us_);
  }

  const auto publish = [&reg](const char* name, i64 now, i64& last) {
    if (now > last) reg.add(reg.counter(name), now - last);
    last = now;
  };
  publish("service.requests", cur.requests, published_.requests);
  publish("service.completed", cur.completed, published_.completed);
  publish("service.cache_hits", cur.cache_hits, published_.cache_hits);
  publish("service.cache_misses", cur.cache_misses, published_.cache_misses);
  publish("service.coalesced", cur.coalesced, published_.coalesced);
  publish("service.plans_computed", cur.plans_computed,
          published_.plans_computed);
  publish("service.timeouts", cur.timeouts, published_.timeouts);
  publish("service.errors", cur.errors, published_.errors);
  publish("service.cache_evictions", cur.cache_evictions,
          published_.cache_evictions);

  reg.set(reg.gauge("service.queue_depth"), cur.queue_depth);
  reg.set_max(reg.gauge("service.queue_depth_peak"), cur.peak_queue_depth);
  reg.set(reg.gauge("service.cache_entries"), cur.cache_entries);
  reg.set(reg.gauge("service.pool_threads"), pool_threads_);
  reg.set(reg.gauge("service.inflight"), cur.inflight);

  reg.merge_histogram("service.request_us", request_delta);
  reg.merge_histogram("service.compute_us", compute_delta);
  reg.merge_histogram("service.queue_wait_us", queue_wait_delta);
  reg.merge_histogram("service.fanin", fanin_delta);
  reg.merge_histogram("service.deadline_margin_us", margin_delta);
}

}  // namespace tp::service
