// Concurrent plan/load query engine.
//
// The Engine owns a persistent worker pool and answers QueryKey requests
// with memoization and request coalescing, through one table (PlanCache)
// whose entry per key is a ready answer or a computation with its waiters:
//
//   submit() ──> PlanCache::probe, one shard lock:
//                ├─ hit ──────> ticket holding its answer (no waiter)
//                ├─ coalesced > a waiter joins the computation
//                └─ new ──────> a waiter starts one ──> bounded queue
//   worker:      compute_query ──> render_body ──> PlanCache::publish
//                ──> fulfill every waiter
//
// So concurrent identical requests share ONE computation and the same
// immutable QueryResult: a key is planned exactly once no matter how many
// clients hammer it (EngineStats::plans_computed counts computations).
//
// Deadlines: a request may carry a relative deadline, and it times out
// iff its answer was not ready by then.  It is checked at submit (an
// already-expired deadline is answered with a structured timeout response
// without ever enqueueing), at dequeue (a job whose waiters have all
// expired is dropped without computing), while waiting (Ticket::wait
// returns the timeout response when the deadline passes first) and when
// the answer lands (a waiter whose deadline has passed is fulfilled with
// the timeout).  A late computation still completes and is cached —
// timeouts never poison the cache with partial results.  Each request's
// outcome is counted once, when it is answered, as exactly one of
// completed / timeouts / errors.
//
// Shutdown drains gracefully: the destructor waits for every queued and
// in-flight request to be answered before joining the pool, so tickets
// already fulfilled stay valid and nothing is dropped mid-compute.
//
// Request-scoped observability: every request carries a stable id
// (client-supplied via Request::id or generated "r<seq>").  Each answered
// request produces a RequestSpan (telemetry.h) — outcome, queue wait,
// compute time, coalesce fan-in, cache shard, deadline margin — that
// feeds the slow-query log, the rolling 1s/10s/60s rate windows behind
// rates(), and (when the tracer is on) a Chrome complete event, rendered
// live by the {"op":"statusz"} / {"op":"slowz"} admin responses (admin.h).
//
// Lock order: a PlanCache shard lock (a waiter takes its id inside its
// probe) or a waiter's lock, then stats_mu_; queue_mu_ is never held with
// another.  A hit takes one shard lock and stats_mu_ once.
//
// Registry publication: the engine keeps exact counters and per-request
// latency histograms internally (workers must not record into the global
// registry concurrently — see obs/registry.h) and publishes them from the
// calling thread via publish_stats():
//
//   counters   service.requests / completed / cache_hits / cache_misses /
//              coalesced / plans_computed / timeouts / errors /
//              cache_evictions
//   gauges     service.queue_depth (current), service.queue_depth_peak,
//              service.cache_entries, service.pool_threads,
//              service.inflight
//   histograms service.request_us (submit->answer), service.compute_us,
//              service.queue_wait_us, service.fanin,
//              service.deadline_margin_us

#pragma once

#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/registry.h"
#include "src/obs/timeseries.h"
#include "src/service/plan_cache.h"
#include "src/service/query.h"
#include "src/service/telemetry.h"
#include "src/util/thread_annotations.h"

namespace tp::service {

struct EngineConfig {
  i32 threads = 0;  ///< worker pool width; 0 = default_threads()
  std::size_t queue_capacity = 256;   ///< bounded submission queue
  std::size_t cache_capacity = 1024;  ///< PlanCache entries
  i64 default_deadline_ms = 0;  ///< 0 = no deadline unless the request
                                ///< carries one
  std::size_t slow_log_capacity = 16;  ///< spans per slow/failed ring

  // Durability (src/service/snapshot.h, docs/durability.md).  A non-empty
  // snapshot_path names the PlanCache snapshot file.  snapshot_load warms
  // the cache from it before the pool starts (corruption or a build-key
  // mismatch degrades to a cold cache — see snapshot_status()).
  // snapshot_save arms the shutdown save in the destructor, and
  // snapshot_interval_ms > 0 additionally runs a background thread that
  // re-snapshots whenever plans were computed since the last save.
  std::string snapshot_path{};
  bool snapshot_load = false;
  bool snapshot_save = false;
  i64 snapshot_interval_ms = 0;
};

/// Durability bookkeeping surfaced by the {"op":"statusz"} and
/// {"op":"cachez"} admin responses: how the cache booted and how snapshot
/// saves have gone since.
struct SnapshotStatus {
  bool configured = false;      ///< a snapshot path is set
  bool load_attempted = false;  ///< boot-time warm-up ran
  i64 warm_entries = 0;         ///< entries restored at boot
  std::string load_outcome = "disabled";  ///< "disabled"/"cold"/"warm"/error
  i64 saves = 0;                ///< successful snapshot writes
  i64 save_failures = 0;
  std::string last_save_outcome = "none";  ///< "none"/"ok"/error
  i64 last_save_entries = 0;
  i64 last_save_ms = -1;  ///< uptime at the last successful save; -1 never
};

/// One submitted request: a canonical key, an optional stable id (empty =
/// the engine generates "r<seq>"), and an optional relative deadline
/// (-1 = use the engine default; 0 = already expired, which
/// deterministically yields a timeout response).
struct Request {
  QueryKey key;
  std::string id{};
  i64 deadline_ms = -1;
};

/// The engine's answer.  Exactly one of {result, error} is meaningful:
/// ok => result != nullptr; !ok => error text (timeout => the structured
/// deadline error).  request_id echoes the request's stable id.
struct Response {
  std::shared_ptr<const QueryResult> result;
  bool ok = false;
  bool timeout = false;
  bool overload = false;  ///< rejected by try_submit on a full queue
  std::string error;
  std::string request_id;
};

/// Exact point-in-time engine statistics (all counted atomically).  Every
/// answered request is in exactly one of completed / timeouts / errors, so
/// after drain() requests == completed + timeouts + errors.
struct EngineStats {
  i64 requests = 0;        ///< total submits
  i64 completed = 0;       ///< responses fulfilled with a result
  i64 cache_hits = 0;      ///< answered from the cache at submit
  i64 cache_misses = 0;    ///< computations started (unique misses)
  i64 coalesced = 0;       ///< requests attached to a computing key
  i64 plans_computed = 0;  ///< compute_query executions
  i64 timeouts = 0;        ///< structured deadline responses
  i64 errors = 0;          ///< error responses (invalid parameters,
                           ///< overloads)
  i64 queue_depth = 0;     ///< current submission-queue depth
  i64 peak_queue_depth = 0;
  i64 inflight = 0;        ///< keys being computed (queued or executing)
  i64 cache_entries = 0;
  i64 cache_evictions = 0;
};

/// Windowed rates over the recent past (statusz reports these instead of
/// lifetime totals).  The 1s window is the current partial second, so
/// qps_1s is a live gauge, not a settled average.
struct ServiceRates {
  double qps_1s = 0.0;
  double qps_10s = 0.0;
  double qps_60s = 0.0;
  double hit_ratio_60s = 0.0;  ///< cache hits / requests over 60s
  double p50_us_10s = 0.0;     ///< request latency percentiles over 10s
  double p99_us_10s = 0.0;
};

class Engine {
 public:
  explicit Engine(EngineConfig config = {});

  /// Drains every queued and in-flight request, then joins the pool.
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  class Ticket;

  /// Submits a request.  Blocks only when the submission queue is full
  /// (back-pressure); cache hits and expired deadlines return a ticket
  /// that already holds its answer.  Tickets must not outlive the engine.
  Ticket submit(const Request& req) TP_EXCLUDES(queue_mu_, stats_mu_);

  /// Non-blocking submit for network front-ends: identical to submit()
  /// except that a full submission queue never blocks — the returned
  /// ticket is already fulfilled with a structured overload error
  /// (Response::overload), so the caller can answer the client and keep
  /// its socket loop responsive.  Cache hits and coalesced waits are
  /// unaffected (neither touches the queue).
  Ticket try_submit(const Request& req) TP_EXCLUDES(queue_mu_, stats_mu_);

  /// submit + wait.
  Response run(const Request& req) TP_EXCLUDES(queue_mu_, stats_mu_);

  /// Blocks until every request submitted so far has been answered and
  /// counted, so requests == completed + timeouts + errors on return.
  /// The pool stays alive for further submits.
  void drain() TP_EXCLUDES(stats_mu_);

  EngineStats stats() const TP_EXCLUDES(stats_mu_, queue_mu_);
  const EngineConfig& config() const { return config_; }
  const PlanCache& cache() const { return cache_; }

  /// Milliseconds since the engine was constructed.
  i64 uptime_ms() const;

  /// One human-readable state string per pool worker ("idle" or
  /// "compute <key>"), indexed by worker.
  std::vector<std::string> worker_states() const TP_EXCLUDES(stats_mu_);

  /// Windowed QPS / hit-ratio / latency percentiles (see ServiceRates).
  ServiceRates rates() const TP_EXCLUDES(stats_mu_);

  /// Slow-query log views (telemetry.h): the slowest spans seen
  /// (slowest first) and the most recent timeout/error spans (newest
  /// first).
  std::vector<RequestSpan> slowest_requests() const TP_EXCLUDES(stats_mu_);
  std::vector<RequestSpan> recent_failures() const TP_EXCLUDES(stats_mu_);

  /// Publishes counters/gauges/latency histograms into the global obs
  /// registry (no-op when the registry is disabled).  Counters are
  /// published as deltas since the previous call, so repeated publishes
  /// never double-count.  Call from one thread only (the same contract as
  /// the registry itself).
  void publish_stats() TP_EXCLUDES(stats_mu_);

  /// Writes a PlanCache snapshot to config().snapshot_path now.  Returns
  /// false when no path is configured or the write failed (the failure is
  /// recorded in snapshot_status(); this never throws — a full disk must
  /// not take the service down).  With only_if_dirty, a save is skipped
  /// (returning true) when no plan has been computed since the last one.
  /// Thread-safe: concurrent saves serialize, and the atomic-replace
  /// protocol means readers never see a partial file.
  bool save_snapshot(bool only_if_dirty = false)
      TP_EXCLUDES(stats_mu_, snapshot_mu_, save_io_mu_);

  /// Durability bookkeeping for statusz/cachez.
  SnapshotStatus snapshot_status() const TP_EXCLUDES(snapshot_mu_);

 public:
  /// Handle to one submitted request: the answer itself when it was known
  /// at submit (a hit, an expired deadline), else the request's waiter.
  class Ticket {
   public:
    /// Blocks until the response is ready or the request's deadline
    /// expires, whichever is first; a late answer is the same timeout.
    /// Safe to call once per ticket.
    Response wait();

   private:
    friend class Engine;
    explicit Ticket(std::shared_ptr<Pending> pending)
        : pending_(std::move(pending)) {}
    explicit Ticket(Response answer) : answer_(std::move(answer)) {}
    std::shared_ptr<Pending> pending_;  ///< null when answered at submit
    Response answer_;
  };

 private:
  using Clock = std::chrono::steady_clock;

  Ticket submit_impl(const Request& req, bool may_block)
      TP_EXCLUDES(queue_mu_, stats_mu_);
  /// Answers a request at submit, with no waiter: one stats_mu_
  /// acquisition counts it and records its span.
  Ticket answer_at_submit(const Request& req, const HashedKey& key,
                          Response response, SpanOutcome outcome,
                          Clock::time_point submitted,
                          Clock::time_point deadline) TP_EXCLUDES(stats_mu_);
  /// A counted waiter for `req`, with its id, built inside its probe.
  std::shared_ptr<Pending> new_waiter(const Request& req, const HashedKey& key,
                                      Clock::time_point submitted,
                                      Clock::time_point deadline)
      TP_EXCLUDES(stats_mu_);
  void worker_loop(i32 worker);
  void saver_loop();
  /// Computes a queued key on worker `slot`, marking the slot idle before
  /// answering, so a caller returning from drain() sees every worker idle.
  void execute(const HashedKey& key, std::size_t slot) TP_EXCLUDES(stats_mu_);
  /// Answers a job's waiters: the first started it, the rest coalesced.
  void answer_waiters(const PlanCache::Waiters& waiters,
                      const Response& response, Clock::time_point dequeued,
                      i64 compute_us) TP_EXCLUDES(stats_mu_);
  /// Answers one waiter: stores the response (the timeout instead when
  /// its deadline has passed), counts its outcome and records `span`.
  void fulfill(Pending& pending, Response response, RequestSpan span)
      TP_EXCLUDES(stats_mu_);
  /// Counts a submit and returns its id: the client's, else "r<seq>".
  std::string count_request(const Request& req) TP_REQUIRES(stats_mu_);
  /// Counts an answered request's outcome and records its span in the
  /// histograms, the slow log and the rate rings.
  void account(const RequestSpan& span, Clock::time_point now)
      TP_REQUIRES(stats_mu_);
  static Response timeout_response(const QueryKey& key);

  EngineConfig config_;
  i32 pool_threads_ = 1;
  PlanCache cache_;
  Clock::time_point start_;

  // Submission queue (bounded) of computing keys, and the pool.
  mutable Mutex queue_mu_;
  CondVar queue_not_empty_;
  CondVar queue_not_full_;
  std::deque<HashedKey> queue_ TP_GUARDED_BY(queue_mu_);
  bool stopping_ TP_GUARDED_BY(queue_mu_) = false;
  std::vector<Thread> pool_;

  // Exact stats and request-scoped telemetry, behind one lock: counters,
  // latency histograms, the slow-query log and the rate windows.
  // drain_cv_ wakes drain() as waiters are answered.
  mutable Mutex stats_mu_;
  CondVar drain_cv_;
  EngineStats counters_ TP_GUARDED_BY(stats_mu_);
  obs::HistogramData request_us_ TP_GUARDED_BY(stats_mu_);
  obs::HistogramData compute_us_ TP_GUARDED_BY(stats_mu_);
  obs::HistogramData queue_wait_us_ TP_GUARDED_BY(stats_mu_);
  obs::HistogramData fanin_ TP_GUARDED_BY(stats_mu_);
  obs::HistogramData deadline_margin_us_ TP_GUARDED_BY(stats_mu_);
  SlowQueryLog slow_log_ TP_GUARDED_BY(stats_mu_);
  obs::RollingHistogram requests_ring_ TP_GUARDED_BY(stats_mu_);
  obs::RollingHistogram latency_ring_ TP_GUARDED_BY(stats_mu_);
  std::vector<std::string> worker_state_ TP_GUARDED_BY(stats_mu_);
  EngineStats published_;  ///< last snapshot pushed into the registry;
                           ///< single-caller contract (publish_stats), so
                           ///< deliberately unguarded

  // Durability: snapshot bookkeeping and the periodic saver thread.
  // save_io_mu_ serializes the file writes themselves (held across the
  // whole save so concurrent savers cannot interleave temp files);
  // snapshot_mu_ guards only the status record, so statusz never blocks
  // behind an in-progress save.
  mutable Mutex snapshot_mu_;
  SnapshotStatus snapshot_ TP_GUARDED_BY(snapshot_mu_);
  i64 saved_plans_ TP_GUARDED_BY(snapshot_mu_) = 0;  ///< plans_computed at
                                                     ///< the last save
  Mutex save_io_mu_;
  Mutex saver_mu_;
  CondVar saver_cv_;
  bool saver_stop_ TP_GUARDED_BY(saver_mu_) = false;
  Thread saver_;
  bool has_saver_ = false;
};

}  // namespace tp::service
