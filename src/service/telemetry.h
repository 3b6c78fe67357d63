// Per-request span records and the bounded slow-query log.
//
// A RequestSpan is the engine's account of one request's life: who asked
// (the stable request id), what they asked for (the canonical key), how
// it ended, and where the time went (queue wait vs compute), plus the
// coalesce fan-in and the deadline margin.  The engine materializes one
// span per answered request and feeds it three ways: into its local
// histograms (published to the registry by publish_stats), into the
// Chrome tracer as a complete event, and into the SlowQueryLog below.
//
// SlowQueryLog keeps two bounded rings: the N slowest requests seen so
// far (by total latency, so a pathological key sticks around long after
// the burst that exposed it) and the N most recent failures (timeouts
// and errors, newest first, so "what just broke" is answerable).  Both
// are queryable live via {"op":"slowz"} and dumped on serve shutdown.
//
// Neither type is thread-safe: the engine guards its instance with the
// same mutex as its counters (see Engine::stats_mu_).

#pragma once

#include <deque>
#include <string>
#include <vector>

#include "src/service/query.h"

namespace tp::service {

/// How one request ended, from the requester's point of view.
enum class SpanOutcome {
  Hit,        ///< answered from the plan cache at submit
  Computed,   ///< first waiter of a fresh computation
  Coalesced,  ///< joined a computing key's waiters
  Timeout,    ///< structured deadline response (or fulfilled past it)
  Error,      ///< computation failed (invalid parameters)
};

const char* span_outcome_name(SpanOutcome o);

/// One request's timing breakdown.
struct RequestSpan {
  std::string request_id;  ///< client-supplied or engine-generated id
  QueryKey key;            ///< the query (formatted only when read)
  SpanOutcome outcome = SpanOutcome::Hit;
  i64 total_us = 0;    ///< submit -> answer
  i64 queue_us = 0;    ///< submit -> worker dequeue (0 for cache hits)
  i64 compute_us = 0;  ///< compute_query wall time (0 for cache hits)
  i64 fanin = 1;       ///< waiters fulfilled by the same computation
  i64 shard = 0;       ///< plan-cache shard of the key
  bool has_deadline = false;
  i64 deadline_margin_us = 0;  ///< deadline minus answer time; negative
                               ///< means the deadline was missed
};

class SlowQueryLog {
 public:
  /// Each ring holds up to `capacity` spans.
  explicit SlowQueryLog(std::size_t capacity = 16);

  void record(const RequestSpan& span);

  /// The slowest spans seen, slowest first.
  std::vector<RequestSpan> slowest() const;

  /// Timeout/error spans, newest first.
  std::vector<RequestSpan> recent_failures() const;

  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::vector<RequestSpan> slow_;     ///< sorted descending by total_us
  std::deque<RequestSpan> failures_;  ///< oldest .. newest
};

}  // namespace tp::service
