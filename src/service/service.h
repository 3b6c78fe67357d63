// Umbrella header for the query-service subsystem.
//
//   QueryKey / QueryResult  canonical requests + immutable answers (query.h)
//   compute_query           the synchronous work function        (query.h)
//   PlanCache               sharded LRU over results         (plan_cache.h)
//   Engine                  worker pool + coalescing + deadlines (engine.h)
//   RequestSpan/SlowQueryLog per-request telemetry            (telemetry.h)
//   is_admin_op/handle_admin statusz/metricsz/cachez/slowz/quitz (admin.h)
//   parse_line/render_line  the request-line path of every
//                           transport; run_batch/run_serve   (jsonl.h)
//   save/load_cache_snapshot crash-safe PlanCache persistence (snapshot.h)
//   CheckpointJournal       completed-cell journal for long runs
//                                                            (checkpoint.h)
//
// The service turns the paper's closed-form deliverable — "given
// (d, k, t), what is the optimal placement and its exact E_max?" — into a
// request/response system: canonicalize the request, answer it once, and
// share that answer with every client that asks again.  See
// docs/service.md for the architecture and the JSONL wire schema.

#pragma once

#include "src/service/admin.h"
#include "src/service/checkpoint.h"
#include "src/service/engine.h"
#include "src/service/jsonl.h"
#include "src/service/plan_cache.h"
#include "src/service/query.h"
#include "src/service/snapshot.h"
#include "src/service/telemetry.h"
