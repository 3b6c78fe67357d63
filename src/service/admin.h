// Admin query surface for the JSONL front-end.
//
// Admin requests share the JSONL transport with query requests — one JSON
// object per line — but are recognized by their "op" and answered on the
// front-end thread itself, never enqueued: an admin probe is answerable
// mid-stream even when every pool worker is busy and the submission queue
// is full.  Supported ops (schemas in docs/service.md):
//
//   {"op":"statusz"}   uptime, build info, queue/worker/in-flight state,
//                      rolling 1s/10s/60s rates, snapshot + listener state
//   {"op":"metricsz"}  live registry snapshot; "format":"prometheus"
//                      switches the payload to Prometheus text exposition
//   {"op":"cachez"}    per-shard plan-cache occupancy/hits/evictions and
//                      the entry-age histogram
//   {"op":"slowz"}     slow-query log: N slowest + N most recent failures
//   {"op":"quitz"}     acknowledge and stop reading input (graceful
//                      drain: in-flight work still completes)
//
// Admin responses deliberately carry live timing fields — they are exempt
// from the "responses are a pure function of the request" determinism
// contract that query responses honor (jsonl.h).  Golden tests therefore
// pin their member-name sequence, not their values.

#pragma once

#include <string>

#include "src/obs/json.h"
#include "src/service/engine.h"

namespace tp::service {

/// Network listener state surfaced by statusz.  The TCP server
/// (src/net/tcp_server.h) passes its own with every admin line it
/// answers; the default renders {"configured": false, "state": "none"}, so
/// the statusz member order is transport-independent, matching the
/// snapshot-state precedent.
struct ListenerStatus {
  bool configured = false;
  std::string address;
  std::string state = "none";  ///< "none" | "accepting" | "draining"
  i64 open_connections = 0;
  i64 draining_connections = 0;
  i64 accepted = 0;
  i64 rejected = 0;
};

/// True when `doc` is a request for one of the admin ops above (an object
/// whose "op" member is one of the admin names).  Malformed documents are
/// not admin requests — they fall through to normal request parsing and
/// its error reporting.
bool is_admin_op(const obs::JsonValue& doc);

/// Answers one admin request.  `id` is echoed back (same contract as
/// query responses); `listener` is the state of the front-end answering
/// it, reported by statusz.  Sets *quit when the op asks the front-end to
/// stop reading (quitz).  Throws tp::Error on unknown members or a bad
/// "format", so typos fail loudly like query requests do.
obs::JsonValue handle_admin(Engine& engine, const obs::JsonValue& doc,
                            const obs::JsonValue& id, bool* quit,
                            const ListenerStatus& listener = {});

}  // namespace tp::service
