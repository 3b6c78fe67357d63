// The JSONL wire protocol of the query engine, shared by every transport,
// and its stdio front-ends (batch, serve --stdio).
//
// One request per line, one response line per request, emitted in request
// order.  Request schema (unknown keys are rejected so typos fail loudly):
//
//   {"id": <any JSON value, echoed back>,      // optional; default: line no.
//    "op": "plan"|"bounds"|"load"|"analyze",   // optional; default "plan"
//    "d": 3, "k": 8,                           // uniform torus T_k^d
//    "radices": [4,6,8],                       // or explicit radices
//    "t": 1,                                   // optional multiplicity
//    "router": "odr"|"udr"|"adaptive",         // optional; default "odr"
//    "deadline_ms": 250}                       // optional deadline
//
// Response (success):
//
//   {"id":..., "ok":true, "op":"load", "key":"load d3 k8 t1 odr",
//    "d":3, "k":8, "t":1, "router":"odr",
//    "placement":"...", "processors":64,
//    "predicted_emax":32, "prediction_exact":true, "lower_bound":10.5,
//    "measured_emax":32, "mean_load":..., "loaded_links":...,   // load ops
//    "bounds":[{"name":...,"value":...,"applicable":...,"note":...},...],
//    "slab":{"value":...,"dim":...,"lo":...,"len":...},         // bound ops
//    "summary":"..."}
//
// Response (failure):   {"id":..., "ok":false, "error":"...",
//                        "timeout":true,       // only on deadline
//                        "overload":true}      // only on queue-full reject
//                                              // (TCP front-end, net/)
//
// Responses are a pure function of the request: no timing, thread-count,
// or cache-state fields — so batch output is byte-identical across worker
// pool widths and across cold/warm caches (golden-tested).  The client
// "id" (or its JSON dump for non-strings) doubles as the engine-level
// request id carried through submit/compute/fulfill for tracing and the
// slow-query log; lines without an id get an engine-generated one, which
// never appears in the response.
//
// Admin ops (statusz/metricsz/cachez/slowz/quitz — see admin.h) share
// the transport: every front-end answers them inline on its reading
// thread, so they work mid-stream while every worker is busy, and quitz
// stops further reading while in-flight requests still complete.
//
// Each protocol decision is made here once: parse_line classifies a line
// (blank, admin, query or refused, with the id to echo), answer_admin
// answers an admin line, and render_line turns a StagedLine into its
// response bytes.  net/tcp_server.h adds only socket framing and its own
// limits.
//
// An answer is rendered once: render_body writes everything after its
// id, the engine keeps those bytes in QueryResult::body, and render_line
// splices `{"id":<id>,` in front of them on every hit.  A staged line
// keeps bytes too: its id's JSON text, written once by parse_line, and
// the finished reply of an admin line or a refusal.  Errors, timeouts,
// overloads and admin replies are rendered through the JsonValue DOM.

#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "src/obs/json.h"
#include "src/service/admin.h"
#include "src/service/engine.h"

namespace tp::service {

/// A parsed request line: the canonical request plus the id to echo.
struct BatchRequest {
  obs::JsonValue id;
  Request request;
};

/// Parses one JSONL request line.  `line_no` (1-based) becomes the id
/// when the request carries none.  Throws tp::Error on malformed JSON,
/// unknown keys, or missing dimensions.
BatchRequest parse_request_line(std::string_view line, i64 line_no);

/// Renders a response line (deterministic member order, compact).
obs::JsonValue response_to_json(const obs::JsonValue& id,
                                const Response& response);

/// An ok answer's bytes after `{"id":<id>,`: the members response_to_json
/// writes after the id, and the closing brace.  Stored once per result in
/// QueryResult::body.
std::string render_body(const QueryResult& result);

/// A bare failure Response carrying `what` (no timeout/overload flags).
Response error_response(const std::string& what);

/// One request line on its way to its answer: the id to echo plus the
/// engine's ticket, or the reply when it is already known (admin answers
/// and refusals).  Batch keeps every staged line until its input is
/// answered, so a line holds bytes, not JSON trees.
struct StagedLine {
  std::string id = "null";  ///< the id's JSON text
  std::optional<Engine::Ticket> ticket;
  std::string reply;  ///< a finished reply's bytes, without the newline

  /// Answers the line with `what` as its error response.
  void refuse(const std::string& what);
};

/// The response bytes of a staged line, newline included: waits on its
/// ticket if it has one.  Every answer is its id spliced before the rest
/// of its members: the stored body when ok.  Every front-end writes its
/// answers through this.  `overload`, when given, reports an
/// Engine::try_submit refusal.
std::string render_line(StagedLine& line, bool* overload = nullptr);

/// One request line, classified by parse_line.
struct ParsedLine {
  enum class Kind { Blank, Admin, Query, Refused };
  Kind kind = Kind::Blank;
  StagedLine staged;    ///< the id (its "id", else the line number); a
                        ///< Refused line's error reply
  obs::JsonValue doc;   ///< Admin: the request document
  i64 line_no = 0;      ///< Admin: the id when the document has none
  Request request;      ///< Query: the canonical request
};

/// Parses and classifies one line; never throws.  A blank line (spaces,
/// tabs, CR) is not a request.  A line that is not valid JSON, not an
/// object, or not a valid request is Refused with the parse error, and
/// still echoes the line's "id" when it has one.
ParsedLine parse_line(std::string_view line, i64 line_no);

/// Answers an Admin line into parsed.staged.reply; statusz reports
/// `listener` (handle_admin).  An admin request with an unknown field or a
/// bad "format" is refused instead, and the call returns false.  Sets
/// *quit on quitz.
bool answer_admin(Engine& engine, ParsedLine& parsed, bool* quit,
                  const ListenerStatus& listener = {});

/// Reads every request line from `in`, submits them all to the engine
/// (identical keys coalesce / hit the cache), and writes one response
/// line per request in input order, in 64 KiB blocks, flushing once at
/// the end.  Malformed lines produce in-place error responses instead of
/// aborting the batch.  Returns the number of requests processed.
i64 run_batch(Engine& engine, std::istream& in, std::ostream& out);

/// Request/response loop for `serve --stdio`: the batch loop answering
/// and flushing after every line, so interactive and piped clients both
/// work.  Returns the number of requests served.
i64 run_serve(Engine& engine, std::istream& in, std::ostream& out);

}  // namespace tp::service
