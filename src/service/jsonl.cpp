#include "src/service/jsonl.h"

#include <cstdint>
#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/obs.h"
#include "src/service/admin.h"
#include "src/torus/torus.h"
#include "src/util/error.h"

namespace tp::service {

namespace {

/// The id a line's answer echoes: its "id" when the line is a JSON object
/// that has one, else the 1-based line number.
obs::JsonValue echo_id(const obs::JsonValue& doc, i64 line_no) {
  if (doc.is_object())
    if (const obs::JsonValue* id = doc.find("id")) return *id;
  return obs::JsonValue(line_no);
}

/// Validates a request document into the canonical request.
Request parse_request_doc(const obs::JsonValue& doc) {
  TP_REQUIRE(doc.is_object(), "request must be a JSON object");

  static const char* const kKnown[] = {"id", "op",     "d",     "k",
                                       "radices", "t", "router", "deadline_ms"};
  for (const auto& [key, value] : doc.members()) {
    bool known = false;
    for (const char* k : kKnown)
      if (key == k) {
        known = true;
        break;
      }
    TP_REQUIRE(known, "unknown request field '" + key + "'");
  }

  Request out;
  // The echoed id doubles as the engine-level request id (strings pass
  // through; other JSON values keep their serialized form).  Lines
  // without an id leave it empty so the engine generates one.
  if (const obs::JsonValue* id = doc.find("id"))
    out.id = id->is_string() ? id->as_string() : id->dump();

  const QueryOp op =
      parse_op(doc.find("op") ? doc.find("op")->as_string() : "");
  const RouterKind router = parse_router_kind(
      doc.find("router") ? doc.find("router")->as_string() : "");
  const i32 t =
      doc.find("t") ? static_cast<i32>(doc.find("t")->as_int()) : 1;

  Radices radices;
  if (const obs::JsonValue* rad = doc.find("radices")) {
    TP_REQUIRE(rad->is_array(), "'radices' must be an array");
    TP_REQUIRE(!rad->items().empty() && rad->items().size() <= kMaxDims,
               "'radices' needs 1.." + std::to_string(kMaxDims) +
                   " entries");
    for (const obs::JsonValue& r : rad->items())
      radices.push_back(static_cast<i32>(r.as_int()));
    if (const obs::JsonValue* d = doc.find("d"))
      TP_REQUIRE(static_cast<std::size_t>(d->as_int()) == radices.size(),
                 "'d' contradicts the length of 'radices'");
    TP_REQUIRE(doc.find("k") == nullptr,
               "give either 'k' (with 'd') or 'radices', not both");
  } else {
    const obs::JsonValue* d = doc.find("d");
    const obs::JsonValue* k = doc.find("k");
    TP_REQUIRE(d != nullptr && k != nullptr,
               "request needs 'd' and 'k' (or 'radices')");
    const i64 dims = d->as_int();
    TP_REQUIRE(dims >= 1 && dims <= static_cast<i64>(kMaxDims),
               "'d' must be in [1, " + std::to_string(kMaxDims) + "]");
    for (i64 i = 0; i < dims; ++i)
      radices.push_back(static_cast<i32>(k->as_int()));
  }

  out.key = make_query_key(radices, t, router, op);
  if (const obs::JsonValue* deadline = doc.find("deadline_ms")) {
    const i64 ms = deadline->as_int();
    TP_REQUIRE(ms >= 0, "'deadline_ms' must be >= 0");
    out.deadline_ms = ms;
  }
  // Every key compute would refuse is refused here, with compute's own
  // checks and reasons, so that it never reaches the engine: the torus
  // (radices >= 2, 64-bit node ids), then plan_placement's.
  const Torus torus(radices);
  TP_REQUIRE(torus.is_uniform_radix(),
             "planning requires the paper's T_k^d (uniform radix)");
  const i32 k = torus.radix(0);
  TP_REQUIRE(t >= 1 && t <= k, "multiplicity t must be in [1, k]");
  return out;
}

}  // namespace

BatchRequest parse_request_line(std::string_view line, i64 line_no) {
  const obs::JsonValue doc = obs::parse_json(line);
  return BatchRequest{echo_id(doc, line_no), parse_request_doc(doc)};
}

namespace {

/// The members of an ok answer after its id, in wire order.
void set_answer_members(obs::JsonValue& out, const QueryResult& r) {
  out.set("ok", obs::JsonValue(true));
  out.set("op", obs::JsonValue(op_name(r.key.op())));
  out.set("key", obs::JsonValue(r.key.str()));
  out.set("d", obs::JsonValue(static_cast<i64>(r.key.dims())));
  out.set("k", obs::JsonValue(static_cast<i64>(r.key.radices[0])));
  out.set("t", obs::JsonValue(static_cast<i64>(r.key.t)));
  out.set("router", obs::JsonValue(router_name_short(r.key.router)));
  out.set("placement", obs::JsonValue(r.placement_name));
  out.set("processors", obs::JsonValue(r.placement_size));
  out.set("predicted_emax", obs::JsonValue(r.predicted_emax));
  out.set("prediction_exact", obs::JsonValue(r.prediction_exact));
  out.set("lower_bound", obs::JsonValue(r.lower_bound));
  if (r.key.measure) {
    out.set("measured_emax", obs::JsonValue(r.measured_emax));
    out.set("mean_load", obs::JsonValue(r.mean_load));
    out.set("loaded_links", obs::JsonValue(r.loaded_links));
  }
  if (r.key.bounds) {
    obs::JsonValue bounds = obs::JsonValue::array();
    for (const BoundValue& b : r.bound_table) {
      obs::JsonValue row = obs::JsonValue::object();
      row.set("name", obs::JsonValue(b.name));
      row.set("value", obs::JsonValue(b.value));
      row.set("applicable", obs::JsonValue(b.applicable));
      row.set("note", obs::JsonValue(b.note));
      bounds.push_back(std::move(row));
    }
    out.set("bounds", std::move(bounds));
    if (r.has_slab) {
      obs::JsonValue slab = obs::JsonValue::object();
      slab.set("value", obs::JsonValue(r.slab.value));
      slab.set("dim", obs::JsonValue(static_cast<i64>(r.slab.dim)));
      slab.set("lo", obs::JsonValue(static_cast<i64>(r.slab.lo)));
      slab.set("len", obs::JsonValue(static_cast<i64>(r.slab.len)));
      out.set("slab", std::move(slab));
    }
  }
  out.set("summary", obs::JsonValue(r.summary));
}

/// The members of a failure answer after its id, in wire order.
void set_failure_members(obs::JsonValue& out, const Response& response) {
  out.set("ok", obs::JsonValue(false));
  out.set("error", obs::JsonValue(response.error));
  if (response.timeout) out.set("timeout", obs::JsonValue(true));
  if (response.overload) out.set("overload", obs::JsonValue(true));
}

/// An object's bytes without its '{', which goes before the id.
std::string members_after_id(const obs::JsonValue& object) {
  std::string text = object.dump();
  text.erase(0, 1);
  return text;
}

/// `{"id":<id>,` then `members` (from members_after_id).
std::string splice_id(std::string_view id, std::string_view members) {
  std::string text;
  text.reserve(id.size() + members.size() + 8);
  text += "{\"id\":";
  text += id;
  text += ',';
  text += members;
  return text;
}

/// A failure answer's bytes, the same as response_to_json's.
std::string render_failure(std::string_view id, const Response& response) {
  obs::JsonValue out = obs::JsonValue::object();
  set_failure_members(out, response);
  return splice_id(id, members_after_id(out));
}

}  // namespace

obs::JsonValue response_to_json(const obs::JsonValue& id,
                                const Response& response) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("id", id);
  if (response.ok)
    set_answer_members(out, *response.result);
  else
    set_failure_members(out, response);
  return out;
}

std::string render_body(const QueryResult& result) {
  obs::JsonValue out = obs::JsonValue::object();
  set_answer_members(out, result);
  return members_after_id(out);
}

Response error_response(const std::string& what) {
  Response r;
  r.ok = false;
  r.error = what;
  return r;
}

void StagedLine::refuse(const std::string& what) {
  reply = render_failure(id, error_response(what));
}

std::string render_line(StagedLine& line, bool* overload) {
  // An engine answer's bytes are built here and handed on, never kept in
  // the line: batch holds every staged line until its whole input is
  // answered.
  std::string text;
  if (!line.ticket) {
    text = line.reply;
  } else {
    const Response response = line.ticket->wait();
    if (overload != nullptr) *overload = response.overload;
    if (response.ok) {
      const std::string& body = response.result->body;
      TP_ASSERT(!body.empty(), "an engine answer carries its rendered body");
      text = splice_id(line.id, body);
    } else {
      text = render_failure(line.id, response);
    }
  }
  text += '\n';
  return text;
}

ParsedLine parse_line(std::string_view line, i64 line_no) {
  ParsedLine out;
  if (obs::blank_line(line)) return out;
  bool is_json = false;
  try {
    obs::JsonValue doc = obs::parse_json(line);
    is_json = true;
    out.staged.id = echo_id(doc, line_no).dump();
    if (is_admin_op(doc)) {
      out.kind = ParsedLine::Kind::Admin;
      out.doc = std::move(doc);
      out.line_no = line_no;
    } else {
      out.request = parse_request_doc(doc);
      out.kind = ParsedLine::Kind::Query;
    }
  } catch (const Error& e) {
    out.kind = ParsedLine::Kind::Refused;
    if (!is_json) out.staged.id = obs::JsonValue(line_no).dump();
    out.staged.refuse(e.what());
  }
  return out;
}

bool answer_admin(Engine& engine, ParsedLine& parsed, bool* quit,
                  const ListenerStatus& listener) {
  try {
    parsed.staged.reply =
        handle_admin(engine, parsed.doc, echo_id(parsed.doc, parsed.line_no),
                     quit, listener)
            .dump();
    return true;
  } catch (const Error& e) {
    parsed.staged.refuse(e.what());
    return false;
  }
}

namespace {

/// Answers reach the stream in blocks that end with the line taking them
/// past this size, and at every flush.
constexpr std::size_t kBlockBytes = 64 * 1024;

/// The stdio front-ends' one loop.  Lines are staged in input order and
/// answered, then flushed, every `window` lines and at the end of input
/// (or after quitz).  Admin ops are answered when staged — their point is
/// a live view while the pool is busy.
i64 answer_lines(Engine& engine, std::istream& in, std::ostream& out,
                 std::size_t window) {
  std::vector<StagedLine> staged;
  std::string block;
  block.reserve(kBlockBytes + kBlockBytes / 8);  // a block and its last line
  i64 answered = 0;
  const auto answer = [&] {
    for (StagedLine& line : staged) {
      block += render_line(line);
      if (block.size() >= kBlockBytes) {
        out << block;
        block.clear();
      }
    }
    out << block;
    block.clear();
    out.flush();
    answered += static_cast<i64>(staged.size());
    staged.clear();
  };
  std::string line;
  i64 line_no = 0;
  bool quit = false;
  while (!quit && std::getline(in, line)) {
    ParsedLine parsed = parse_line(line, ++line_no);
    if (parsed.kind == ParsedLine::Kind::Blank) continue;
    if (parsed.kind == ParsedLine::Kind::Admin)
      answer_admin(engine, parsed, &quit);
    if (parsed.kind == ParsedLine::Kind::Query)
      parsed.staged.ticket = engine.submit(parsed.request);
    staged.push_back(std::move(parsed.staged));
    if (staged.size() == window) answer();
  }
  answer();
  return answered;
}

}  // namespace

i64 run_batch(Engine& engine, std::istream& in, std::ostream& out) {
  TP_OBS_SCOPE("service.batch");
  // The whole input is staged before the first answer: identical keys
  // coalesce onto one computation or hit the cache, however far apart
  // they are in the file.
  return answer_lines(engine, in, out, SIZE_MAX);
}

i64 run_serve(Engine& engine, std::istream& in, std::ostream& out) {
  TP_OBS_SCOPE("service.serve");
  return answer_lines(engine, in, out, 1);
}

}  // namespace tp::service
