#include "replay.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>

#include "src/bounds/lower_bounds.h"
#include "src/bounds/slab_search.h"
#include "src/core/planner.h"
#include "src/load/complete_exchange.h"
#include "src/net/line_buffer.h"
#include "src/service/jsonl.h"
#include "src/service/plan_cache.h"
#include "src/util/error.h"

namespace tpbench {

namespace {

using Clock = std::chrono::steady_clock;
using tp::service::QueryResult;

/// Span recorder with shared boundaries (see replay.h).  When off, every
/// call is a predicted branch and no clock is read.
class Recorder {
 public:
  explicit Recorder(bool on, std::vector<Span>& spans)
      : on_(on), spans_(spans), origin_(Clock::now()) {}

  void begin(i64 request) {
    if (!on_) return;
    request_ = request;
    last_ = now();
    root_ = push("request", -1, last_);
  }
  /// A span from the previous boundary to now; now becomes the boundary.
  void leaf(const char* name, i32 parent) {
    if (!on_) return;
    const i64 t = now();
    spans_[static_cast<std::size_t>(push(name, parent, last_))].end_ns = t;
    last_ = t;
  }
  /// Opens a span at the previous boundary; close() ends it at the
  /// boundary current then.
  i32 open(const char* name, i32 parent) {
    return on_ ? push(name, parent, last_) : -1;
  }
  void close(i32 span) {
    if (on_) spans_[static_cast<std::size_t>(span)].end_ns = last_;
  }
  /// Moves the boundary without a span: the time since the previous
  /// boundary stays with the enclosing span as its self time.
  void skip() {
    if (on_) last_ = now();
  }
  void end() {
    if (on_) spans_[static_cast<std::size_t>(root_)].end_ns = last_;
  }
  i32 root() const { return root_; }

 private:
  i64 now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  i32 push(const char* name, i32 parent, i64 start) {
    spans_.push_back(Span{name, start, start, parent, request_});
    return static_cast<i32>(spans_.size() - 1);
  }

  bool on_;
  std::vector<Span>& spans_;
  Clock::time_point origin_;
  i64 last_ = 0;
  i64 request_ = 0;
  i32 root_ = -1;
};

const char* load_span(tp::RouterKind router) {
  switch (router) {
    case tp::RouterKind::Odr:
      return "load.odr";
    case tp::RouterKind::Udr:
      return "load.udr";
    case tp::RouterKind::Adaptive:
      return "load.adaptive";
  }
  return "load.unknown";
}

/// compute_query's steps, one span per layer call.
std::shared_ptr<const QueryResult> compute(const QueryKey& key, Recorder& rec,
                                           i32 parent) {
  const i32 span = rec.open("service.compute", parent);
  const tp::Torus torus(key.radices);
  tp::PlacementPlan plan = tp::plan_placement(torus, key.t, key.router);
  rec.leaf("core.plan", span);

  auto r = std::make_shared<QueryResult>();
  r->key = key;
  r->placement_name = plan.placement.name();
  r->router_name = plan.router->name();
  r->summary = plan.summary;
  r->placement_size = plan.placement.size();
  r->predicted_emax = plan.predicted_emax;
  r->prediction_exact = plan.prediction_exact;
  r->lower_bound = plan.lower_bound;
  rec.skip();

  if (key.measure) {
    auto loads = std::make_shared<tp::LoadMap>(
        tp::measure_loads(torus, plan.placement, key.router, 1));
    rec.leaf(load_span(key.router), span);
    r->measured_emax = loads->max_load();
    r->mean_load = loads->mean_load();
    r->loaded_links = loads->num_loaded_edges();
    r->loads = std::move(loads);
    rec.skip();
  }
  if (key.bounds) {
    r->bound_table = tp::all_bounds(torus, plan.placement);
    rec.leaf("bounds.table", span);
    if (plan.placement.size() >= 2) {
      r->slab = tp::best_slab_bound(torus, plan.placement);
      r->has_slab = true;
      rec.leaf("bounds.slab", span);
    }
  }
  rec.close(span);
  return r;
}

}  // namespace

ReplayResult replay(const std::vector<QueryKey>& universe,
                    const std::vector<i64>& stream, std::size_t cache_capacity,
                    bool traced) {
  std::vector<std::string> lines;
  lines.reserve(stream.size());
  for (const i64 key : stream)
    lines.push_back(request_line(universe[static_cast<std::size_t>(key)], key));

  ReplayResult out;
  out.answers.resize(universe.size());
  out.requests = static_cast<i64>(stream.size());
  // Room for a compute's spans on every request, so no reallocation lands
  // inside a timed span.
  if (traced) out.spans.reserve(stream.size() * 12);
  std::vector<QueryKey> measured;

  tp::service::PlanCache cache(cache_capacity, 8);
  tp::net::LineBuffer framer(std::size_t{1} << 20);
  Recorder rec(traced, out.spans);
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    rec.begin(static_cast<i64>(i));
    framer.feed(lines[i]);
    const std::optional<tp::net::LineBuffer::Line> line = framer.next_line();
    rec.leaf("net.frame", rec.root());
    TP_REQUIRE(line.has_value(), "replay framing lost a request line");

    const tp::service::BatchRequest req =
        tp::service::parse_request_line(line->text, static_cast<i64>(i) + 1);
    rec.leaf("service.parse", rec.root());

    std::shared_ptr<const QueryResult> result = cache.get(req.request.key);
    rec.leaf("service.probe", rec.root());
    if (result == nullptr) {
      result = compute(req.request.key, rec, rec.root());
      cache.put(req.request.key, result);
      rec.leaf("service.insert", rec.root());
      if (req.request.key.measure) measured.push_back(req.request.key);
    }

    tp::service::Response response;
    response.ok = true;
    response.result = std::move(result);
    std::string answer = tp::service::response_to_json(req.id, response).dump();
    rec.leaf("service.serialize", rec.root());
    rec.end();

    std::string& first = out.answers[static_cast<std::size_t>(stream[i])];
    if (first.empty()) first = std::move(answer);
  }
  out.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - start)
                    .count();

  for (const QueryKey& key : measured) {
    const tp::Torus torus(key.radices);
    out.computed_hops += tp::expected_total_load(
        torus, tp::multiple_linear_placement(torus, key.t));
  }

  std::vector<i64> child_ns(out.spans.size(), 0);
  for (const Span& s : out.spans)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  for (std::size_t i = 0; i < out.spans.size(); ++i) {
    const Span& s = out.spans[i];
    SpanTotals& totals = out.by_name[s.name];
    ++totals.count;
    totals.total_ns += s.end_ns - s.start_ns;
    totals.self_ns += s.end_ns - s.start_ns - child_ns[i];
  }
  return out;
}

std::string layer_of(const std::string& span_name) {
  const std::size_t dot = span_name.find('.');
  return dot == std::string::npos ? "harness" : span_name.substr(0, dot);
}

void write_chrome_trace(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  TP_REQUIRE(out.good(), "cannot write '" + path + "'");
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"request\":%lld,"
                  "\"span\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name, layer_of(s.name).c_str(),
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<long long>(s.request), i, s.parent);
    out << buf;
  }
  out << "\n]}\n";
  TP_REQUIRE(out.good(), "short write to '" + path + "'");
}

std::string self_time_table(const ReplayResult& result) {
  std::map<std::string, i64> layer_self;
  i64 all_self = 0;
  std::string text;
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-18s %10s %12s %12s %7s\n", "span", "calls",
                "total_ms", "self_ms", "self%");
  text += buf;
  const double wall = static_cast<double>(result.wall_ns);
  for (const auto& [name, t] : result.by_name) {
    std::snprintf(buf, sizeof buf, "%-18s %10lld %12.3f %12.3f %6.1f%%\n",
                  name.c_str(), static_cast<long long>(t.count),
                  static_cast<double>(t.total_ns) / 1e6,
                  static_cast<double>(t.self_ns) / 1e6,
                  100.0 * static_cast<double>(t.self_ns) / wall);
    text += buf;
    layer_self[layer_of(name)] += t.self_ns;
    all_self += t.self_ns;
  }
  layer_self["(outside spans)"] = result.wall_ns - all_self;
  std::snprintf(buf, sizeof buf, "%-18s %12s %7s\n", "layer", "self_ms",
                "share");
  text += buf;
  for (const auto& [layer, ns] : layer_self) {
    std::snprintf(buf, sizeof buf, "%-18s %12.3f %6.1f%%\n", layer.c_str(),
                  static_cast<double>(ns) / 1e6,
                  100.0 * static_cast<double>(ns) / wall);
    text += buf;
  }
  return text;
}

}  // namespace tpbench
