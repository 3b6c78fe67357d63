#include "src/service/admin.h"

#include <string>
#include <utility>
#include <vector>

#include "src/obs/export.h"
#include "src/obs/profiler.h"
#include "src/obs/prometheus.h"
#include "src/obs/registry.h"
#include "src/util/build_info.h"
#include "src/util/error.h"

namespace tp::service {

namespace {

constexpr const char* kAdminOps[] = {"statusz", "metricsz", "cachez", "slowz",
                                     "quitz"};

bool is_admin_name(const std::string& op) {
  for (const char* name : kAdminOps)
    if (op == name) return true;
  return false;
}

/// Admin requests accept only {id, op} plus "format" on metricsz.
void check_members(const obs::JsonValue& doc, const std::string& op) {
  for (const auto& [key, value] : doc.members()) {
    if (key == "id" || key == "op") continue;
    if (key == "format" && op == "metricsz") continue;
    throw Error("unknown admin request field '" + key + "'");
  }
}

obs::JsonValue admin_header(const obs::JsonValue& id, const std::string& op) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("id", id);
  out.set("ok", obs::JsonValue(true));
  out.set("op", obs::JsonValue(op));
  return out;
}

obs::JsonValue span_to_json(const RequestSpan& span) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("request_id", obs::JsonValue(span.request_id));
  out.set("key", obs::JsonValue(span.key.str()));
  out.set("outcome", obs::JsonValue(span_outcome_name(span.outcome)));
  out.set("total_us", obs::JsonValue(span.total_us));
  out.set("queue_us", obs::JsonValue(span.queue_us));
  out.set("compute_us", obs::JsonValue(span.compute_us));
  out.set("fanin", obs::JsonValue(span.fanin));
  out.set("shard", obs::JsonValue(span.shard));
  if (span.has_deadline)
    out.set("deadline_margin_us", obs::JsonValue(span.deadline_margin_us));
  return out;
}

/// Durability state shared by statusz and cachez.  Always present (the
/// goldens pin member order), "configured": false when the engine runs
/// without a snapshot path.  age_ms is since the last successful save
/// (-1 before the first); load/save outcomes carry the structured error
/// text when a snapshot was refused (docs/durability.md).
obs::JsonValue snapshot_to_json(Engine& engine) {
  const SnapshotStatus snap = engine.snapshot_status();
  obs::JsonValue out = obs::JsonValue::object();
  out.set("configured", obs::JsonValue(snap.configured));
  out.set("load_outcome", obs::JsonValue(snap.load_outcome));
  out.set("warm_entries", obs::JsonValue(snap.warm_entries));
  out.set("saves", obs::JsonValue(snap.saves));
  out.set("save_failures", obs::JsonValue(snap.save_failures));
  out.set("last_save_outcome", obs::JsonValue(snap.last_save_outcome));
  out.set("last_save_entries", obs::JsonValue(snap.last_save_entries));
  out.set("age_ms", obs::JsonValue(snap.last_save_ms < 0
                                       ? i64{-1}
                                       : engine.uptime_ms() -
                                             snap.last_save_ms));
  return out;
}

/// Listener state for statusz.  Always present (the golden pins member
/// order); "configured": false with state "none" when no network
/// front-end is running (stdio/batch).
obs::JsonValue listener_to_json(const ListenerStatus& listener) {
  obs::JsonValue out = obs::JsonValue::object();
  out.set("configured", obs::JsonValue(listener.configured));
  out.set("address", obs::JsonValue(listener.address));
  out.set("state", obs::JsonValue(listener.state));
  out.set("open_connections", obs::JsonValue(listener.open_connections));
  out.set("draining_connections",
          obs::JsonValue(listener.draining_connections));
  out.set("accepted", obs::JsonValue(listener.accepted));
  out.set("rejected", obs::JsonValue(listener.rejected));
  return out;
}

obs::JsonValue statusz(Engine& engine, const obs::JsonValue& id,
                       const ListenerStatus& listener) {
  const BuildInfo& build = build_info();
  const EngineStats stats = engine.stats();
  const ServiceRates rates = engine.rates();

  obs::JsonValue out = admin_header(id, "statusz");
  out.set("uptime_ms", obs::JsonValue(engine.uptime_ms()));
  out.set("version", obs::JsonValue(build.version));
  out.set("git", obs::JsonValue(build.git_describe));
  out.set("compiler", obs::JsonValue(build.compiler));
  out.set("build_type", obs::JsonValue(build.build_type));

  const std::vector<std::string> worker_states = engine.worker_states();
  obs::JsonValue eng = obs::JsonValue::object();
  eng.set("pool_threads", obs::JsonValue(static_cast<i64>(worker_states.size())));
  eng.set("queue_depth", obs::JsonValue(stats.queue_depth));
  eng.set("queue_capacity",
          obs::JsonValue(static_cast<i64>(engine.config().queue_capacity)));
  eng.set("inflight", obs::JsonValue(stats.inflight));
  obs::JsonValue workers = obs::JsonValue::array();
  for (const std::string& state : worker_states)
    workers.push_back(obs::JsonValue(state));
  eng.set("workers", std::move(workers));
  out.set("engine", std::move(eng));

  obs::JsonValue rj = obs::JsonValue::object();
  rj.set("qps_1s", obs::JsonValue(rates.qps_1s));
  rj.set("qps_10s", obs::JsonValue(rates.qps_10s));
  rj.set("qps_60s", obs::JsonValue(rates.qps_60s));
  rj.set("hit_ratio_60s", obs::JsonValue(rates.hit_ratio_60s));
  rj.set("p50_us_10s", obs::JsonValue(rates.p50_us_10s));
  rj.set("p99_us_10s", obs::JsonValue(rates.p99_us_10s));
  out.set("rates", std::move(rj));

  obs::JsonValue totals = obs::JsonValue::object();
  totals.set("requests", obs::JsonValue(stats.requests));
  totals.set("completed", obs::JsonValue(stats.completed));
  totals.set("cache_hits", obs::JsonValue(stats.cache_hits));
  totals.set("coalesced", obs::JsonValue(stats.coalesced));
  totals.set("plans_computed", obs::JsonValue(stats.plans_computed));
  totals.set("timeouts", obs::JsonValue(stats.timeouts));
  totals.set("errors", obs::JsonValue(stats.errors));
  out.set("totals", std::move(totals));
  out.set("snapshot", snapshot_to_json(engine));
  out.set("listener", listener_to_json(listener));
  // Present only while the in-process profiler is on, so default statusz
  // output (and its golden member-order test) is byte-identical to a
  // build without profiling.
  if (obs::profiler().enabled())
    out.set("profiler", obs::profiler_status_json());
  return out;
}

obs::JsonValue metricsz(Engine& engine, const obs::JsonValue& doc,
                        const obs::JsonValue& id) {
  std::string format = "json";
  if (const obs::JsonValue* f = doc.find("format")) {
    format = f->as_string();
    TP_REQUIRE(format == "json" || format == "prometheus",
               "metricsz 'format' must be \"json\" or \"prometheus\"");
  }
  // Fold the engine's private counters/histograms into the registry so
  // the snapshot is current as of this request (no-op when the registry
  // is disabled; the response then reports whatever is registered, which
  // is nothing).
  engine.publish_stats();
  const obs::MetricsSnapshot snap = obs::registry().snapshot();

  obs::JsonValue out = admin_header(id, "metricsz");
  out.set("format", obs::JsonValue(format));
  if (format == "prometheus")
    out.set("text", obs::JsonValue(obs::prometheus_text(snap)));
  else
    out.set("metrics", obs::snapshot_to_json(snap));
  // Same contract as statusz: profiler state appears only while it is on.
  if (obs::profiler().enabled())
    out.set("profiler", obs::profiler_status_json());
  return out;
}

obs::JsonValue cachez(Engine& engine, const obs::JsonValue& id) {
  const PlanCache& cache = engine.cache();

  obs::JsonValue out = admin_header(id, "cachez");
  out.set("capacity",
          obs::JsonValue(static_cast<i64>(cache.per_shard_capacity() *
                                          cache.num_shards())));
  out.set("entries", obs::JsonValue(static_cast<i64>(cache.size())));
  obs::JsonValue shards = obs::JsonValue::array();
  const std::vector<PlanCache::Stats> per_shard = cache.shard_stats();
  for (std::size_t i = 0; i < per_shard.size(); ++i) {
    obs::JsonValue row = obs::JsonValue::object();
    row.set("shard", obs::JsonValue(static_cast<i64>(i)));
    row.set("entries", obs::JsonValue(per_shard[i].entries));
    row.set("hits", obs::JsonValue(per_shard[i].hits));
    row.set("misses", obs::JsonValue(per_shard[i].misses));
    row.set("evictions", obs::JsonValue(per_shard[i].evictions));
    shards.push_back(std::move(row));
  }
  out.set("shards", std::move(shards));
  out.set("age_us", obs::histogram_to_json(cache.age_histogram()));
  out.set("snapshot", snapshot_to_json(engine));
  return out;
}

obs::JsonValue slowz(Engine& engine, const obs::JsonValue& id) {
  obs::JsonValue out = admin_header(id, "slowz");
  obs::JsonValue slow = obs::JsonValue::array();
  for (const RequestSpan& span : engine.slowest_requests())
    slow.push_back(span_to_json(span));
  out.set("slowest", std::move(slow));
  obs::JsonValue failed = obs::JsonValue::array();
  for (const RequestSpan& span : engine.recent_failures())
    failed.push_back(span_to_json(span));
  out.set("failed", std::move(failed));
  return out;
}

}  // namespace

bool is_admin_op(const obs::JsonValue& doc) {
  if (!doc.is_object()) return false;
  const obs::JsonValue* op = doc.find("op");
  return op != nullptr && op->is_string() && is_admin_name(op->as_string());
}

obs::JsonValue handle_admin(Engine& engine, const obs::JsonValue& doc,
                            const obs::JsonValue& id, bool* quit,
                            const ListenerStatus& listener) {
  const std::string& op = doc.find("op")->as_string();
  check_members(doc, op);
  if (op == "statusz") return statusz(engine, id, listener);
  if (op == "metricsz") return metricsz(engine, doc, id);
  if (op == "cachez") return cachez(engine, id);
  if (op == "slowz") return slowz(engine, id);
  TP_ASSERT(op == "quitz", "unhandled admin op");
  if (quit != nullptr) *quit = true;
  obs::JsonValue out = admin_header(id, "quitz");
  out.set("draining", obs::JsonValue(true));
  return out;
}

}  // namespace tp::service
