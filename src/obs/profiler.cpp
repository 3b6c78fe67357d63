#include "src/obs/profiler.h"

#include <algorithm>
#include <iomanip>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>

#include "src/util/worker_context.h"

namespace tp::obs {

namespace {

/// Per-thread exit hook: mark the state dead and drop the thread_local
/// pointer.  The ThreadState itself stays alive in the profiler's
/// registry so its table survives into the next report.
struct ThreadHandle {
  std::shared_ptr<prof::ThreadState> state;
  ~ThreadHandle();
};

thread_local ThreadHandle t_handle;

/// Phase-context tokens for parallel_for worker adoption: a frozen copy
/// of the caller's path, installed as the workers' untimed base prefix.
struct ContextToken {
  i32 depth = 0;
  u64 hash = prof::kHashSeed;
  const char* tags[prof::kMaxPhaseDepth] = {};
};

struct BaseSave {
  i32 depth;
  u64 hash;
  const char* tags[prof::kMaxPhaseDepth];
};

void* ctx_capture() {
  if (!prof::phases_on()) return nullptr;
  prof::ThreadState& st = prof::state();
  const i32 frames = st.depth;
  if (st.base_depth + frames == 0) return nullptr;
  auto* token = new ContextToken;
  i32 n = 0;
  for (i32 i = 0; i < st.base_depth && n < prof::kMaxPhaseDepth; ++i)
    token->tags[n++] = st.base_tags[i];
  for (i32 i = 0; i < frames && n < prof::kMaxPhaseDepth; ++i)
    token->tags[n++] = st.frames[i].tag;
  token->depth = n;
  token->hash = frames > 0 ? st.frames[frames - 1].hash : st.base_hash;
  return token;
}

void* ctx_adopt(void* opaque) {
  auto* token = static_cast<ContextToken*>(opaque);
  prof::ThreadState& st = prof::state();
  auto* save = new BaseSave{st.base_depth, st.base_hash, {}};
  for (i32 i = 0; i < st.base_depth; ++i) save->tags[i] = st.base_tags[i];
  st.base_depth = token->depth;
  st.base_hash = token->hash;
  for (i32 i = 0; i < token->depth; ++i) st.base_tags[i] = token->tags[i];
  return save;
}

void ctx_restore(void* opaque) {
  auto* save = static_cast<BaseSave*>(opaque);
  prof::ThreadState& st = prof::state();
  st.base_depth = save->depth;
  st.base_hash = save->hash;
  for (i32 i = 0; i < save->depth; ++i) st.base_tags[i] = save->tags[i];
  delete save;
}

void ctx_release(void* opaque) { delete static_cast<ContextToken*>(opaque); }

constexpr PhaseContextHooks kHooks = {&ctx_capture, &ctx_adopt, &ctx_restore,
                                      &ctx_release};

std::string join_path(const std::vector<std::string>& path) {
  std::string out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i != 0) out += ';';
    out += path[i];
  }
  return out;
}

}  // namespace

namespace prof {

ThreadState& register_thread() {
  Profiler& p = profiler();
  auto st = std::make_shared<ThreadState>();
  {
    const MutexLock lock(p.mu_);
    p.states_.push_back(st);
  }
  t_handle.state = st;
  detail::t_state = st.get();
  return *st;
}

void unregister_thread(ThreadState& st) {
  Profiler& p = profiler();
  {
    const MutexLock lock(p.mu_);
    st.alive = false;
  }
  detail::t_state = nullptr;
}

}  // namespace prof

ThreadHandle::~ThreadHandle() {
  if (state != nullptr) prof::unregister_thread(*state);
}

double PhaseReport::coverage() const {
  if (wall_ns <= 0) return 0.0;
  i64 root_ns = 0;
  for (const PhaseRow& r : rows)
    if (r.path.size() == 1) root_ns += r.total_ns;
  double c = static_cast<double>(root_ns) / static_cast<double>(wall_ns);
  return c > 1.0 ? 1.0 : c;
}

void Profiler::start() {
  const MutexLock lock(mu_);
  epoch_ns_ = Stopwatch::now_ns();
  set_phase_context_hooks(&kHooks);
  prof::g_phases_on.store(true, std::memory_order_release);
}

void Profiler::stop() {
  prof::g_phases_on.store(false, std::memory_order_release);
}

PhaseReport Profiler::report() {
  const MutexLock lock(mu_);
  PhaseReport rep;
  rep.wall_ns = epoch_ns_ > 0 ? Stopwatch::now_ns() - epoch_ns_ : 0;

  std::map<std::string, PhaseRow> merged;
  for (const auto& st : states_) {
    bool contributed = false;
    for (const prof::PhaseSlot& s : st->slots) {
      if (!s.used.load(std::memory_order_acquire)) continue;
      const i64 calls = s.calls.load(std::memory_order_relaxed);
      if (calls == 0) continue;
      contributed = true;
      std::vector<std::string> path;
      path.reserve(static_cast<std::size_t>(s.path_len));
      for (i32 i = 0; i < s.path_len; ++i) path.emplace_back(s.tags[i]);
      PhaseRow& row = merged[join_path(path)];
      if (row.path.empty()) row.path = std::move(path);
      row.calls += calls;
      row.total_ns += s.total_ns.load(std::memory_order_relaxed);
      row.self_ns += s.self_ns.load(std::memory_order_relaxed);
    }
    if (contributed) ++rep.threads;
    rep.dropped_paths += st->dropped_paths;
    rep.depth_overflow += st->depth_overflow;
  }
  rep.rows.reserve(merged.size());
  for (auto& [key, row] : merged) rep.rows.push_back(std::move(row));
  std::sort(rep.rows.begin(), rep.rows.end(),
            [](const PhaseRow& a, const PhaseRow& b) {
              if (a.self_ns != b.self_ns) return a.self_ns > b.self_ns;
              return a.path < b.path;
            });
  return rep;
}

void Profiler::reset() {
  const MutexLock lock(mu_);
  // Drop states of exited threads entirely; clear the rest in place.
  // Contract: no instrumented work in flight (tables are single-writer).
  std::vector<std::shared_ptr<prof::ThreadState>> live;
  for (const auto& st : states_) {
    if (!st->alive) continue;
    live.push_back(st);
    for (prof::PhaseSlot& s : st->slots) {
      if (!s.used.load(std::memory_order_relaxed)) continue;
      s.calls.store(0, std::memory_order_relaxed);
      s.total_ns.store(0, std::memory_order_relaxed);
      s.self_ns.store(0, std::memory_order_relaxed);
    }
    st->dropped_paths = 0;
    st->depth_overflow = 0;
  }
  states_ = std::move(live);
  epoch_ns_ = Stopwatch::now_ns();
}

Profiler& profiler() {
  static Profiler instance;
  return instance;
}

void write_collapsed(const PhaseReport& report, std::ostream& out) {
  for (const PhaseRow& row : report.rows)
    out << join_path(row.path) << ' ' << std::max<i64>(row.self_ns / 1000, 1)
        << '\n';
}

std::string format_phase_table(const PhaseReport& report) {
  std::ostringstream out;
  const double wall =
      report.wall_ns > 0 ? static_cast<double>(report.wall_ns) : 1.0;
  out << std::setw(7) << "self%" << std::setw(8) << "total%"
      << std::setw(10) << "calls" << std::setw(13) << "ns/call"
      << std::setw(14) << "self_ns" << std::setw(14) << "total_ns"
      << "  path\n";
  for (const PhaseRow& row : report.rows) {
    out << std::fixed << std::setprecision(1) << std::setw(6)
        << 100.0 * static_cast<double>(row.self_ns) / wall << '%'
        << std::setw(7)
        << 100.0 * static_cast<double>(row.total_ns) / wall << '%'
        << std::setw(10) << row.calls << std::setw(13)
        << (row.calls > 0 ? row.total_ns / row.calls : 0) << std::setw(14)
        << row.self_ns << std::setw(14) << row.total_ns << "  "
        << join_path(row.path) << '\n';
  }
  out << std::setprecision(1)
      << "wall " << static_cast<double>(report.wall_ns) / 1e6 << " ms, "
      << "coverage " << 100.0 * report.coverage() << "%, " << report.threads
      << " thread(s)";
  if (report.dropped_paths > 0)
    out << ", " << report.dropped_paths << " paths dropped";
  if (report.depth_overflow > 0)
    out << ", " << report.depth_overflow << " over-depth pushes";
  out << '\n';
  return out.str();
}

JsonValue profiler_status_json() {
  Profiler& p = profiler();
  const PhaseReport rep = p.report();
  JsonValue doc = JsonValue::object();
  doc.set("enabled", p.enabled());
  doc.set("paths", JsonValue(static_cast<i64>(rep.rows.size())));
  return doc;
}

}  // namespace tp::obs
