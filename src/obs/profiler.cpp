#include "src/obs/profiler.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <iomanip>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>

#ifdef __linux__
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>
#endif

#include "src/util/worker_context.h"

#if defined(__linux__) && !defined(sigev_notify_thread_id)
#define sigev_notify_thread_id _sigev_un._tid
#endif
#if defined(__linux__) && !defined(SIGEV_THREAD_ID)
#define SIGEV_THREAD_ID 4
#endif

namespace tp::obs {

namespace {

constexpr const char* kUnattributed = "(unattributed)";

/// The SIGPROF handler: attribute one sample to the interrupted thread's
/// current phase path.  Runs on the interrupted thread itself (the timer
/// targets a specific tid), so frame reads are same-thread; everything
/// it touches is an atomic or handler-owned, and errno is preserved.
void sigprof_handler(int /*signo*/) {
  const int saved_errno = errno;
  prof::ThreadState* st = prof::detail::t_state;
  if (st != nullptr &&
      (prof::g_modes.load(std::memory_order_relaxed) & prof::kSampleBit) !=
          0) {
    const i32 d = st->depth.load(std::memory_order_acquire);
    prof::u32 slot;
    if (d > 0)
      slot = st->frames[d - 1].slot;
    else
      slot = st->base_depth > 0 ? st->base_slot : st->idle_slot;
    if (slot != prof::kNoSlot) {
      st->slots[slot].samples.fetch_add(1, std::memory_order_relaxed);
      const prof::u32 head = st->ring_head.load(std::memory_order_relaxed);
      const prof::u32 tail = st->ring_tail.load(std::memory_order_relaxed);
      if (head - tail >= prof::kSampleRingSlots) {
        st->dropped_samples.fetch_add(1, std::memory_order_relaxed);
      } else {
        prof::ThreadState::Sample& s =
            st->ring[head & (prof::kSampleRingSlots - 1)];
        s.ts_ns = Stopwatch::now_ns();
        s.slot = slot;
        st->ring_head.store(head + 1, std::memory_order_release);
      }
    } else {
      st->dropped_samples.fetch_add(1, std::memory_order_relaxed);
    }
  }
  errno = saved_errno;
}

#ifdef __linux__

/// Creates and arms this thread's CLOCK_THREAD_CPUTIME_ID SIGPROF timer.
/// Returns false when the host lacks per-thread cputime timers.
bool create_thread_timer(prof::ThreadState& st, i64 interval_us) {
  sigevent sev{};
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev.sigev_notify_thread_id =
      static_cast<pid_t>(syscall(SYS_gettid));
  timer_t t{};
  if (timer_create(CLOCK_THREAD_CPUTIME_ID, &sev, &t) != 0) return false;
  itimerspec spec{};
  spec.it_interval.tv_sec = interval_us / 1000000;
  spec.it_interval.tv_nsec = (interval_us % 1000000) * 1000;
  spec.it_value = spec.it_interval;
  if (timer_settime(t, 0, &spec, nullptr) != 0) {
    timer_delete(t);
    return false;
  }
  st.timer = new timer_t(t);
  return true;
}

void delete_thread_timer(prof::ThreadState& st) {
  if (st.timer == nullptr) return;
  timer_t* t = static_cast<timer_t*>(st.timer);
  timer_delete(*t);
  delete t;
  st.timer = nullptr;
}

#else

bool create_thread_timer(prof::ThreadState&, i64) { return false; }
void delete_thread_timer(prof::ThreadState&) {}

#endif

/// Per-thread exit hook: disarm the sampler and drop the thread_local
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
  prof::u32 slot;
  const char* tags[prof::kMaxPhaseDepth];
};

void* ctx_capture() {
  if (!prof::phases_on()) return nullptr;
  prof::ThreadState& st = prof::state();
  const i32 frames = st.depth.load(std::memory_order_relaxed);
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
  auto* save = new BaseSave{st.base_depth, st.base_hash, st.base_slot, {}};
  for (i32 i = 0; i < st.base_depth; ++i) save->tags[i] = st.base_tags[i];
  st.base_depth = token->depth;
  st.base_hash = token->hash;
  for (i32 i = 0; i < token->depth; ++i) st.base_tags[i] = token->tags[i];
  // Slot for the base path itself: depth-0 samples on this worker belong
  // to the phase the caller was in.
  st.base_slot = prof::find_or_insert(st, st.base_hash, 0, nullptr);
  return save;
}

void ctx_restore(void* opaque) {
  auto* save = static_cast<BaseSave*>(opaque);
  prof::ThreadState& st = prof::state();
  st.base_depth = save->depth;
  st.base_hash = save->hash;
  st.base_slot = save->slot;
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
    st->tid = ++p.next_tid_;
    p.states_.push_back(st);
  }
  t_handle.state = st;
  detail::t_state = st.get();
  return *st;
}

void arm_sampler(ThreadState& st) {
  Profiler& p = profiler();
  const MutexLock lock(p.mu_);
  // Re-check under the lock: stop() clears the bit and deletes timers
  // while holding mu_, so no timer outlives a stop.
  if ((g_modes.load(std::memory_order_relaxed) & kSampleBit) == 0) return;
  st.sample_epoch = g_sample_epoch.load(std::memory_order_relaxed);
  if (st.base_depth == 0 && st.idle_slot == kNoSlot)
    st.idle_slot =
        find_or_insert(st, mix_hash(st.base_hash, ct_hash(kUnattributed)), 0,
                       kUnattributed);
  if (!st.timer_armed)
    st.timer_armed = create_thread_timer(st, p.config_.sample_interval_us);
}

void unregister_thread(ThreadState& st) {
  Profiler& p = profiler();
  {
    const MutexLock lock(p.mu_);
    delete_thread_timer(st);
    st.timer_armed = false;
    st.alive.store(false, std::memory_order_release);
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
    if (r.path.size() == 1 && r.path[0] != kUnattributed)
      root_ns += r.total_ns;
  double c = static_cast<double>(root_ns) / static_cast<double>(wall_ns);
  return c > 1.0 ? 1.0 : c;
}

void Profiler::start(const ProfilerConfig& config) {
  const MutexLock lock(mu_);
  config_ = config;
  epoch_ns_ = Stopwatch::now_ns();
  prof::u32 modes = prof::kPhaseBit;
  if (config.sampling) {
    if (!handler_installed_) {
#ifdef __linux__
      struct sigaction sa {};
      sa.sa_handler = &sigprof_handler;
      sa.sa_flags = SA_RESTART;
      sigemptyset(&sa.sa_mask);
      sigaction(SIGPROF, &sa, nullptr);
      handler_installed_ = true;
#endif
    }
    if (handler_installed_) {
      modes |= prof::kSampleBit;
      prof::g_sample_epoch.fetch_add(1, std::memory_order_relaxed);
    }
  }
  set_phase_context_hooks(&kHooks);
  prof::g_modes.store(modes, std::memory_order_release);
}

void Profiler::stop() {
  const MutexLock lock(mu_);
  prof::g_modes.store(0, std::memory_order_release);
  for (const auto& st : states_) {
    if (!st->timer_armed) continue;
    delete_thread_timer(*st);
    st->timer_armed = false;
  }
}

bool Profiler::sampling_enabled() const {
  return (prof::g_modes.load(std::memory_order_relaxed) &
          prof::kSampleBit) != 0;
}

PhaseReport Profiler::report() {
  const MutexLock lock(mu_);
  PhaseReport rep;
  rep.sampling = config_.sampling;
  rep.wall_ns = epoch_ns_ > 0 ? Stopwatch::now_ns() - epoch_ns_ : 0;

  std::map<std::string, PhaseRow> merged;
  for (const auto& st : states_) {
    bool contributed = false;
    for (const prof::PhaseSlot& s : st->slots) {
      if (!s.used.load(std::memory_order_acquire)) continue;
      std::vector<std::string> path;
      path.reserve(static_cast<std::size_t>(s.path_len));
      for (i32 i = 0; i < s.path_len; ++i) path.emplace_back(s.tags[i]);
      if (path.empty()) continue;
      const i64 calls = s.calls.load(std::memory_order_relaxed);
      const i64 samples = s.samples.load(std::memory_order_relaxed);
      if (calls == 0 && samples == 0) continue;
      contributed = true;
      PhaseRow& row = merged[join_path(path)];
      if (row.path.empty()) row.path = std::move(path);
      row.calls += calls;
      row.total_ns += s.total_ns.load(std::memory_order_relaxed);
      row.self_ns += s.self_ns.load(std::memory_order_relaxed);
      row.samples += samples;
    }
    if (contributed) ++rep.threads;
    rep.dropped_samples +=
        st->dropped_samples.load(std::memory_order_relaxed);
    rep.dropped_paths += st->dropped_paths;
    rep.depth_overflow += st->depth_overflow;
  }
  rep.rows.reserve(merged.size());
  for (auto& [key, row] : merged) {
    rep.total_samples += row.samples;
    rep.rows.push_back(std::move(row));
  }
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
    if (!st->alive.load(std::memory_order_acquire)) continue;
    live.push_back(st);
    for (prof::PhaseSlot& s : st->slots) {
      if (!s.used.load(std::memory_order_relaxed)) continue;
      s.calls.store(0, std::memory_order_relaxed);
      s.total_ns.store(0, std::memory_order_relaxed);
      s.self_ns.store(0, std::memory_order_relaxed);
      s.samples.store(0, std::memory_order_relaxed);
    }
    st->ring_tail.store(st->ring_head.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    st->dropped_samples.store(0, std::memory_order_relaxed);
    st->dropped_paths = 0;
    st->depth_overflow = 0;
  }
  states_ = std::move(live);
  epoch_ns_ = Stopwatch::now_ns();
}

void Profiler::emit_samples(Tracer& tracer) {
  if (!tracer.enabled()) return;
  const MutexLock lock(mu_);
  for (const auto& st : states_) {
    const prof::u32 head = st->ring_head.load(std::memory_order_acquire);
    prof::u32 tail = st->ring_tail.load(std::memory_order_relaxed);
    for (; tail != head; ++tail) {
      const prof::ThreadState::Sample& s =
          st->ring[tail & (prof::kSampleRingSlots - 1)];
      if (s.slot == prof::kNoSlot) continue;
      const prof::PhaseSlot& slot = st->slots[s.slot];
      const i32 leaf = slot.path_len - 1;
      if (leaf < 0) continue;
      // Sample lanes sit at tid 1000+ so they don't collide with the
      // tracer's own per-thread lanes.
      tracer.sample(slot.tags[leaf], s.ts_ns, 1000 + st->tid);
    }
    st->ring_tail.store(head, std::memory_order_relaxed);
  }
}

Profiler& profiler() {
  static Profiler instance;
  return instance;
}

void write_collapsed(const PhaseReport& report, std::ostream& out) {
  const bool by_samples = report.total_samples > 0;
  for (const PhaseRow& row : report.rows) {
    i64 weight;
    if (by_samples) {
      weight = row.samples;
      if (weight == 0) continue;
    } else {
      weight = row.self_ns / 1000;
      if (weight < 1) weight = 1;
    }
    out << join_path(row.path) << ' ' << weight << '\n';
  }
}

std::string format_phase_table(const PhaseReport& report) {
  std::ostringstream out;
  const double wall =
      report.wall_ns > 0 ? static_cast<double>(report.wall_ns) : 1.0;
  out << std::setw(7) << "self%" << std::setw(8) << "total%"
      << std::setw(10) << "calls" << std::setw(13) << "ns/call"
      << std::setw(14) << "self_ns" << std::setw(14) << "total_ns";
  if (report.total_samples > 0) out << std::setw(9) << "samples";
  out << "  path\n";
  for (const PhaseRow& row : report.rows) {
    out << std::fixed << std::setprecision(1) << std::setw(6)
        << 100.0 * static_cast<double>(row.self_ns) / wall << '%'
        << std::setw(7)
        << 100.0 * static_cast<double>(row.total_ns) / wall << '%'
        << std::setw(10) << row.calls << std::setw(13)
        << (row.calls > 0 ? row.total_ns / row.calls : 0) << std::setw(14)
        << row.self_ns << std::setw(14) << row.total_ns;
    if (report.total_samples > 0) out << std::setw(9) << row.samples;
    out << "  " << join_path(row.path) << '\n';
  }
  out << std::setprecision(1)
      << "wall " << static_cast<double>(report.wall_ns) / 1e6 << " ms, "
      << "coverage " << 100.0 * report.coverage() << "%, " << report.threads
      << " thread(s), " << report.total_samples << " samples";
  if (report.dropped_samples > 0)
    out << " (" << report.dropped_samples << " dropped)";
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
  doc.set("sampling", p.sampling_enabled());
  doc.set("paths", JsonValue(static_cast<i64>(rep.rows.size())));
  doc.set("samples", rep.total_samples);
  return doc;
}

}  // namespace tp::obs
