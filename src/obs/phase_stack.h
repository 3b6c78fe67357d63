// Phase-attribution core: thread-local phase stacks and per-thread
// accumulation tables.
//
// Every instrumented region (TP_OBS_SCOPE / TP_PROF_PHASE) pushes a tag
// onto the calling thread's phase stack when profiling is enabled.  The
// pop accumulates exclusive (self) and inclusive (total) wall-ns into a
// per-thread open-addressed table keyed by the *path* (the full stack of
// tags), so "load.odr called from plan.measure" and "load.odr called
// from a benchmark" are distinct rows.  Tables are single-writer (the owning
// thread); the profiler merges them across threads at report time
// (profiler.h), matching the registry's single-writer philosophy without
// its pool-worker gate — pool workers DO profile, because kernels are
// exactly what we want attributed.
//
// Thread-count invariance: parallel_for_blocks captures the caller's
// phase path and spawned workers adopt it as an untimed base prefix
// (worker_context.h hooks), so a phase pushed inside a worker reports the
// same path as the caller-inline block.  Base frames are never timed on
// the worker (the caller already owns that time), which keeps calls and
// paths — though not nanoseconds, which genuinely differ — identical
// across thread counts.
//
// Nothing here takes a lock or allocates on the push/pop path after
// thread registration.
//
// Cost when disabled: one relaxed atomic load and a predicted branch per
// scope (same pattern as the null LinkProbe) — verified by the benchstat
// gates on odr_loads/service_warm_hit.
//
// Phase tags must be string literals (or otherwise immortal): tables
// store the pointers.  obs::PhaseName (obs.h) accepts only constants.

#pragma once

#include <atomic>
#include <cstdint>

#include "src/obs/timer.h"
#include "src/util/math.h"

namespace tp::obs::prof {

using u32 = std::uint32_t;

/// Maximum live (timed) stack depth per thread; deeper pushes are counted
/// in depth_overflow and attributed to the parent.
constexpr i32 kMaxPhaseDepth = 16;
/// Maximum path length (adopted base prefix + live frames).
constexpr i32 kMaxPathLen = 2 * kMaxPhaseDepth;
/// Per-thread path table size (power of two) and probe bound.
constexpr u32 kPhaseTableSlots = 512;
constexpr u32 kPhaseProbeLimit = 64;
constexpr u32 kNoSlot = 0xffffffffu;

/// True while the profiler runs (push/pop active); set by Profiler::start
/// and cleared by Profiler::stop.
inline std::atomic<bool> g_phases_on{false};

inline bool phases_on() { return g_phases_on.load(std::memory_order_relaxed); }

/// Compile-time FNV-1a over a string literal (path tags hash by content,
/// so the same name from different translation units merges).
constexpr u64 kHashSeed = 1469598103934665603ull;
constexpr u64 ct_hash(const char* s) {
  u64 h = kHashSeed;
  while (*s != '\0') {
    h ^= static_cast<unsigned char>(*s++);
    h *= 1099511628211ull;
  }
  return h;
}

/// Mixes a parent path hash with a tag hash into a child path hash.
constexpr u64 mix_hash(u64 parent, u64 tag) {
  const u64 h =
      parent ^ (tag + 0x9e3779b97f4a7c15ull + (parent << 6) + (parent >> 2));
  return h == 0 ? 1 : h;
}

/// One accumulated row: a unique phase path observed on this thread.
/// Scalar fields are written by the owning thread only; they are atomics
/// so the report thread may read them concurrently (single-writer
/// non-RMW stores — no lock prefix on the hot path).
struct PhaseSlot {
  std::atomic<bool> used{false};  ///< release-set after tags are written
  u64 hash = 0;
  i32 path_len = 0;
  const char* tags[kMaxPathLen] = {};
  std::atomic<i64> calls{0};
  std::atomic<i64> total_ns{0};
  std::atomic<i64> self_ns{0};
};

/// One live stack entry.
struct Frame {
  const char* tag = nullptr;
  u64 hash = 0;
  u32 slot = kNoSlot;
  i64 start_ns = 0;
  i64 child_ns = 0;
};

/// Everything the profiler knows about one thread.  Owned via shared_ptr
/// by both the thread (thread_local handle) and the global state registry
/// (profiler.cpp), so tables survive thread exit until the next reset.
struct ThreadState {
  // Live stack, touched by the owning thread only.
  i32 depth = 0;
  i32 skip = 0;  ///< pushes dropped past kMaxPhaseDepth (pop unwinds)
  Frame frames[kMaxPhaseDepth];

  // Adopted base prefix (parallel_for workers): part of every path, never
  // timed on this thread.
  i32 base_depth = 0;
  u64 base_hash = kHashSeed;
  const char* base_tags[kMaxPhaseDepth] = {};

  PhaseSlot slots[kPhaseTableSlots];
  i64 dropped_paths = 0;
  i64 depth_overflow = 0;
  bool alive = true;  ///< cleared at thread exit; guarded by the
                      ///< profiler's mutex
};

namespace detail {
inline thread_local ThreadState* t_state = nullptr;
}  // namespace detail

/// Registers the calling thread with the profiler (profiler.cpp): creates
/// its ThreadState, parks it in the global registry, and installs the
/// thread_local pointer + exit hook.
ThreadState& register_thread();

/// Thread-exit cleanup (called by the thread_local handle's destructor):
/// marks the state dead; the table stays registered for later reports.
void unregister_thread(ThreadState& st);

inline ThreadState& state() {
  ThreadState* st = detail::t_state;
  return st != nullptr ? *st : register_thread();
}

/// Finds or inserts the slot for `hash`; the path is the thread's base
/// prefix + live frames below `frame_depth` + `tag`.  Returns kNoSlot
/// (and counts a dropped path) when the table is saturated.
inline u32 find_or_insert(ThreadState& st, u64 hash, i32 frame_depth,
                          const char* tag) {
  constexpr u32 mask = kPhaseTableSlots - 1;
  u32 idx = static_cast<u32>(hash) & mask;
  for (u32 probe = 0; probe < kPhaseProbeLimit; ++probe) {
    PhaseSlot& s = st.slots[idx];
    if (s.used.load(std::memory_order_relaxed)) {
      if (s.hash == hash) return idx;
      idx = (idx + 1) & mask;
      continue;
    }
    s.hash = hash;
    i32 n = 0;
    for (i32 i = 0; i < st.base_depth && n < kMaxPathLen; ++i)
      s.tags[n++] = st.base_tags[i];
    for (i32 i = 0; i < frame_depth && n < kMaxPathLen; ++i)
      s.tags[n++] = st.frames[i].tag;
    if (n < kMaxPathLen) s.tags[n++] = tag;
    s.path_len = n;
    s.used.store(true, std::memory_order_release);
    return idx;
  }
  ++st.dropped_paths;
  return kNoSlot;
}

/// Single-writer add on a reporter-visible atomic (plain add, no RMW).
inline void slot_add(std::atomic<i64>& a, i64 v) {
  a.store(a.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
}

/// Pushes a phase.  Returns true iff a matching phase_pop is owed (always,
/// once the mode check passed — overflowed pushes are tracked in `skip`
/// so pops stay balanced even if the profiler stops mid-scope).
inline bool phase_push(const char* tag, u64 tag_hash) {
  ThreadState& st = state();
  const i32 d = st.depth;
  if (st.skip > 0 || d >= kMaxPhaseDepth) {
    ++st.skip;
    ++st.depth_overflow;
    return true;
  }
  Frame& f = st.frames[d];
  f.tag = tag;
  const u64 parent = d > 0 ? st.frames[d - 1].hash : st.base_hash;
  f.hash = mix_hash(parent, tag_hash);
  f.slot = find_or_insert(st, f.hash, d, tag);
  f.child_ns = 0;
  f.start_ns = Stopwatch::now_ns();
  st.depth = d + 1;
  return true;
}

/// Pops the current phase and accumulates into its slot.  Runs whether or
/// not the profiler is on, so stacks stay balanced across start/stop.
inline void phase_pop() {
  ThreadState& st = state();
  if (st.skip > 0) {
    --st.skip;
    return;
  }
  const i32 d = st.depth - 1;
  if (d < 0) return;
  const i64 end_ns = Stopwatch::now_ns();
  Frame& f = st.frames[d];
  st.depth = d;
  const i64 elapsed = end_ns - f.start_ns;
  i64 self = elapsed - f.child_ns;
  if (self < 0) self = 0;
  if (d > 0) st.frames[d - 1].child_ns += elapsed;
  if (f.slot == kNoSlot) return;
  PhaseSlot& s = st.slots[f.slot];
  slot_add(s.calls, 1);
  slot_add(s.total_ns, elapsed);
  slot_add(s.self_ns, self);
}

}  // namespace tp::obs::prof
