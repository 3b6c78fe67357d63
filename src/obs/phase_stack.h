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
// Async-signal-safety: the SIGPROF sampling handler (profiler.cpp) runs
// on the interrupted thread itself and only reads the frame the push
// already completed: pushes publish the frame's slot index before the
// release-store of depth, pops retract depth before touching the frame,
// and sample counts land in atomics.  Nothing here takes a lock or
// allocates on the push/pop path after thread registration.
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
/// Per-thread SIGPROF sample ring capacity (power of two).
constexpr u32 kSampleRingSlots = 8192;
constexpr u32 kNoSlot = 0xffffffffu;

/// Profiling mode bits in g_modes.
constexpr u32 kPhaseBit = 1u;   ///< phase attribution (push/pop active)
constexpr u32 kSampleBit = 2u;  ///< SIGPROF sampling

inline std::atomic<u32> g_modes{0};
/// Bumped by every Profiler::start so threads re-arm their samplers.
inline std::atomic<u64> g_sample_epoch{0};

inline bool phases_on() {
  return (g_modes.load(std::memory_order_relaxed) & kPhaseBit) != 0;
}

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
/// non-RMW stores — no lock prefix on the hot path).  `samples` is the
/// exception: the SIGPROF handler increments it, but the handler runs on
/// the owning thread, so it is still single-writer.
struct PhaseSlot {
  std::atomic<bool> used{false};  ///< release-set after tags are written
  u64 hash = 0;
  i32 path_len = 0;
  const char* tags[kMaxPathLen] = {};
  std::atomic<i64> calls{0};
  std::atomic<i64> total_ns{0};
  std::atomic<i64> self_ns{0};
  std::atomic<i64> samples{0};
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
  // Live stack.  depth is stored release after the frame is complete and
  // retracted before a popped frame is reused, so the SIGPROF handler
  // (same thread) always sees a consistent prefix.
  std::atomic<i32> depth{0};
  i32 skip = 0;  ///< pushes dropped past kMaxPhaseDepth (pop unwinds)
  Frame frames[kMaxPhaseDepth];

  // Adopted base prefix (parallel_for workers): part of every path, never
  // timed on this thread.
  i32 base_depth = 0;
  u64 base_hash = kHashSeed;
  const char* base_tags[kMaxPhaseDepth] = {};
  u32 base_slot = kNoSlot;  ///< slot for the base path itself (samples
                            ///< landing between frames attribute here)
  u32 idle_slot = kNoSlot;  ///< "(unattributed)" slot, set when sampling

  PhaseSlot slots[kPhaseTableSlots];
  i64 dropped_paths = 0;
  i64 depth_overflow = 0;

  // SIGPROF sample ring: the handler produces, the report thread
  // consumes.  Indices are free-running; slot kNoSlot entries never
  // enqueue.
  struct Sample {
    i64 ts_ns;
    u32 slot;
  };
  Sample ring[kSampleRingSlots];
  std::atomic<u32> ring_head{0};
  std::atomic<u32> ring_tail{0};
  std::atomic<i64> dropped_samples{0};

  // Sampler, owned by this thread.
  u64 sample_epoch = 0;  ///< last g_sample_epoch this thread armed for
  bool timer_armed = false;
  void* timer = nullptr;  ///< timer_t, opaque here (POSIX types stay out
                          ///< of this header)
  i64 tid = 0;            ///< dense id for trace sample lanes
  std::atomic<bool> alive{true};
};

namespace detail {
inline thread_local ThreadState* t_state = nullptr;
}  // namespace detail

/// Registers the calling thread with the profiler (profiler.cpp): creates
/// its ThreadState, parks it in the global registry, and installs the
/// thread_local pointer + exit hook.
ThreadState& register_thread();

/// Thread-exit cleanup (called by the thread_local handle's destructor):
/// disarms the sampler; the table stays registered for later reports.
void unregister_thread(ThreadState& st);

/// Lazily arms this thread's SIGPROF sampler for the current epoch.
void arm_sampler(ThreadState& st);

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
    if (tag != nullptr && n < kMaxPathLen) s.tags[n++] = tag;
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
  if ((g_modes.load(std::memory_order_relaxed) & kSampleBit) != 0 &&
      st.sample_epoch != g_sample_epoch.load(std::memory_order_relaxed))
    arm_sampler(st);
  const i32 d = st.depth.load(std::memory_order_relaxed);
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
  st.depth.store(d + 1, std::memory_order_release);
  return true;
}

/// Pops the current phase and accumulates into its slot.  Runs regardless
/// of the mode bits so stacks stay balanced across enable/disable.
inline void phase_pop() {
  ThreadState& st = state();
  if (st.skip > 0) {
    --st.skip;
    return;
  }
  const i32 d = st.depth.load(std::memory_order_relaxed) - 1;
  if (d < 0) return;
  const i64 end_ns = Stopwatch::now_ns();
  Frame& f = st.frames[d];
  st.depth.store(d, std::memory_order_release);
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
