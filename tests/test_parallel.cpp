// Tests for the thread-parallel load analyzers (the ODR/UDR orbit kernels
// at widths > 1) and the block partitioner.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>

#include "src/load/complete_exchange.h"
#include "src/obs/profiler.h"
#include "src/obs/registry.h"
#include "src/placement/placement.h"
#include "src/util/error.h"
#include "src/util/parallel.h"
#include "src/util/worker_context.h"

namespace tp {
namespace {

TEST(ParallelFor, CoversTheRangeExactlyOnce) {
  for (i32 threads : {1, 2, 3, 7}) {
    for (i64 count : {0, 1, 5, 20, 21}) {
      std::mutex mu;
      std::set<i64> seen;
      parallel_for_blocks(count, threads, [&](i32, i64 lo, i64 hi) {
        std::scoped_lock lock(mu);
        for (i64 i = lo; i < hi; ++i)
          EXPECT_TRUE(seen.insert(i).second) << "index covered twice";
      });
      EXPECT_EQ(static_cast<i64>(seen.size()), count)
          << "threads=" << threads << " count=" << count;
    }
  }
}

TEST(ParallelFor, WorkerIndicesAreDistinct) {
  std::mutex mu;
  std::set<i32> workers;
  parallel_for_blocks(100, 4, [&](i32 w, i64, i64) {
    std::scoped_lock lock(mu);
    workers.insert(w);
  });
  EXPECT_EQ(workers.size(), 4u);
}

TEST(ParallelFor, Validation) {
  EXPECT_THROW(parallel_for_blocks(-1, 1, [](i32, i64, i64) {}), Error);
  EXPECT_THROW(parallel_for_blocks(1, 0, [](i32, i64, i64) {}), Error);
}

TEST(ParallelFor, DefaultThreadsIsPositive) {
  EXPECT_GE(default_threads(), 1);
}

TEST(ParallelLoads, OdrBitIdenticalToSerial) {
  for (i32 threads : {1, 2, 4}) {
    Torus t(3, 5);
    const Placement p = linear_placement(t);
    const LoadMap serial = odr_loads(t, p);
    const LoadMap parallel =
        odr_orbit_loads(t, p, TieBreak::PositiveOnly, threads).broadcast(t);
    EXPECT_EQ(serial.max_abs_diff(parallel), 0.0) << "threads=" << threads;
  }
}

TEST(ParallelLoads, OdrBitIdenticalWithTieSplitting) {
  Torus t(2, 6);
  const Placement p = multiple_linear_placement(t, 2);
  const LoadMap serial = odr_loads(t, p, TieBreak::BothDirections);
  const LoadMap parallel =
      odr_orbit_loads(t, p, TieBreak::BothDirections, 3).broadcast(t);
  EXPECT_EQ(serial.max_abs_diff(parallel), 0.0);
}

TEST(ParallelLoads, UdrMatchesSerialToReductionPrecision) {
  // The workers' int64 partial sums reduce exactly, so any width equals
  // the serial result.
  for (i32 threads : {2, 5}) {
    Torus t(3, 4);
    const Placement p = linear_placement(t);
    const LoadMap serial = udr_loads(t, p);
    const LoadMap parallel =
        udr_orbit_loads(t, p, TieBreak::PositiveOnly, threads).broadcast(t);
    EXPECT_EQ(serial.max_abs_diff(parallel), 0.0) << "threads=" << threads;
  }
}

TEST(ParallelLoads, MoreThreadsThanSources) {
  Torus t(2, 3);
  const Placement p = linear_placement(t);  // 3 processors
  const LoadMap parallel =
      odr_orbit_loads(t, p, TieBreak::PositiveOnly, 16).broadcast(t);
  EXPECT_EQ(parallel.max_abs_diff(odr_loads(t, p)), 0.0);
}

TEST(ParallelLoads, RandomPlacementAgreement) {
  Torus t(Radices{4, 5});
  const Placement p = random_placement(t, 9, 31);
  EXPECT_EQ(udr_orbit_loads(t, p, TieBreak::PositiveOnly, 3)
                .broadcast(t)
                .max_abs_diff(udr_loads(t, p)),
            0.0);
}

TEST(ParallelLoads, PairsEvaluatedExactUnderThreads) {
  // Counter recording is not atomic, so the parallel analyzers must tally
  // per worker and record once after the join — the count has to be exact,
  // not "approximately |P|(|P|-1) minus lost increments".
  obs::MetricsRegistry& reg = obs::registry();
  reg.set_enabled(true);
  reg.reset();
  Torus t(2, 6);
  const Placement p = linear_placement(t);  // |P| = 6
  const i64 expect = p.size() * (p.size() - 1);

  odr_orbit_loads(t, p, TieBreak::PositiveOnly, 4);
  // Keep the snapshot alive while reading into it: counter() returns a
  // pointer into the snapshot, not into the registry.
  const obs::MetricsSnapshot odr_snap = reg.snapshot();
  const i64* odr_pairs = odr_snap.counter("load.pairs_evaluated");
  ASSERT_NE(odr_pairs, nullptr);
  EXPECT_EQ(*odr_pairs, expect);

  reg.reset();
  udr_orbit_loads(t, p, TieBreak::PositiveOnly, 4);
  const obs::MetricsSnapshot udr_snap = reg.snapshot();
  const i64* udr_pairs = udr_snap.counter("load.pairs_evaluated");
  ASSERT_NE(udr_pairs, nullptr);
  EXPECT_EQ(*udr_pairs, expect);

  reg.set_enabled(false);
  reg.reset();
}

/// Threads that recorded a profiler phase during one width-4 ODR call.
i32 odr_phase_threads(const Torus& t, const Placement& p) {
  obs::profiler().reset();
  obs::profiler().start();
  odr_orbit_loads(t, p, TieBreak::PositiveOnly, 4);
  obs::profiler().stop();
  const i32 threads = obs::profiler().report().threads;
  obs::profiler().reset();
  return threads;
}

TEST(ParallelLoads, CutoverKeepsSmallTorusSerial) {
  // T_8^3's linear placement folds to one coset representative: 63 routed
  // pairs, below the work-size cutover, so no worker is spawned and only
  // the calling thread records phases (benchstat checks the same).
  const Torus t(3, 8);
  const Placement p = linear_placement(t);
  ASSERT_EQ(translation_fold(t, p).reps.size(), 1u);
  EXPECT_EQ(odr_phase_threads(t, p), 1);
}

TEST(ParallelLoads, CutoverSpawnsWorkersPastIt) {
  // 100 random nodes of T_8^3 have no translation symmetry: 9900 routed
  // pairs, enough for two workers.
  const Torus t(3, 8);
  const Placement p = random_placement(t, 100, 7);
  ASSERT_EQ(translation_fold(t, p).stabilizer_size, 1);
  EXPECT_GE(odr_phase_threads(t, p), 2);
}

TEST(WorkerContext, PoolWorkerScopeNestsAndRestores) {
  EXPECT_FALSE(in_pool_worker());
  {
    const PoolWorkerScope outer;
    EXPECT_TRUE(in_pool_worker());
    {
      const PoolWorkerScope inner;  // a worker fanning out stays a worker
      EXPECT_TRUE(in_pool_worker());
    }
    EXPECT_TRUE(in_pool_worker());
  }
  EXPECT_FALSE(in_pool_worker());
}

TEST(ParallelFor, EveryBlockRunsAsAPoolWorker) {
  // All three execution shapes — the workers == 1 inline fast path, the
  // spawned threads, and the caller-inline last block — must carry the
  // pool-worker mark, or nested instrumentation would race the registry
  // on exactly one of them (which is how the original bug hid: the
  // caller-inline block raced only when a sibling thread recorded too).
  for (const i32 threads : {1, 4}) {
    std::atomic<int> unmarked{0};
    parallel_for_blocks(64, threads, [&](i32, i64, i64) {
      if (!in_pool_worker()) ++unmarked;
    });
    EXPECT_EQ(unmarked.load(), 0) << "threads=" << threads;
    EXPECT_FALSE(in_pool_worker()) << "mark leaked past the join";
  }
}

TEST(ParallelFor, NestedInstrumentationIsDroppedNotRaced) {
  // TSan regression for the race this PR fixed: the routers count
  // router.paths_enumerated / router.tie_breaks via TP_OBS_COUNT deep
  // inside the per-source accumulators, so an enabled registry used to
  // take plain unsynchronized increments from every sweep worker at
  // once.  The registry now reports disabled on pool workers: nested
  // records are dropped identically for every thread count, and only the
  // post-join reduced tallies land.  (Run under the tsan preset this
  // test failed before the fix and is silent after.)
  obs::MetricsRegistry& reg = obs::registry();
  reg.set_enabled(true);
  reg.reset();
  Torus t(2, 6);
  const Placement p = linear_placement(t);

  odr_orbit_loads(t, p, TieBreak::PositiveOnly, 1);
  const obs::MetricsSnapshot one = reg.snapshot();
  reg.reset();
  odr_orbit_loads(t, p, TieBreak::PositiveOnly, 4);
  const obs::MetricsSnapshot four = reg.snapshot();
  reg.set_enabled(false);
  reg.reset();

  // The worker-side router counter never fires (the name may exist from
  // an earlier call site resolution; the value must be zero)...
  for (const obs::MetricsSnapshot* snap : {&one, &four}) {
    const i64* paths = snap->counter("router.paths_enumerated");
    if (paths != nullptr) {
      EXPECT_EQ(*paths, 0);
    }
  }
  // ...while the reduced post-join tally is exact for both widths, so
  // registry contents are thread-count invariant.
  const i64 expect = p.size() * (p.size() - 1);
  const i64* pairs_one = one.counter("load.pairs_evaluated");
  const i64* pairs_four = four.counter("load.pairs_evaluated");
  ASSERT_NE(pairs_one, nullptr);
  ASSERT_NE(pairs_four, nullptr);
  EXPECT_EQ(*pairs_one, expect);
  EXPECT_EQ(*pairs_four, expect);
  EXPECT_EQ(one.counters, four.counters);
}

}  // namespace
}  // namespace tp
