// Tests for the in-process profiler (src/obs/phase_stack.h + profiler.h):
// phase attribution, thread-count invariance of paths/calls (the
// parallel_for adoption hooks and the engine pool), a start/stop cycle
// that leaves signal dispositions alone, and the collapsed-stack, table
// and statusz output formats.
//
// The profiler is process-global; every test that starts it stops and
// resets it before returning so later tests (and the disabled-mode test)
// see a quiescent, empty profiler.

#include <gtest/gtest.h>

#include <cctype>
#include <csignal>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/torusplace.h"
#include "src/obs/obs.h"
#include "src/service/admin.h"
#include "src/service/service.h"
#include "src/util/parallel.h"

namespace tp {
namespace {

double g_sink = 0.0;

/// path -> calls for every row of a report.
std::map<std::vector<std::string>, i64> calls_by_path(
    const obs::PhaseReport& report) {
  std::map<std::vector<std::string>, i64> out;
  for (const obs::PhaseRow& row : report.rows) out[row.path] += row.calls;
  return out;
}

void spin_ns(i64 ns) {
  const obs::Stopwatch watch;
  while (watch.elapsed_ns() < ns) g_sink += 1.0;
}

// --- disabled mode --------------------------------------------------------

TEST(ProfilerDisabled, PhasesAreNoOps) {
  ASSERT_FALSE(obs::profiler().enabled());
  {
    TP_PROF_PHASE("should.not.appear");
    g_sink += 1.0;
  }
  Torus torus(2, 6);
  g_sink += odr_loads(torus, linear_placement(torus)).max_load();
  const obs::PhaseReport report = obs::profiler().report();
  EXPECT_TRUE(report.rows.empty());
}

// --- lifecycle ------------------------------------------------------------

TEST(Profiler, StartInstallsNoSignalHandler) {
  // The profiler times phase boundaries and nothing else: a start/stop
  // cycle leaves the SIGPROF disposition as it found it.
  const auto disposition = [] {
    struct sigaction sa {};
    sigaction(SIGPROF, nullptr, &sa);
    return sa;
  };
  const struct sigaction before = disposition();
  obs::profiler().start();
  {
    TP_PROF_PHASE("lifecycle.spin");
    spin_ns(1'000'000);
  }
  const struct sigaction during = disposition();
  obs::profiler().stop();
  obs::profiler().reset();
  const struct sigaction after = disposition();
  EXPECT_TRUE(during.sa_handler == before.sa_handler);
  EXPECT_EQ(during.sa_flags, before.sa_flags);
  EXPECT_TRUE(after.sa_handler == before.sa_handler);
  EXPECT_EQ(after.sa_flags, before.sa_flags);
}

// --- one Scope, three sinks -----------------------------------------------

TEST(ScopeSinks, ObsScopeReachesAllThreeAndProfPhaseOnlyTheProfiler) {
  obs::registry().reset();
  obs::registry().set_enabled(true);
  obs::tracer().clear();
  obs::tracer().set_enabled(true);
  obs::profiler().start();
  {
    TP_OBS_SCOPE("a");
    TP_PROF_PHASE("b");
  }
  obs::profiler().stop();
  obs::registry().set_enabled(false);
  obs::tracer().set_enabled(false);
  const obs::PhaseReport report = obs::profiler().report();
  obs::profiler().reset();
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  const std::vector<obs::TraceEvent> events = obs::tracer().events();
  obs::registry().reset();
  obs::tracer().clear();

  const auto calls = calls_by_path(report);
  EXPECT_EQ(calls, (std::map<std::vector<std::string>, i64>{
                       {{"a"}, 1}, {{"a", "b"}, 1}}));
  const obs::HistogramData* a_us = snap.histogram("a_us");
  ASSERT_NE(a_us, nullptr);
  EXPECT_EQ(a_us->count, 1);
  EXPECT_EQ(snap.histogram("b_us"), nullptr);
  ASSERT_EQ(events.size(), 2u);  // a's begin and end, nothing of b
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[1].name, "a");
  EXPECT_EQ(events[1].phase, 'E');
}

TEST(ScopeSinks, NeitherSpellingTouchesASinkWhenAllAreOff) {
  ASSERT_FALSE(obs::profiler().enabled());
  ASSERT_FALSE(obs::registry().enabled());
  ASSERT_FALSE(obs::tracer().enabled());
  obs::registry().reset();
  obs::tracer().clear();
  // A fresh thread, so a profiler registration would show in t_state.
  bool registered = true;
  std::thread([&registered] {
    {
      TP_OBS_SCOPE("a");
      TP_PROF_PHASE("b");
    }
    registered = obs::prof::detail::t_state != nullptr;
  }).join();
  EXPECT_FALSE(registered);
  // reset() keeps registered names, so look for recorded samples.
  for (const auto& [name, h] : obs::registry().snapshot().histograms)
    EXPECT_EQ(h.count, 0) << name;
  EXPECT_TRUE(obs::tracer().events().empty());
  EXPECT_TRUE(obs::profiler().report().rows.empty());
}

// --- phase attribution ----------------------------------------------------

TEST(PhaseAttribution, OdrLoadsBreaksDownIntoRouteAndWalk) {
  // One route pass and one walk pass per routed source: every node of a
  // random placement, whose stabilizer is trivial, and the single coset
  // representative of the linear placement, a subgroup of Z_4^3.
  Torus torus(3, 4);
  const Placement random = random_placement(torus, 16, 5);
  ASSERT_EQ(translation_fold(torus, random).stabilizer_size, 1);
  for (const auto& [p, routed] :
       {std::pair<Placement, i64>{random, random.size()},
        std::pair<Placement, i64>{linear_placement(torus), 1}}) {
    obs::profiler().start();
    g_sink += odr_loads(torus, p).max_load();
    obs::profiler().stop();
    const obs::PhaseReport report = obs::profiler().report();
    obs::profiler().reset();

    const auto calls = calls_by_path(report);
    const std::vector<std::string> root{"load.odr"};
    const std::vector<std::string> route{"load.odr", "odr.route"};
    const std::vector<std::string> walk{"load.odr", "odr.walk"};
    ASSERT_TRUE(calls.count(root)) << "missing load.odr root phase";
    ASSERT_TRUE(calls.count(route)) << "missing odr.route child phase";
    ASSERT_TRUE(calls.count(walk)) << "missing odr.walk child phase";
    EXPECT_EQ(calls.at(root), 1);
    EXPECT_EQ(calls.at(route), routed) << p.name();
    EXPECT_EQ(calls.at(walk), routed) << p.name();
    EXPECT_EQ(calls.at({"load.odr", "fold.detect"}), 1);
    EXPECT_EQ(calls.at({"load.odr", "fold.broadcast"}), 1);

    // Inclusive time of the root covers its children; self + children's
    // totals never exceed the root's total.
    i64 root_total = 0, child_total = 0;
    for (const obs::PhaseRow& row : report.rows) {
      if (row.path == root) root_total = row.total_ns;
      if (row.path == route || row.path == walk) child_total += row.total_ns;
    }
    EXPECT_GE(root_total, child_total);
    EXPECT_EQ(report.depth_overflow, 0);
    EXPECT_EQ(report.dropped_paths, 0);
  }
}

TEST(PhaseAttribution, NestedSelfTimeExcludesChildren) {
  obs::profiler().start();
  {
    TP_PROF_PHASE("parent");
    spin_ns(2'000'000);
    {
      TP_PROF_PHASE("child");
      spin_ns(2'000'000);
    }
  }
  obs::profiler().stop();
  const obs::PhaseReport report = obs::profiler().report();
  obs::profiler().reset();

  i64 parent_total = 0, parent_self = 0, child_total = 0;
  for (const obs::PhaseRow& row : report.rows) {
    if (row.path == std::vector<std::string>{"parent"}) {
      parent_total = row.total_ns;
      parent_self = row.self_ns;
    }
    if (row.path == std::vector<std::string>{"parent", "child"})
      child_total = row.total_ns;
  }
  EXPECT_GT(child_total, 0);
  EXPECT_GE(parent_total, child_total + parent_self);
  EXPECT_LT(parent_self, parent_total);
}

// --- thread-count invariance ----------------------------------------------

TEST(PhaseInvariance, ParallelForWorkersAdoptCallerPath) {
  const auto run = [](i32 threads) {
    obs::profiler().start();
    {
      TP_PROF_PHASE("outer");
      // One sum per worker, combined after the join: workers must not
      // share a write target.
      std::vector<double> sums(static_cast<std::size_t>(threads), 0.0);
      parallel_for_blocks(64, threads, [&sums](i32 worker, i64 lo, i64 hi) {
        for (i64 i = lo; i < hi; ++i) {
          TP_PROF_PHASE("inner");
          sums[static_cast<std::size_t>(worker)] += static_cast<double>(i);
        }
      });
      for (const double s : sums) g_sink += s;
    }
    obs::profiler().stop();
    const obs::PhaseReport report = obs::profiler().report();
    obs::profiler().reset();
    return report;
  };

  const obs::PhaseReport serial = run(1);
  const obs::PhaseReport pooled = run(4);
  const auto a = calls_by_path(serial);
  const auto b = calls_by_path(pooled);
  // Identical paths with identical call counts — the nanoseconds differ,
  // the attribution does not.
  EXPECT_EQ(a, b);
  const std::vector<std::string> inner{"outer", "inner"};
  ASSERT_TRUE(b.count(inner));
  EXPECT_EQ(b.at(inner), 64);
  ASSERT_TRUE(b.count({"outer"}));
  EXPECT_EQ(b.at({"outer"}), 1);
  EXPECT_GE(pooled.threads, serial.threads);
}

TEST(PhaseInvariance, EnginePoolWidthDoesNotChangeAttribution) {
  const auto run = [](i32 threads) {
    obs::profiler().start();
    {
      service::EngineConfig config;
      config.threads = threads;
      service::Engine engine(config);
      for (i32 k = 4; k <= 6; ++k) {
        service::Request req;
        req.key = service::make_query_key(Radices{k, k}, 1, RouterKind::Odr,
                                          service::QueryOp::Load);
        const service::Response resp = engine.run(req);
        EXPECT_TRUE(resp.ok);
      }
    }
    obs::profiler().stop();
    const obs::PhaseReport report = obs::profiler().report();
    obs::profiler().reset();
    return report;
  };

  const auto a = calls_by_path(run(1));
  const auto b = calls_by_path(run(4));
  EXPECT_EQ(a, b);
  const std::vector<std::string> compute{"service.compute"};
  ASSERT_TRUE(b.count(compute));
  EXPECT_EQ(b.at(compute), 3);  // one per distinct key
}

// --- outputs ---------------------------------------------------------------

TEST(Output, CollapsedStacksAreWellFormed) {
  Torus torus(2, 6);
  obs::profiler().start();
  g_sink += odr_loads(torus, linear_placement(torus)).max_load();
  obs::profiler().stop();
  const obs::PhaseReport report = obs::profiler().report();
  obs::profiler().reset();

  std::ostringstream out;
  obs::write_collapsed(report, out);
  std::istringstream lines(out.str());
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    ++n;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << "no weight in: " << line;
    ASSERT_GT(space, 0u) << "empty path in: " << line;
    const std::string weight = line.substr(space + 1);
    ASSERT_FALSE(weight.empty());
    for (const char c : weight)
      EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(c)))
          << "non-numeric weight in: " << line;
    EXPECT_GT(std::stoll(weight), 0);
    const std::string path = line.substr(0, space);
    EXPECT_EQ(path.find(' '), std::string::npos)
        << "unescaped space in path: " << line;
  }
  EXPECT_GT(n, 0) << "collapsed output is empty";
}

TEST(Output, PhaseTableAndJsonCarryTheBreakdown) {
  Torus torus(2, 6);
  obs::profiler().start();
  g_sink += odr_loads(torus, linear_placement(torus)).max_load();
  obs::profiler().stop();
  const obs::PhaseReport report = obs::profiler().report();
  obs::profiler().reset();

  const std::string table = obs::format_phase_table(report);
  EXPECT_NE(table.find("load.odr"), std::string::npos);
  EXPECT_NE(table.find("odr.route"), std::string::npos);
  EXPECT_NE(table.find("coverage"), std::string::npos);
  // Exact times only: no samples column in the header, none in the footer.
  const std::string header = table.substr(0, table.find('\n'));
  EXPECT_EQ(header.find("samples"), std::string::npos) << header;
  EXPECT_EQ(table.find("samples"), std::string::npos) << table;
}

TEST(Output, CoverageIsHighForARootWrappedWorkload) {
  Torus torus(3, 8);
  obs::profiler().start();
  // Pay the one-time thread registration (ThreadState allocation) before
  // the measured epoch, then restart the wall clock: real workloads
  // amortize it over milliseconds, this test runs for far less.
  { TP_PROF_PHASE("warmup"); }
  obs::profiler().reset();
  {
    TP_PROF_PHASE("root");
    g_sink += odr_loads(torus, linear_placement(torus)).max_load();
  }
  obs::profiler().stop();
  const obs::PhaseReport report = obs::profiler().report();
  obs::profiler().reset();
  // The acceptance gate: root phases account for >= 90% of wall time.
  EXPECT_GE(report.coverage(), 0.90);
}

TEST(Output, StatuszExposesProfilerOnlyWhileEnabled) {
  service::Engine engine;
  const obs::JsonValue id(static_cast<i64>(1));
  const obs::JsonValue doc = obs::parse_json(R"({"op":"statusz"})");
  bool quit = false;

  const obs::JsonValue off = service::handle_admin(engine, doc, id, &quit);
  EXPECT_EQ(off.find("profiler"), nullptr);

  obs::profiler().start();
  const obs::JsonValue on = service::handle_admin(engine, doc, id, &quit);
  obs::profiler().stop();
  obs::profiler().reset();
  const obs::JsonValue* prof = on.find("profiler");
  ASSERT_NE(prof, nullptr);
  std::vector<std::string> members;
  for (const auto& [key, value] : prof->members()) members.push_back(key);
  EXPECT_EQ(members, (std::vector<std::string>{"enabled", "paths"}));
  const obs::JsonValue* enabled = prof->find("enabled");
  ASSERT_NE(enabled, nullptr);
  EXPECT_TRUE(enabled->as_bool());
}

}  // namespace
}  // namespace tp
