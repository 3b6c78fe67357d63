// Tests for the observability subsystem: metrics registry semantics,
// histogram bucketing and percentiles, stopwatch monotonicity, JSON
// parse/dump round-trips, and the stats / Chrome-trace exporters.
//
// Tests use local MetricsRegistry / Tracer instances, not the process-wide
// singletons, so they cannot interfere with instrumentation elsewhere.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/obs.h"
#include "src/util/error.h"
#include "src/util/prng.h"

namespace tp {
namespace {

// --- registry -------------------------------------------------------------

TEST(Registry, CounterAccumulates) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  const obs::CounterHandle h = reg.counter("hops");
  reg.add(h);
  reg.add(h, 41);
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_NE(snap.counter("hops"), nullptr);
  EXPECT_EQ(*snap.counter("hops"), 42);
}

TEST(Registry, RegistrationIsIdempotent) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  const obs::CounterHandle a = reg.counter("same");
  const obs::CounterHandle b = reg.counter("same");
  EXPECT_EQ(a.idx, b.idx);
  reg.add(a, 1);
  reg.add(b, 2);
  EXPECT_EQ(*reg.snapshot().counter("same"), 3);
}

TEST(Registry, GaugeSetAndSetMax) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  const obs::GaugeHandle h = reg.gauge("depth");
  reg.set(h, 7);
  EXPECT_EQ(*reg.snapshot().gauge("depth"), 7);
  reg.set_max(h, 3);  // lower: no change
  EXPECT_EQ(*reg.snapshot().gauge("depth"), 7);
  reg.set_max(h, 11);  // higher: raises
  EXPECT_EQ(*reg.snapshot().gauge("depth"), 11);
}

TEST(Registry, DisabledRegistryRecordsNothing) {
  obs::MetricsRegistry reg;  // disabled by default
  EXPECT_FALSE(reg.enabled());
  const obs::CounterHandle c = reg.counter("c");
  const obs::GaugeHandle g = reg.gauge("g");
  const obs::HistogramHandle h = reg.histogram("h");
  reg.add(c, 100);
  reg.set(g, 100);
  reg.set_max(g, 100);
  reg.record(h, 100);
  reg.record_duration_us("scope", 100);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(*snap.counter("c"), 0);
  EXPECT_EQ(*snap.gauge("g"), 0);
  EXPECT_EQ(snap.histogram("h")->count, 0);
  // record_duration_us on a disabled registry must not even register.
  EXPECT_EQ(snap.histogram("scope_us"), nullptr);
}

TEST(Registry, DefaultHandleIsInertEvenWhenEnabled) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  obs::CounterHandle unresolved;  // idx = -1
  reg.add(unresolved, 5);         // must be a no-op, not an OOB write
  EXPECT_TRUE(reg.snapshot().counters.empty());
}

TEST(Registry, ResetZeroesSlotsButKeepsRegistrations) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  const obs::CounterHandle h = reg.counter("n");
  reg.add(h, 9);
  reg.reset();
  const obs::MetricsSnapshot snap = reg.snapshot();
  ASSERT_NE(snap.counter("n"), nullptr);
  EXPECT_EQ(*snap.counter("n"), 0);
  reg.add(h, 2);  // old handle still valid
  EXPECT_EQ(*reg.snapshot().counter("n"), 2);
}

TEST(Registry, SnapshotLookupReturnsNullForUnknownNames) {
  obs::MetricsRegistry reg;
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("nope"), nullptr);
  EXPECT_EQ(snap.gauge("nope"), nullptr);
  EXPECT_EQ(snap.histogram("nope"), nullptr);
}

TEST(Registry, RecordDurationUsCreatesSuffixedHistogram) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  reg.record_duration_us("plan", 12);
  reg.record_duration_us("plan", 20);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::HistogramData* h = snap.histogram("plan_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2);
  EXPECT_EQ(h->sum, 32);
}

// --- histogram ------------------------------------------------------------

TEST(Histogram, BucketsAndSummaryStats) {
  obs::HistogramData h({10, 20, 30});
  ASSERT_EQ(h.counts.size(), 4u);  // 3 bounds + overflow
  h.record(5);
  h.record(10);  // inclusive upper edge: still the first bucket
  h.record(25);
  h.record(99);  // overflow
  EXPECT_EQ(h.counts[0], 2);
  EXPECT_EQ(h.counts[1], 0);
  EXPECT_EQ(h.counts[2], 1);
  EXPECT_EQ(h.counts[3], 1);
  EXPECT_EQ(h.count, 4);
  EXPECT_EQ(h.sum, 139);
  EXPECT_EQ(h.min, 5);
  EXPECT_EQ(h.max, 99);
  EXPECT_DOUBLE_EQ(h.mean(), 139.0 / 4.0);
}

TEST(Histogram, PercentilesOfConstantDistributionAreExact) {
  obs::HistogramData h;
  for (int i = 0; i < 100; ++i) h.record(7);
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 7.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.95), 7.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 7.0);
}

TEST(Histogram, PercentilesAreMonotoneAndClampedToRange) {
  obs::HistogramData h;
  for (i64 v = 1; v <= 1000; ++v) h.record(v);
  const double p50 = h.percentile(0.50);
  const double p95 = h.percentile(0.95);
  EXPECT_LE(p50, p95);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p95, 1000.0);
  // Uniform 1..1000: the bucketed estimate should land near the truth.
  EXPECT_NEAR(p50, 500.0, 150.0);
  EXPECT_NEAR(p95, 950.0, 150.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1000.0);
}

TEST(Histogram, EmptyPercentileIsZero) {
  const obs::HistogramData h;
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

// --- timer ----------------------------------------------------------------

TEST(Timer, StopwatchIsMonotone) {
  const obs::Stopwatch w;
  const i64 a = w.elapsed_ns();
  const i64 b = w.elapsed_ns();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
  EXPECT_GE(obs::Stopwatch::now_ns(), 0);
}

// --- tracer ---------------------------------------------------------------

TEST(Tracer, RecordsBalancedSpans) {
  obs::Tracer tr;
  EXPECT_FALSE(tr.enabled());
  tr.begin("ignored");  // disabled: dropped
  tr.end("ignored");
  EXPECT_TRUE(tr.events().empty());

  tr.set_enabled(true);
  tr.begin("outer", "phase");
  tr.begin("inner", "phase");
  tr.instant("marker");
  tr.end("inner");
  tr.end("outer");
  const std::vector<obs::TraceEvent> ev = tr.events();
  ASSERT_EQ(ev.size(), 5u);
  EXPECT_EQ(ev[0].name, "outer");
  EXPECT_EQ(ev[0].phase, 'B');
  EXPECT_EQ(ev[2].phase, 'i');
  EXPECT_EQ(ev[4].name, "outer");
  EXPECT_EQ(ev[4].phase, 'E');
  for (std::size_t i = 1; i < ev.size(); ++i)
    EXPECT_GE(ev[i].ts_ns, ev[i - 1].ts_ns);
  tr.clear();
  EXPECT_TRUE(tr.events().empty());
}

// --- json -----------------------------------------------------------------

TEST(Json, ParseScalarsAndStructure) {
  const obs::JsonValue v = obs::parse_json(
      R"({"a": 1, "b": -2.5, "c": [true, false, null], "d": "x\ny"})");
  EXPECT_EQ(v.find("a")->as_int(), 1);
  EXPECT_DOUBLE_EQ(v.find("b")->as_number(), -2.5);
  const obs::JsonValue& arr = *v.find("c");
  ASSERT_EQ(arr.items().size(), 3u);
  EXPECT_TRUE(arr.items()[0].as_bool());
  EXPECT_FALSE(arr.items()[1].as_bool());
  EXPECT_TRUE(arr.items()[2].is_null());
  EXPECT_EQ(v.find("d")->as_string(), "x\ny");
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, DumpParseRoundTrip) {
  obs::JsonValue obj = obs::JsonValue::object();
  obj.set("n", obs::JsonValue(i64{1234567}));
  obj.set("s", obs::JsonValue("quote\" and \\slash"));
  obs::JsonValue arr = obs::JsonValue::array();
  arr.push_back(obs::JsonValue(3.5));
  obj.set("a", std::move(arr));
  const obs::JsonValue back = obs::parse_json(obj.dump());
  EXPECT_EQ(back.find("n")->as_int(), 1234567);
  EXPECT_EQ(back.find("s")->as_string(), "quote\" and \\slash");
  EXPECT_DOUBLE_EQ(back.find("a")->items()[0].as_number(), 3.5);
}

TEST(Json, MalformedInputThrows) {
  EXPECT_THROW(obs::parse_json("{"), Error);
  EXPECT_THROW(obs::parse_json("[1, 2,]"), Error);
  EXPECT_THROW(obs::parse_json("{} trailing"), Error);
  EXPECT_THROW(obs::parse_json("\"unterminated"), Error);
  EXPECT_THROW(obs::parse_json(""), Error);
}

TEST(Json, KindMismatchThrows) {
  const obs::JsonValue v = obs::parse_json("42");
  EXPECT_THROW(v.as_string(), Error);
  EXPECT_THROW(v.as_bool(), Error);
  EXPECT_THROW(v.items(), Error);
}

/// The bytes dump() wrote for a number when it formatted with snprintf.
std::string snprintf_number(double x, bool is_int) {
  char buf[40];
  if (is_int ||
      (std::nearbyint(x) == x && std::fabs(x) < 9.007199254740992e15))
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(x));
  else
    std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

TEST(Json, NumbersDumpTheBytesOfSnprintf) {
  using Limits = std::numeric_limits<double>;
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 1e-300, 1e300,
      Limits::infinity(), -Limits::infinity(), Limits::quiet_NaN(),
      -Limits::quiet_NaN(), Limits::denorm_min(), -Limits::denorm_min(),
      Limits::min(), Limits::max(), Limits::lowest(), Limits::epsilon(),
      9007199254740991.0, 9007199254740992.0, 9007199254740994.0,
      -9007199254740992.0, 4503599627370495.5, 123456789.125};
  Xoshiro256SS rng(20261018);
  for (int i = 0; i < 100000; ++i) {
    const u64 bits = rng();
    values.push_back(std::bit_cast<double>(bits));  // any bit pattern
    values.push_back(std::bit_cast<double>(bits & 0x800fffffffffffffULL));
    // Short fractions and integers of every size up to 2^64.
    values.push_back(std::ldexp(static_cast<double>(bits >> 11),
                                static_cast<int>(bits % 64) - 52));
  }
  i64 mismatches = 0;
  for (const double x : values)
    if (obs::JsonValue(x).dump() != snprintf_number(x, false) &&
        ++mismatches <= 5)
      ADD_FAILURE() << "double " << snprintf_number(x, false) << " dumps as "
                    << obs::JsonValue(x).dump();
  for (int i = 0; i < 100000; ++i) {
    // Integer ids and counters: |n| < 2^53 is what a double holds exactly.
    const i64 n = static_cast<i64>(rng() >> 11) * (i % 2 == 0 ? 1 : -1);
    if (obs::JsonValue(n).dump() !=
            snprintf_number(static_cast<double>(n), true) &&
        ++mismatches <= 5)
      ADD_FAILURE() << "integer " << n << " dumps as "
                    << obs::JsonValue(n).dump();
  }
  EXPECT_EQ(mismatches, 0);
}

// --- exporters ------------------------------------------------------------

TEST(Export, StatsJsonLineRoundTrips) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  reg.add(reg.counter("sim.cycles"), 17);
  reg.set(reg.gauge("sim.max_queue_depth"), 4);
  const obs::HistogramHandle h = reg.histogram("sim.latency");
  reg.record(h, 3);
  reg.record(h, 5);
  const std::string line = obs::stats_json_line(reg.snapshot());
  EXPECT_EQ(line.find('\n'), std::string::npos);  // single line (JSONL)

  const obs::JsonValue root = obs::parse_json(line);
  EXPECT_EQ(root.find("counters")->find("sim.cycles")->as_int(), 17);
  EXPECT_EQ(root.find("gauges")->find("sim.max_queue_depth")->as_int(), 4);
  const obs::JsonValue& hist =
      *root.find("histograms")->find("sim.latency");
  EXPECT_EQ(hist.find("count")->as_int(), 2);
  EXPECT_EQ(hist.find("sum")->as_int(), 8);
  EXPECT_EQ(hist.find("min")->as_int(), 3);
  EXPECT_EQ(hist.find("max")->as_int(), 5);
  EXPECT_DOUBLE_EQ(hist.find("mean")->as_number(), 4.0);
  ASSERT_NE(hist.find("p50"), nullptr);
  ASSERT_NE(hist.find("p95"), nullptr);
  EXPECT_EQ(hist.find("bounds")->items().size(),
            obs::default_bucket_bounds().size());
  EXPECT_EQ(hist.find("counts")->items().size(),
            obs::default_bucket_bounds().size() + 1);
}

TEST(Export, ChromeTraceRoundTrips) {
  obs::Tracer tr;
  tr.set_enabled(true);
  tr.begin("plan", "phase");
  tr.end("plan");
  tr.instant("mark");
  std::ostringstream os;
  obs::export_chrome_trace(tr, os);

  const obs::JsonValue root = obs::parse_json(os.str());
  EXPECT_EQ(root.find("displayTimeUnit")->as_string(), "ms");
  const obs::JsonValue& events = *root.find("traceEvents");
  ASSERT_EQ(events.items().size(), 3u);
  const obs::JsonValue& b = events.items()[0];
  EXPECT_EQ(b.find("name")->as_string(), "plan");
  EXPECT_EQ(b.find("ph")->as_string(), "B");
  EXPECT_EQ(b.find("cat")->as_string(), "phase");
  ASSERT_NE(b.find("ts"), nullptr);
  ASSERT_NE(b.find("pid"), nullptr);
  ASSERT_NE(b.find("tid"), nullptr);
  EXPECT_EQ(events.items()[1].find("ph")->as_string(), "E");
  EXPECT_GE(events.items()[1].find("ts")->as_number(),
            b.find("ts")->as_number());
  EXPECT_EQ(events.items()[2].find("ph")->as_string(), "i");
}

TEST(Export, ScopeRecordsDurationAndSpanOnLocalSingletons) {
  // The global singletons are only touched here, under explicit
  // enable/clear bracketing, to validate the TP_OBS_SCOPE plumbing.
  obs::registry().reset();
  obs::registry().set_enabled(true);
  obs::tracer().clear();
  obs::tracer().set_enabled(true);
  {
    TP_OBS_SCOPE("test.scope");
    TP_OBS_COUNT("test.counter", 2);
    TP_OBS_COUNT("test.counter");
  }
  obs::registry().set_enabled(false);
  obs::tracer().set_enabled(false);

  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  const obs::HistogramData* h = snap.histogram("test.scope_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1);
  EXPECT_EQ(*snap.counter("test.counter"), 3);
  const std::vector<obs::TraceEvent> ev = obs::tracer().events();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].name, "test.scope");
  EXPECT_EQ(ev[0].phase, 'B');
  EXPECT_EQ(ev[1].phase, 'E');
  obs::registry().reset();
  obs::tracer().clear();
}

// --- rolling windows ------------------------------------------------------

TEST(RollingHistogram, WindowedStatsCoverOnlyTheRequestedTicks) {
  obs::RollingHistogram ring({10, 100}, 64);
  ring.record(0, 10);
  ring.record(1, 20);
  ring.record(1, 30);
  ring.record(5, 40);

  const obs::HistogramData last1 = ring.merged(5, 1);  // tick 5 only
  EXPECT_EQ(last1.count, 1);
  EXPECT_EQ(last1.sum, 40);

  const obs::HistogramData last5 = ring.merged(5, 5);  // ticks 1..5
  EXPECT_EQ(last5.count, 3);
  EXPECT_EQ(last5.sum, 90);
  EXPECT_EQ(last5.min, 20);
  EXPECT_EQ(last5.max, 40);

  const obs::HistogramData all = ring.merged(5, 100);  // clamped to capacity
  EXPECT_EQ(all.count, 4);
  EXPECT_EQ(all.sum, 100);
}

TEST(RollingHistogram, StaleSlotsAreLazilyOverwrittenOnWraparound) {
  obs::RollingHistogram ring({10, 100}, 4);
  ring.record(0, 100);  // slot 0
  ring.record(4, 7);    // same slot, 4 ticks later: must evict tick 0
  const obs::HistogramData w = ring.merged(4, 4);
  EXPECT_EQ(w.count, 1);
  EXPECT_EQ(w.sum, 7);

  // An idle stretch leaves only stale slots behind: reads ignore them.
  EXPECT_EQ(ring.merged(100, 4).count, 0);
}

TEST(RollingHistogram, MergedPercentilesSpanTheWindow) {
  obs::RollingHistogram ring({10, 100, 1000}, 64);
  for (i64 t = 0; t < 10; ++t) ring.record(t, t < 9 ? 5 : 500);

  const obs::HistogramData recent = ring.merged(9, 10);
  EXPECT_EQ(recent.count, 10);
  EXPECT_LE(recent.percentile(0.50), 10.0);
  EXPECT_GT(recent.percentile(0.99), 100.0);

  // A 1-tick window sees only the last sample.
  EXPECT_EQ(ring.merged(9, 1).count, 1);
  EXPECT_EQ(ring.merged(9, 1).sum, 500);
}

// --- prometheus exposition ------------------------------------------------

TEST(Prometheus, SanitizesAndPrefixesMetricNames) {
  EXPECT_EQ(obs::prometheus_name("service.request_us"),
            "tp_service_request_us");
  EXPECT_EQ(obs::prometheus_name("odd-name/x"), "tp_odd_name_x");
}

TEST(Prometheus, TextExpositionIsGolden) {
  obs::MetricsRegistry reg;
  reg.set_enabled(true);
  reg.add(reg.counter("svc.requests"), 3);
  reg.set(reg.gauge("svc.depth"), 2);
  const obs::HistogramHandle h = reg.histogram("svc.lat_us", {10, 100});
  reg.record(h, 5);
  reg.record(h, 50);
  reg.record(h, 5000);  // overflow bucket

  EXPECT_EQ(obs::prometheus_text(reg.snapshot()),
            "# TYPE tp_svc_requests counter\n"
            "tp_svc_requests 3\n"
            "# TYPE tp_svc_depth gauge\n"
            "tp_svc_depth 2\n"
            "# TYPE tp_svc_lat_us histogram\n"
            "tp_svc_lat_us_bucket{le=\"10\"} 1\n"
            "tp_svc_lat_us_bucket{le=\"100\"} 2\n"
            "tp_svc_lat_us_bucket{le=\"+Inf\"} 3\n"
            "tp_svc_lat_us_sum 5055\n"
            "tp_svc_lat_us_count 3\n");
}

// --- complete trace events ------------------------------------------------

TEST(Tracer, CompleteEventsCarryDurationAndNeedNoNesting) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  // Interleaved completes (impossible with LIFO begin/end pairs).
  tracer.complete("r1 plan", 5000, "service");
  tracer.complete("r2 plan", 2000, "service");

  const std::vector<obs::TraceEvent> ev = tracer.events();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].phase, 'X');
  EXPECT_EQ(ev[0].name, "r1 plan");
  EXPECT_EQ(ev[0].dur_ns, 5000);
  EXPECT_EQ(ev[1].dur_ns, 2000);

  std::ostringstream os;
  obs::export_chrome_trace(tracer, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":5.000"), std::string::npos);  // µs precision
  EXPECT_NE(json.find("\"dur\":2.000"), std::string::npos);
}

}  // namespace
}  // namespace tp
