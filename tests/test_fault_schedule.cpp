// Dynamic fault timelines (FaultSchedule / FaultClock) and the
// simulators' retry/reroute recovery built on top of them.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <iomanip>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/linkprobe.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/placement/placement.h"
#include "src/routing/adaptive.h"
#include "src/routing/odr.h"
#include "src/routing/udr.h"
#include "src/simulate/adaptive_sim.h"
#include "src/simulate/fault_schedule.h"
#include "src/simulate/network_sim.h"
#include "src/simulate/traffic.h"
#include "src/simulate/wormhole.h"
#include "src/util/error.h"

namespace tp {
namespace {

EdgeId wire_of(const Torus& t, NodeId node, i32 dim) {
  return t.undirected_id(t.edge_id(node, dim, Dir::Pos));
}

TEST(FaultSchedule, FromEventsSortsStablyAndValidates) {
  Torus t(2, 3);
  const EdgeId w0 = wire_of(t, 0, 0);
  const EdgeId w1 = wire_of(t, 0, 1);
  const FaultSchedule s = FaultSchedule::from_events(
      t, {{7, w1, FaultEventKind::Repair},
          {2, w0, FaultEventKind::Fail},
          {7, w0, FaultEventKind::Fail},
          {2, w1, FaultEventKind::Fail}});
  ASSERT_EQ(static_cast<i64>(s.events().size()), 4);
  // Sorted by cycle; same-cycle events keep their given order.
  EXPECT_EQ(s.events()[0].wire, w0);
  EXPECT_EQ(s.events()[1].wire, w1);
  EXPECT_EQ(s.events()[2].wire, w1);
  EXPECT_EQ(s.events()[3].wire, w0);
  EXPECT_EQ(s.last_cycle(), 7);
  EXPECT_EQ(s.num_failures(), 3);
  EXPECT_EQ(s.num_repairs(), 1);

  // Negative cycles and non-canonical wires are rejected.
  EXPECT_THROW(
      FaultSchedule::from_events(t, {{-1, w0, FaultEventKind::Fail}}), Error);
  const EdgeId non_canonical = t.reverse_edge(w0) == w0
                                   ? w0 + 1  // unreachable on a torus
                                   : t.reverse_edge(w0);
  if (t.undirected_id(non_canonical) != non_canonical) {
    EXPECT_THROW(FaultSchedule::from_events(
                     t, {{0, non_canonical, FaultEventKind::Fail}}),
                 Error);
  }
  EXPECT_THROW(FaultSchedule::from_events(
                   t, {{0, t.num_directed_edges(), FaultEventKind::Fail}}),
               Error);
}

TEST(FaultSchedule, EmptyScheduleDisablesRecovery) {
  const FaultSchedule empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.last_cycle(), 0);
  RecoveryConfig recovery;
  EXPECT_FALSE(recovery.enabled());
  recovery.schedule = &empty;
  EXPECT_FALSE(recovery.enabled());
}

TEST(FaultSchedule, SingleWireIsOnePermanentFailure) {
  Torus t(2, 4);
  const EdgeId w = wire_of(t, 3, 1);
  const FaultSchedule s = FaultSchedule::single_wire(t, w, 5);
  ASSERT_EQ(static_cast<i64>(s.events().size()), 1);
  EXPECT_EQ(s.events()[0].cycle, 5);
  EXPECT_EQ(s.events()[0].wire, w);
  EXPECT_EQ(s.events()[0].kind, FaultEventKind::Fail);
  EXPECT_EQ(s.num_repairs(), 0);
  // A non-canonical id is canonicalized, not rejected.
  const FaultSchedule via_rev = FaultSchedule::single_wire(t, t.reverse_edge(w));
  EXPECT_EQ(via_rev.events()[0].wire, w);
}

TEST(FaultSchedule, BernoulliIsDeterministicAndWellFormed) {
  Torus t(2, 4);
  const FaultSchedule a = FaultSchedule::bernoulli(t, 0.05, 0.2, 50, 11);
  const FaultSchedule b = FaultSchedule::bernoulli(t, 0.05, 0.2, 50, 11);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].cycle, b.events()[i].cycle);
    EXPECT_EQ(a.events()[i].wire, b.events()[i].wire);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
  }
  i64 prev = 0;
  for (const FaultEvent& ev : a.events()) {
    EXPECT_GE(ev.cycle, prev);
    EXPECT_LT(ev.cycle, 50);
    EXPECT_EQ(t.undirected_id(ev.wire), ev.wire);
    prev = ev.cycle;
  }
  // Rate 0 is silence; rate 1 with no repair fails every wire exactly once.
  EXPECT_TRUE(FaultSchedule::bernoulli(t, 0.0, 0.0, 50, 1).empty());
  const FaultSchedule all = FaultSchedule::bernoulli(t, 1.0, 0.0, 50, 1);
  EXPECT_EQ(all.num_failures(), t.num_undirected_edges());
  EXPECT_EQ(all.num_repairs(), 0);
  EXPECT_THROW(FaultSchedule::bernoulli(t, 1.5, 0.0, 10, 1), Error);
  EXPECT_THROW(FaultSchedule::bernoulli(t, 0.1, -0.1, 10, 1), Error);
  EXPECT_THROW(FaultSchedule::bernoulli(t, 0.1, 0.1, -1, 1), Error);
}

TEST(FaultSchedule, PeriodicAlternatesFailAndRepairPerWire) {
  Torus t(1, 6);
  const i64 mtbf = 7, mttr = 3, horizon = 40;
  const FaultSchedule s = FaultSchedule::periodic(t, mtbf, mttr, horizon, 3);
  const FaultSchedule same = FaultSchedule::periodic(t, mtbf, mttr, horizon, 3);
  EXPECT_EQ(s.events().size(), same.events().size());
  // Per wire the timeline strictly alternates Fail, Repair, Fail, ...
  // with the configured outage length.
  for (EdgeId e = 0; e < t.num_directed_edges(); ++e) {
    if (t.undirected_id(e) != e) continue;
    std::vector<FaultEvent> mine;
    for (const FaultEvent& ev : s.events())
      if (ev.wire == e) mine.push_back(ev);
    ASSERT_FALSE(mine.empty());
    for (std::size_t i = 0; i < mine.size(); ++i) {
      const bool expect_fail = i % 2 == 0;
      EXPECT_EQ(mine[i].kind == FaultEventKind::Fail, expect_fail);
      if (i > 0 && expect_fail) {
        EXPECT_EQ(mine[i].cycle - mine[i - 1].cycle, mtbf);
      }
      if (!expect_fail) {
        EXPECT_EQ(mine[i].cycle - mine[i - 1].cycle, mttr);
      }
    }
  }
  EXPECT_THROW(FaultSchedule::periodic(t, 0, 1, 10, 1), Error);
  EXPECT_THROW(FaultSchedule::periodic(t, 1, 0, 10, 1), Error);
}

TEST(FaultClock, ReplaysEventsAndBumpsEpochOnlyOnChange) {
  Torus t(2, 3);
  const EdgeId w0 = wire_of(t, 0, 0);
  const EdgeId w1 = wire_of(t, 0, 1);
  const FaultSchedule s = FaultSchedule::from_events(
      t, {{2, w1, FaultEventKind::Fail},
          {5, w0, FaultEventKind::Fail},
          {7, w1, FaultEventKind::Repair},
          {7, w0, FaultEventKind::Fail}});  // redundant: w0 already dead

  FaultClock clock(t, s);
  EXPECT_FALSE(clock.advance_to(1));
  EXPECT_EQ(clock.epoch(), 0u);
  EXPECT_EQ(clock.dead_wires(), 0);

  EXPECT_TRUE(clock.advance_to(2));
  EXPECT_EQ(clock.epoch(), 1u);
  EXPECT_EQ(clock.dead_wires(), 1);
  EXPECT_TRUE(clock.is_dead(w1));
  EXPECT_TRUE(clock.is_dead(t.reverse_edge(w1)));  // wire = both directions
  EXPECT_FALSE(clock.is_dead(w0));

  EXPECT_TRUE(clock.advance_to(6));
  EXPECT_EQ(clock.epoch(), 2u);
  EXPECT_EQ(clock.dead_wires(), 2);

  // Cycle 7 repairs w1 and replays a redundant fail of w0 (a no-op that
  // must not distort the counters).
  EXPECT_TRUE(clock.advance_to(10));
  EXPECT_EQ(clock.epoch(), 3u);
  EXPECT_EQ(clock.dead_wires(), 1);
  EXPECT_FALSE(clock.is_dead(w1));
  EXPECT_TRUE(clock.is_dead(w0));
  EXPECT_EQ(clock.fails_applied(), 2);
  EXPECT_EQ(clock.repairs_applied(), 1);
  EXPECT_FALSE(clock.advance_to(99));
  EXPECT_EQ(clock.epoch(), 3u);
}

TEST(FaultClock, InitialFaultSetCountsAsDead) {
  Torus t(2, 3);
  const EdgeId w = wire_of(t, 1, 0);
  EdgeSet initial(t);
  initial.insert(w);
  initial.insert(t.reverse_edge(w));
  const FaultSchedule empty;
  FaultClock clock(t, empty, &initial);
  EXPECT_TRUE(clock.is_dead(w));
  EXPECT_EQ(clock.dead_wires(), 1);
  EXPECT_EQ(clock.epoch(), 0u);
}

TEST(Recovery, NonEmptyScheduleRequiresRerouteRouter) {
  Torus t(2, 3);
  const FaultSchedule s = FaultSchedule::single_wire(t, wire_of(t, 0, 0));
  SimConfig config;
  config.recovery.schedule = &s;
  EXPECT_THROW(NetworkSim(t, nullptr, config), Error);
  EXPECT_THROW(
      AdaptiveNetworkSim(t, AdaptivePolicy::RandomMinimal, nullptr, nullptr,
                         config.recovery),
      Error);
  WormholeConfig wh;
  wh.recovery.schedule = &s;
  EXPECT_THROW(WormholeSim(t, wh), Error);
}

TEST(Recovery, RejectsBudgetsThatOverflowTheCycleBudget) {
  Torus t(2, 3);
  const FaultSchedule s = FaultSchedule::single_wire(t, wire_of(t, 0, 0));
  OdrRouter odr;
  // Refused at construction with a message naming both knobs.
  auto rejects = [](auto&& construct) {
    try {
      construct();
    } catch (const Error& e) {
      const std::string what = e.what();
      return what.find("max_retries") != std::string::npos &&
             what.find("backoff_base") != std::string::npos;
    }
    return false;
  };
  const std::pair<i64, i64> budgets[] = {
      {i64{1} << 62, 1},                // 2 * (max_retries + 1) overflows
      {8, 4'000'000'000'000'000'000},   // the largest wait overflows
      {20, i64{1} << 43},               // backoff_base << 20 overflows
      {i64{1} << 40, i64{1} << 30}};    // the slack product overflows
  for (const auto& [max_retries, backoff_base] : budgets) {
    RecoveryConfig recovery;
    recovery.schedule = &s;
    recovery.reroute_router = &odr;
    recovery.max_retries = max_retries;
    recovery.backoff_base = backoff_base;
    SimConfig config;
    config.recovery = recovery;
    WormholeConfig wh;
    wh.recovery = recovery;
    EXPECT_TRUE(rejects([&] { (void)NetworkSim(t, nullptr, config); }))
        << max_retries << ", " << backoff_base;
    EXPECT_TRUE(rejects([&] {
      (void)AdaptiveNetworkSim(t, AdaptivePolicy::RandomMinimal, nullptr,
                               nullptr, recovery);
    })) << max_retries << ", " << backoff_base;
    EXPECT_TRUE(rejects([&] { (void)WormholeSim(t, wh); }))
        << max_retries << ", " << backoff_base;
  }
  // A large budget that fits still runs: the ODR path dies for good and
  // the message is dropped after its retries.
  SimConfig config;
  config.recovery.schedule = &s;
  config.recovery.reroute_router = &odr;
  config.recovery.max_retries = 20;
  config.recovery.backoff_base = i64{1} << 20;
  const Path path = odr.canonical_path(t, 0, t.node_id(Coord{1, 0}));
  const SimMetrics m = NetworkSim(t, nullptr, config).run({{path, 0}});
  EXPECT_EQ(m.dropped, 1);
  EXPECT_EQ(m.retries, 20);
}

TEST(Recovery, NetworkSimEmptyScheduleMatchesFaultFreeBitForBit) {
  Torus t(2, 4);
  const Placement p = linear_placement(t);
  UdrRouter udr;
  const TrafficResult traffic = complete_exchange_traffic(t, p, udr, 5);

  obs::LinkProbe plain_probe(t.num_directed_edges(), t.dims());
  SimConfig plain_config;
  plain_config.probe = &plain_probe;
  const SimMetrics plain =
      NetworkSim(t, nullptr, plain_config).run(traffic.messages);

  const FaultSchedule empty;
  obs::LinkProbe rec_probe(t.num_directed_edges(), t.dims());
  SimConfig rec_config;
  rec_config.probe = &rec_probe;
  rec_config.recovery.schedule = &empty;
  rec_config.recovery.reroute_router = &udr;
  const SimMetrics rec =
      NetworkSim(t, nullptr, rec_config).run(traffic.messages);

  EXPECT_EQ(plain.cycles, rec.cycles);
  EXPECT_EQ(plain.delivered, rec.delivered);
  EXPECT_EQ(plain.max_queue_depth, rec.max_queue_depth);
  EXPECT_EQ(plain.max_link_forwards, rec.max_link_forwards);
  EXPECT_EQ(plain.link_forwards, rec.link_forwards);
  EXPECT_EQ(rec.dropped, 0);
  EXPECT_EQ(rec.retries, 0);
  EXPECT_EQ(rec.fail_events, 0);
  ASSERT_EQ(plain_probe.links().size(), rec_probe.links().size());
  for (std::size_t i = 0; i < plain_probe.links().size(); ++i)
    EXPECT_EQ(plain_probe.links()[i].forwards, rec_probe.links()[i].forwards);
}

TEST(Recovery, NetworkSimReroutesAroundAMidRunFault) {
  // UDR gives every s=2 pair two edge-disjoint paths: killing one wire
  // mid-run forces reroutes but loses nothing.
  Torus t(2, 3);
  const Placement p = linear_placement(t);
  UdrRouter udr;
  const TrafficResult traffic = complete_exchange_traffic(t, p, udr, 7);
  ASSERT_GT(traffic.messages.size(), 0u);
  const EdgeId w = t.undirected_id(traffic.messages[0].path.edges[0]);
  const FaultSchedule s = FaultSchedule::single_wire(t, w, 0);

  SimConfig config;
  config.recovery.schedule = &s;
  config.recovery.reroute_router = &udr;
  const SimMetrics m = NetworkSim(t, nullptr, config).run(traffic.messages);
  EXPECT_EQ(m.delivered, m.injected);
  EXPECT_EQ(m.dropped, 0);
  EXPECT_GE(m.rerouted, 1);
  EXPECT_EQ(m.fail_events, 1);
  EXPECT_EQ(m.repair_events, 0);
}

TEST(Recovery, NetworkSimRetriesAcrossARepair) {
  // ODR's unique path dies at cycle 0 and comes back at cycle 6: the
  // message must wait out backoffs and still deliver.
  Torus t(2, 3);
  OdrRouter odr;
  const NodeId src = 0, dst = t.node_id(Coord{1, 1});
  const Path path = odr.canonical_path(t, src, dst);
  const EdgeId w = t.undirected_id(path.edges[0]);
  const FaultSchedule s = FaultSchedule::from_events(
      t, {{0, w, FaultEventKind::Fail}, {6, w, FaultEventKind::Repair}});

  SimConfig config;
  config.recovery.schedule = &s;
  config.recovery.reroute_router = &odr;
  const SimMetrics m = NetworkSim(t, nullptr, config).run({{path, 0}});
  EXPECT_EQ(m.delivered, 1);
  EXPECT_EQ(m.dropped, 0);
  EXPECT_GE(m.retries, 1);
  EXPECT_EQ(m.fail_events, 1);
  EXPECT_EQ(m.repair_events, 1);
}

TEST(Recovery, NetworkSimDropsWhenEveryPathStaysDead) {
  Torus t(2, 3);
  OdrRouter odr;
  const NodeId src = 0, dst = t.node_id(Coord{1, 1});
  const Path path = odr.canonical_path(t, src, dst);
  const FaultSchedule s =
      FaultSchedule::single_wire(t, t.undirected_id(path.edges[0]));

  SimConfig config;
  config.recovery.schedule = &s;
  config.recovery.reroute_router = &odr;
  config.recovery.max_retries = 3;
  const SimMetrics m = NetworkSim(t, nullptr, config).run({{path, 0}});
  EXPECT_EQ(m.delivered, 0);
  EXPECT_EQ(m.dropped, 1);  // dropped, never crashed
  EXPECT_EQ(m.injected, 1);
}

TEST(Recovery, AdaptiveSimEmptyScheduleMatchesFaultFreeBitForBit) {
  Torus t(2, 4);
  const Placement p = linear_placement(t);
  std::vector<Demand> demands;
  for (NodeId a : p.nodes())
    for (NodeId b : p.nodes())
      if (a != b) demands.push_back({a, b, 0});

  AdaptiveMinimalRouter adaptive;
  for (AdaptivePolicy policy :
       {AdaptivePolicy::RandomMinimal, AdaptivePolicy::LeastQueue}) {
    obs::LinkProbe plain_probe(t.num_directed_edges(), t.dims());
    const SimMetrics plain =
        AdaptiveNetworkSim(t, policy, nullptr, &plain_probe).run(demands, 9);

    const FaultSchedule empty;
    RecoveryConfig recovery;
    recovery.schedule = &empty;
    recovery.reroute_router = &adaptive;
    obs::LinkProbe rec_probe(t.num_directed_edges(), t.dims());
    const SimMetrics rec =
        AdaptiveNetworkSim(t, policy, nullptr, &rec_probe, recovery)
            .run(demands, 9);

    EXPECT_EQ(plain.cycles, rec.cycles);
    EXPECT_EQ(plain.delivered, rec.delivered);
    EXPECT_EQ(plain.max_queue_depth, rec.max_queue_depth);
    ASSERT_EQ(plain_probe.links().size(), rec_probe.links().size());
    for (std::size_t i = 0; i < plain_probe.links().size(); ++i)
      EXPECT_EQ(plain_probe.links()[i].forwards,
                rec_probe.links()[i].forwards);
  }
}

TEST(Recovery, AdaptiveSimSurvivesEverySingleWireFault) {
  Torus t(2, 3);
  const Placement p = linear_placement(t);
  std::vector<Demand> demands;
  for (NodeId a : p.nodes())
    for (NodeId b : p.nodes())
      if (a != b) demands.push_back({a, b, 0});

  AdaptiveMinimalRouter adaptive;
  for (EdgeId e = 0; e < t.num_directed_edges(); ++e) {
    if (t.undirected_id(e) != e) continue;
    const FaultSchedule s = FaultSchedule::single_wire(t, e);
    RecoveryConfig recovery;
    recovery.schedule = &s;
    recovery.reroute_router = &adaptive;
    const SimMetrics m =
        AdaptiveNetworkSim(t, AdaptivePolicy::LeastQueue, nullptr, nullptr,
                           recovery)
            .run(demands, 3);
    EXPECT_EQ(m.delivered, static_cast<i64>(demands.size()))
        << "wire " << e;
    EXPECT_EQ(m.dropped, 0) << "wire " << e;
  }
}

TEST(Recovery, WormholeEmptyScheduleMatchesFaultFreeBitForBit) {
  Torus t(2, 4);
  const Placement p = linear_placement(t);
  UdrRouter udr;
  const TrafficResult traffic = complete_exchange_traffic(t, p, udr, 3);
  std::vector<Path> paths;
  for (const SimMessage& m : traffic.messages) paths.push_back(m.path);

  WormholeConfig plain;
  const WormholeResult a = WormholeSim(t, plain).run(paths);

  const FaultSchedule empty;
  WormholeConfig rec = plain;
  rec.recovery.schedule = &empty;
  rec.recovery.reroute_router = &udr;
  const WormholeResult b = WormholeSim(t, rec).run(paths);

  EXPECT_EQ(a.deadlocked, b.deadlocked);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.flits_moved, b.flits_moved);
  EXPECT_EQ(b.dropped, 0);
  EXPECT_EQ(b.retries, 0);
}

TEST(Recovery, WormholeTearsDownAndRetransmitsOverAFreshPath) {
  // The worm's first wire dies at cycle 1 (mid-transmission); teardown
  // frees the VCs and the retry resamples a surviving UDR path.
  Torus t(2, 4);
  OdrRouter odr;
  UdrRouter udr;
  const Path path = odr.canonical_path(t, 0, t.node_id(Coord{1, 1}));
  const FaultSchedule s =
      FaultSchedule::single_wire(t, t.undirected_id(path.edges[0]), 1);

  WormholeConfig config;
  config.message_flits = 4;
  config.recovery.schedule = &s;
  config.recovery.reroute_router = &udr;
  const WormholeResult r = WormholeSim(t, config).run({path});
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.delivered, 1);
  EXPECT_EQ(r.dropped, 0);
  EXPECT_GE(r.retries, 1);
  EXPECT_GE(r.rerouted, 1);
  EXPECT_EQ(r.fail_events, 1);
}

TEST(Recovery, WormholeDropsWhenNoPathSurvives) {
  // On a ring every pair has one minimal path; a permanent mid-path fault
  // exhausts the retry budget and the message is dropped, not deadlocked.
  Torus t(1, 6);
  OdrRouter odr;
  const Path path = odr.canonical_path(t, 0, 2);
  const FaultSchedule s =
      FaultSchedule::single_wire(t, t.undirected_id(path.edges[1]), 1);

  WormholeConfig config;
  config.message_flits = 3;
  config.recovery.schedule = &s;
  config.recovery.reroute_router = &odr;
  config.recovery.max_retries = 2;
  const WormholeResult r = WormholeSim(t, config).run({path});
  EXPECT_FALSE(r.deadlocked);
  EXPECT_EQ(r.delivered, 0);
  EXPECT_EQ(r.dropped, 1);
}

// ---------------------------------------------------------------------------
// RecoveryDifferential: one FNV-1a hash per (simulator, torus) over a grid
// of fault schedules, reroute routers, retry budgets and flow-control
// settings.  Every run folds in all result fields (doubles as raw bits),
// the per-link forwards and latency buckets, the LinkProbe counters when a
// probe is attached and, on traced runs, the tracer's (name, cat, phase,
// value) sequence and the nonzero sim.* registry metrics.  The expected
// hashes pin recovery bit for bit: wake order, reroute RNG draws, retry
// and drop counts, trace events.  AdaptiveNetworkSim's latency histogram
// is left out: it was empty when these hashes were recorded, and
// AdaptiveSim.DeliversTheCompleteExchange checks it instead.

class Fnv1a {
 public:
  void u(u64 v) {
    for (int i = 0; i < 8; ++i) {
      byte(v & 0xff);
      v >>= 8;
    }
  }
  void i(i64 v) { u(static_cast<u64>(v)); }
  void f(double v) { u(std::bit_cast<u64>(v)); }
  void s(std::string_view text) {
    u(text.size());
    for (char c : text) byte(static_cast<unsigned char>(c));
  }
  u64 value() const { return h_; }

 private:
  void byte(u64 b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  u64 h_ = 0xcbf29ce484222325ULL;
};

void hash_histogram(Fnv1a& h, const obs::HistogramData& d) {
  for (i64 c : d.counts) h.i(c);
  h.i(d.count);
  h.i(d.sum);
  h.i(d.min);
  h.i(d.max);
}

void hash_metrics(Fnv1a& h, const SimMetrics& m, bool with_latency) {
  for (i64 v : {m.cycles, m.injected, m.delivered, m.unroutable, m.dropped,
                m.retries, m.rerouted, m.fail_events, m.repair_events,
                m.flits_per_message, m.max_queue_depth, m.max_link_forwards})
    h.i(v);
  h.f(m.mean_latency);
  h.i(static_cast<i64>(m.link_forwards.size()));
  for (i64 f : m.link_forwards) h.i(f);
  if (with_latency) hash_histogram(h, m.latency);
}

void hash_wormhole(Fnv1a& h, const WormholeResult& r) {
  h.i(r.deadlocked ? 1 : 0);
  for (i64 v : {r.cycles, r.delivered, r.stuck_messages, r.flits_moved,
                r.dropped, r.retries, r.rerouted, r.fail_events,
                r.repair_events})
    h.i(v);
}

void hash_probe(Fnv1a& h, const obs::LinkProbe& probe) {
  for (const obs::LinkCounters& c : probe.links()) {
    h.i(c.forwards);
    h.i(c.busy_cycles);
    h.i(c.peak_queue);
    h.i(c.stalls);
  }
}

/// Runs `body` with the tracer and the metrics registry recording, then
/// folds the trace sequence and the nonzero sim.* metrics into `h`
/// (timing histograms, named *_us, are wall-clock and left out).
template <class Body>
void traced(Fnv1a& h, Body&& body) {
  obs::Tracer& tr = obs::tracer();
  obs::MetricsRegistry& reg = obs::registry();
  tr.clear();
  reg.reset();
  tr.set_enabled(true);
  reg.set_enabled(true);
  body();
  tr.set_enabled(false);
  reg.set_enabled(false);
  for (const obs::TraceEvent& ev : tr.events()) {
    h.s(ev.name);
    h.s(ev.cat);
    h.i(ev.phase);
    h.i(ev.value);
  }
  obs::MetricsSnapshot snap = reg.snapshot();
  auto is_sim = [](const std::string& name) {
    return name.starts_with("sim.") && !name.ends_with("_us");
  };
  for (auto* values : {&snap.counters, &snap.gauges}) {
    std::sort(values->begin(), values->end());
    for (const auto& [name, v] : *values)
      if (is_sim(name) && v != 0) {
        h.s(name);
        h.i(v);
      }
  }
  std::sort(snap.histograms.begin(), snap.histograms.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [name, data] : snap.histograms)
    if (is_sim(name) && data.count > 0) {
      h.s(name);
      hash_histogram(h, data);
    }
  tr.clear();
  reg.reset();
}

struct Budget {
  i64 max_retries;
  i64 backoff_base;
};
constexpr Budget kBudgets[] = {{0, 1}, {2, 3}, {8, 1}};

const Radices kDiffTori[] = {Radices{4, 4}, Radices{8, 8}, Radices{4, 4, 4},
                             Radices{3, 5}, Radices{4, 3, 5}};

/// A torus, a random placement on it and the fault schedules every
/// simulator replays there.  `hot` is the first wire of an ODR exchange
/// path (so faulting it hits traffic), `cold` a second wire used as a
/// static fault, and `horizon` bounds the generated timelines.
struct DiffSetup {
  DiffSetup(const Radices& radices, i64 procs, u64 seed)
      : torus(radices), placement(random_placement(torus, procs, seed)),
        static_faults(torus) {
    const TrafficResult odr_traffic =
        complete_exchange_traffic(torus, placement, odr, seed);
    hot = torus.undirected_id(odr_traffic.messages.front().path.edges.front());
    const EdgeId cold =
        torus.undirected_id(odr_traffic.messages.back().path.edges.back());
    static_faults.insert(cold);
    static_faults.insert(torus.reverse_edge(cold));
    for (const SimMessage& m : odr_traffic.messages)
      odr_paths.push_back(m.path);
    makespan = NetworkSim(torus).run(odr_traffic.messages).cycles;
  }

  /// empty, single_wire at 0 and mid-run, bernoulli permanent and with
  /// repairs at two rates each, periodic.
  std::vector<FaultSchedule> schedules(i64 run_length) const {
    const i64 horizon = std::max<i64>(run_length, 8);
    std::vector<FaultSchedule> s;
    s.emplace_back();
    s.push_back(FaultSchedule::single_wire(torus, hot, 0));
    s.push_back(FaultSchedule::single_wire(torus, hot, horizon / 2));
    for (double rate : {0.01, 0.04})
      s.push_back(FaultSchedule::bernoulli(torus, rate, 0.0, horizon, 17));
    for (double rate : {0.01, 0.04})
      s.push_back(FaultSchedule::bernoulli(torus, rate, 0.25, horizon, 23));
    s.push_back(FaultSchedule::periodic(torus, std::max<i64>(horizon / 3, 2),
                                        3, horizon, 29));
    return s;
  }

  std::array<const Router*, 3> routers() const { return {&odr, &udr, &adaptive}; }

  Torus torus;
  Placement placement;
  EdgeSet static_faults;
  EdgeId hot = 0;
  i64 makespan = 0;
  std::vector<Path> odr_paths;
  OdrRouter odr;
  UdrRouter udr;
  AdaptiveMinimalRouter adaptive;
};

/// Points `recovery` at schedule `si` (-1 = no schedule at all).
void attach(RecoveryConfig& recovery, const std::vector<FaultSchedule>& all,
            int si, const Router* router, const Budget& budget, u64 seed) {
  if (si < 0) return;
  recovery.schedule = &all[static_cast<std::size_t>(si)];
  recovery.reroute_router = router;
  recovery.max_retries = budget.max_retries;
  recovery.backoff_base = budget.backoff_base;
  recovery.seed = seed;
}

u64 network_sim_hash(const Radices& radices, u64 seed) {
  const DiffSetup setup(radices, 8, seed);
  const Torus& t = setup.torus;
  const std::vector<FaultSchedule> schedules = setup.schedules(setup.makespan);
  Fnv1a h;
  i64 run = 0;
  for (const Router* router : setup.routers()) {
    const TrafficResult traffic =
        complete_exchange_traffic(t, setup.placement, *router, seed + 1);
    for (int si = -1; si < static_cast<int>(schedules.size()); ++si)
      for (const Budget& budget : kBudgets)
        for (i64 flits : {1, 3})
          for (bool with_static : {false, true}) {
            if (with_static && (flits != 1 || budget.max_retries != 2))
              continue;
            obs::LinkProbe probe(t.num_directed_edges(), t.dims());
            SimConfig config;
            config.flits_per_message = flits;
            config.probe = run % 2 == 0 ? &probe : nullptr;
            attach(config.recovery, schedules, si, router, budget,
                   static_cast<u64>(5 + run));
            NetworkSim sim(t, with_static ? &setup.static_faults : nullptr,
                           config);
            SimMetrics m;
            if (run % 3 == 1)
              traced(h, [&] { m = sim.run(traffic.messages); });
            else
              m = sim.run(traffic.messages);
            hash_metrics(h, m, /*with_latency=*/true);
            if (config.probe != nullptr) hash_probe(h, probe);
            ++run;
          }
  }
  return h.value();
}

u64 adaptive_sim_hash(const Radices& radices, u64 seed) {
  const DiffSetup setup(radices, 8, seed);
  const Torus& t = setup.torus;
  const std::vector<FaultSchedule> schedules = setup.schedules(setup.makespan);
  std::vector<Demand> demands;
  for (NodeId a : setup.placement.nodes())
    for (NodeId b : setup.placement.nodes())
      demands.push_back({a, b, static_cast<i64>(demands.size() % 3)});
  Fnv1a h;
  i64 run = 0;
  for (const Router* router : setup.routers())
    for (int si = -1; si < static_cast<int>(schedules.size()); ++si)
      for (const Budget& budget : kBudgets)
        for (AdaptivePolicy policy :
             {AdaptivePolicy::RandomMinimal, AdaptivePolicy::LeastQueue})
          for (bool with_static : {false, true}) {
            if (with_static && budget.max_retries != 2) continue;
            obs::LinkProbe probe(t.num_directed_edges(), t.dims());
            RecoveryConfig recovery;
            attach(recovery, schedules, si, router, budget,
                   static_cast<u64>(5 + run));
            AdaptiveNetworkSim sim(
                t, policy, with_static ? &setup.static_faults : nullptr,
                run % 2 == 0 ? &probe : nullptr, recovery);
            SimMetrics m;
            const u64 traffic_seed = static_cast<u64>(9 + run);
            if (run % 3 == 1)
              traced(h, [&] { m = sim.run(demands, traffic_seed); });
            else
              m = sim.run(demands, traffic_seed);
            hash_metrics(h, m, /*with_latency=*/false);
            if (run % 2 == 0) hash_probe(h, probe);
            ++run;
          }
  return h.value();
}

/// Wormhole grid: traffic_by_router[i] runs with setup.routers()[i] as the
/// reroute router, under schedules whose horizon is the first traffic's
/// fault-free Dateline makespan.
void wormhole_grid(Fnv1a& h, const DiffSetup& setup,
                   const std::vector<std::vector<Path>>& traffic_by_router,
                   WormholeConfig base) {
  const Torus& t = setup.torus;
  WormholeConfig baseline = base;
  baseline.policy = VcPolicy::Dateline;
  baseline.vcs_per_link = std::max(base.vcs_per_link, 2);
  const std::vector<FaultSchedule> schedules = setup.schedules(
      WormholeSim(t, baseline).run(traffic_by_router.front()).cycles);
  i64 run = 0;
  for (std::size_t ri = 0; ri < traffic_by_router.size(); ++ri)
    for (int si = -1; si < static_cast<int>(schedules.size()); ++si)
      for (VcPolicy policy :
           {VcPolicy::SingleVc, VcPolicy::AnyFree, VcPolicy::Dateline})
        for (i64 flits : {1, 8}) {
          WormholeConfig config = base;
          config.policy = policy;
          if (policy == VcPolicy::Dateline)
            config.vcs_per_link = std::max(config.vcs_per_link, 2);
          config.message_flits = flits;
          obs::LinkProbe probe(t.num_directed_edges(), t.dims());
          config.probe = run % 2 == 0 ? &probe : nullptr;
          attach(config.recovery, schedules, si, setup.routers()[ri],
                 kBudgets[static_cast<std::size_t>(run % 3)],
                 static_cast<u64>(5 + run));
          WormholeSim sim(t, config);
          const std::vector<Path>& paths = traffic_by_router[ri];
          WormholeResult r;
          if (run % 3 == 1)
            traced(h, [&] { r = sim.run(paths); });
          else
            r = sim.run(paths);
          hash_wormhole(h, r);
          if (config.probe != nullptr) hash_probe(h, probe);
          ++run;
        }
}

u64 wormhole_hash(const Radices& radices, u64 seed) {
  const DiffSetup setup(radices, 5, seed);
  std::vector<std::vector<Path>> traffic_by_router;
  for (const Router* router : setup.routers()) {
    std::vector<Path> paths;
    for (const SimMessage& m :
         complete_exchange_traffic(setup.torus, setup.placement, *router,
                                   seed + 1)
             .messages)
      paths.push_back(m.path);
    traffic_by_router.push_back(std::move(paths));
  }
  WormholeConfig base;
  base.stall_threshold = 200;
  Fnv1a h;
  wormhole_grid(h, setup, traffic_by_router, base);
  return h.value();
}

/// The ring: every node sends halfway round (the classic one-VC deadlock,
/// the same paths for every reroute router) and then a full exchange.
u64 wormhole_ring_hash() {
  const DiffSetup setup(Radices{6}, 6, 3);
  OdrRouter odr;
  std::vector<Path> shift;
  for (NodeId n = 0; n < setup.torus.num_nodes(); ++n)
    shift.push_back(odr.canonical_path(
        setup.torus, n, mod_norm(n + 3, setup.torus.num_nodes())));
  WormholeConfig base;
  base.vcs_per_link = 1;
  base.buffer_flits = 2;
  base.stall_threshold = 200;
  Fnv1a h;
  wormhole_grid(h, setup, {shift, shift, shift}, base);
  base.vcs_per_link = 2;
  wormhole_grid(h, setup, {setup.odr_paths}, base);
  return h.value();
}

std::string hex(u64 v) {
  std::ostringstream out;
  out << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
  return out.str();
}

TEST(RecoveryDifferential, NetworkSimMatchesRecordedHashes) {
  const u64 expected[] = {0x5a484c9c828217c5, 0xaae6183488d357dc,
                          0x9e2566f6885c8900, 0xff12fd20c3e75867,
                          0xbf009b3f1e073096};
  for (std::size_t i = 0; i < std::size(kDiffTori); ++i) {
    const u64 got = network_sim_hash(kDiffTori[i], i + 1);
    EXPECT_EQ(got, expected[i]) << "torus #" << i << ": " << hex(got);
  }
}

TEST(RecoveryDifferential, AdaptiveSimMatchesRecordedHashes) {
  const u64 expected[] = {0xc10ee11c1e928086, 0x8e70c51fb6029360,
                          0x3ceeed219eb92d25, 0xa2ffac325b87a9dd,
                          0x5ca671fcc8972ba1};
  for (std::size_t i = 0; i < std::size(kDiffTori); ++i) {
    const u64 got = adaptive_sim_hash(kDiffTori[i], i + 1);
    EXPECT_EQ(got, expected[i]) << "torus #" << i << ": " << hex(got);
  }
}

TEST(RecoveryDifferential, WormholeSimMatchesRecordedHashes) {
  const u64 expected[] = {0x0da463181393f456, 0x41002564da95ca08,
                          0xe56591b3b3f0eb5d, 0x7cf67b853ff12dd2,
                          0xd2e78fff93fe1c73};
  for (std::size_t i = 0; i < std::size(kDiffTori); ++i) {
    const u64 got = wormhole_hash(kDiffTori[i], i + 1);
    EXPECT_EQ(got, expected[i]) << "torus #" << i << ": " << hex(got);
  }
  const u64 ring = wormhole_ring_hash();
  EXPECT_EQ(ring, 0x7dca24bff0e33df3u) << "ring: " << hex(ring);
}

}  // namespace
}  // namespace tp
