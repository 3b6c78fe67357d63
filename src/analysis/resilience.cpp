#include "src/analysis/resilience.h"

#include <algorithm>
#include <fstream>

#include "src/obs/json.h"
#include "src/obs/linkprobe.h"
#include "src/simulate/network_sim.h"
#include "src/simulate/traffic.h"
#include "src/util/checked_io.h"
#include "src/util/error.h"
#include "src/util/parallel.h"

namespace tp {

namespace {

/// Busiest link's measured forwards — the degraded counterpart of E_max.
double probe_emax(const obs::LinkProbe& probe) {
  i64 best = 0;
  for (const obs::LinkCounters& c : probe.links())
    best = std::max(best, c.forwards);
  return static_cast<double>(best);
}

/// One complete-exchange run.  A null schedule (or an empty one) runs the
/// fault-free baseline; recovery reroutes through `router` otherwise.
SimMetrics run_exchange(const Torus& torus,
                        const std::vector<SimMessage>& messages,
                        const FaultSchedule* schedule, const Router& router,
                        const ResilienceConfig& config,
                        obs::LinkProbe* probe) {
  SimConfig sim_config;
  sim_config.probe = probe;
  if (schedule != nullptr) {
    sim_config.recovery.schedule = schedule;
    sim_config.recovery.reroute_router = &router;
    sim_config.recovery.max_retries = config.max_retries;
    sim_config.recovery.backoff_base = config.backoff_base;
    sim_config.recovery.seed = config.recovery_seed;
  }
  NetworkSim sim(torus, nullptr, sim_config);
  return sim.run(messages);
}

}  // namespace

DegradationReport degradation_report(const Torus& torus, const Placement& p,
                                     const Router& router,
                                     const FaultSchedule& schedule,
                                     const ResilienceConfig& config) {
  TP_REQUIRE(p.size() >= 2,
             "degradation analysis needs at least two processors");
  const TrafficResult traffic =
      complete_exchange_traffic(torus, p, router, config.traffic_seed);

  obs::LinkProbe baseline_probe(torus.num_directed_edges(), torus.dims());
  const SimMetrics baseline = run_exchange(torus, traffic.messages, nullptr,
                                           router, config, &baseline_probe);
  obs::LinkProbe degraded_probe(torus.num_directed_edges(), torus.dims());
  const SimMetrics degraded = run_exchange(torus, traffic.messages, &schedule,
                                           router, config, &degraded_probe);

  DegradationReport r;
  r.router_name = router.name();
  r.injected = degraded.injected;
  r.delivered = degraded.delivered;
  static_cast<RecoveryStats&>(r) = degraded;
  r.delivered_fraction =
      degraded.injected > 0
          ? static_cast<double>(degraded.delivered) /
                static_cast<double>(degraded.injected)
          : 1.0;
  r.baseline_cycles = baseline.cycles;
  r.cycles = degraded.cycles;
  r.completion_inflation =
      baseline.cycles > 0 ? static_cast<double>(degraded.cycles) /
                                static_cast<double>(baseline.cycles)
                          : 1.0;
  r.baseline_emax = probe_emax(baseline_probe);
  r.degraded_emax = probe_emax(degraded_probe);
  r.emax_inflation =
      r.baseline_emax > 0.0 ? r.degraded_emax / r.baseline_emax : 1.0;
  return r;
}

i64 resilience_horizon(const Torus& torus, const Placement& p,
                       const Router& router, const ResilienceConfig& config) {
  // The fault window defaults to the design's own fault-free makespan so
  // every rate stresses the active phase of the exchange.
  if (config.horizon > 0) return config.horizon;
  const TrafficResult traffic =
      complete_exchange_traffic(torus, p, router, config.traffic_seed);
  const i64 makespan =
      run_exchange(torus, traffic.messages, nullptr, router, config, nullptr)
          .cycles;
  return std::max<i64>(makespan, 1);
}

std::vector<DegradationReport> resilience_sweep(
    const Torus& torus, const Placement& p, const Router& router,
    const std::vector<double>& fault_rates, const ResilienceConfig& config) {
  TP_REQUIRE(!fault_rates.empty(), "resilience sweep needs fault rates");
  for (double rate : fault_rates)
    TP_REQUIRE(rate >= 0.0 && rate <= 1.0,
               "fault rate must be a probability in [0, 1]");

  const i64 horizon = resilience_horizon(torus, p, router, config);

  std::vector<DegradationReport> curve;
  curve.reserve(fault_rates.size());
  for (double rate : fault_rates) {
    const FaultSchedule schedule = FaultSchedule::bernoulli(
        torus, rate, config.repair_prob, horizon, config.schedule_seed);
    DegradationReport r =
        degradation_report(torus, p, router, schedule, config);
    r.fault_rate = rate;
    curve.push_back(std::move(r));
  }
  return curve;
}

std::vector<WireCriticality> wire_criticality(const Torus& torus,
                                              const Placement& p,
                                              const Router& router,
                                              const ResilienceConfig& config,
                                              i32 threads) {
  TP_REQUIRE(p.size() >= 2,
             "criticality analysis needs at least two processors");
  TP_REQUIRE(threads >= 1, "need at least one thread");
  const TrafficResult traffic =
      complete_exchange_traffic(torus, p, router, config.traffic_seed);

  std::vector<EdgeId> wires;
  for (EdgeId e = 0; e < torus.num_directed_edges(); ++e)
    if (torus.undirected_id(e) == e) wires.push_back(e);

  // One independent single-fault run per wire; a static block partition
  // over the wire list gives every thread count the same per-wire results.
  std::vector<WireCriticality> out(wires.size());
  parallel_for_blocks(
      static_cast<i64>(wires.size()), threads,
      [&](i32 /*worker*/, i64 begin, i64 end) {
        for (i64 i = begin; i < end; ++i) {
          const EdgeId wire = wires[static_cast<std::size_t>(i)];
          const FaultSchedule schedule =
              FaultSchedule::single_wire(torus, wire);
          const SimMetrics m = run_exchange(torus, traffic.messages,
                                            &schedule, router, config,
                                            nullptr);
          WireCriticality& w = out[static_cast<std::size_t>(i)];
          w.wire = wire;
          w.dropped = m.dropped;
          w.rerouted = m.rerouted;
          w.delivered_fraction =
              m.injected > 0 ? static_cast<double>(m.delivered) /
                                   static_cast<double>(m.injected)
                             : 1.0;
        }
      });

  std::stable_sort(out.begin(), out.end(),
                   [](const WireCriticality& a, const WireCriticality& b) {
                     if (a.delivered_fraction != b.delivered_fraction)
                       return a.delivered_fraction < b.delivered_fraction;
                     if (a.dropped != b.dropped) return a.dropped > b.dropped;
                     return a.wire < b.wire;
                   });
  return out;
}

std::string encode_degradation_report(const DegradationReport& r) {
  util::ByteBuffer buf;
  buf.put_string(r.router_name);
  buf.put_f64(r.fault_rate);
  buf.put_i64(r.injected);
  buf.put_i64(r.delivered);
  buf.put_i64(r.dropped);
  buf.put_i64(r.retries);
  buf.put_i64(r.rerouted);
  buf.put_i64(r.fail_events);
  buf.put_i64(r.repair_events);
  buf.put_f64(r.delivered_fraction);
  buf.put_i64(r.baseline_cycles);
  buf.put_i64(r.cycles);
  buf.put_f64(r.completion_inflation);
  buf.put_f64(r.baseline_emax);
  buf.put_f64(r.degraded_emax);
  buf.put_f64(r.emax_inflation);
  return buf.data();
}

DegradationReport decode_degradation_report(std::string_view payload) {
  util::ByteView view(payload);
  DegradationReport r;
  r.router_name = view.get_string();
  r.fault_rate = view.get_f64();
  r.injected = view.get_i64();
  r.delivered = view.get_i64();
  r.dropped = view.get_i64();
  r.retries = view.get_i64();
  r.rerouted = view.get_i64();
  r.fail_events = view.get_i64();
  r.repair_events = view.get_i64();
  r.delivered_fraction = view.get_f64();
  r.baseline_cycles = view.get_i64();
  r.cycles = view.get_i64();
  r.completion_inflation = view.get_f64();
  r.baseline_emax = view.get_f64();
  r.degraded_emax = view.get_f64();
  r.emax_inflation = view.get_f64();
  TP_REQUIRE(view.empty(), "degradation report: trailing bytes");
  return r;
}

std::string degradation_json_line(const DegradationReport& r) {
  obs::JsonValue line = obs::JsonValue::object();
  line.set("router", obs::JsonValue(r.router_name));
  line.set("fault_rate", obs::JsonValue(r.fault_rate));
  line.set("injected", obs::JsonValue(r.injected));
  line.set("delivered", obs::JsonValue(r.delivered));
  line.set("dropped", obs::JsonValue(r.dropped));
  line.set("retries", obs::JsonValue(r.retries));
  line.set("rerouted", obs::JsonValue(r.rerouted));
  line.set("fail_events", obs::JsonValue(r.fail_events));
  line.set("repair_events", obs::JsonValue(r.repair_events));
  line.set("delivered_fraction", obs::JsonValue(r.delivered_fraction));
  line.set("baseline_cycles", obs::JsonValue(r.baseline_cycles));
  line.set("cycles", obs::JsonValue(r.cycles));
  line.set("completion_inflation", obs::JsonValue(r.completion_inflation));
  line.set("baseline_emax", obs::JsonValue(r.baseline_emax));
  line.set("degraded_emax", obs::JsonValue(r.degraded_emax));
  line.set("emax_inflation", obs::JsonValue(r.emax_inflation));
  return line.dump();
}

std::string resilience_jsonl(const std::vector<DegradationReport>& curve) {
  std::string out;
  for (const DegradationReport& r : curve) {
    out += degradation_json_line(r);
    out += '\n';
  }
  return out;
}

void export_resilience_jsonl(const std::vector<DegradationReport>& curve,
                             const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  TP_REQUIRE(os.good(), "cannot open '" + path + "' for writing");
  os << resilience_jsonl(curve);
  TP_REQUIRE(os.good(), "write to '" + path + "' failed");
}

}  // namespace tp
