// torusplace — command-line interface to the library.
//
//   torusplace analyze   --d 3 --k 8 --t 1 --router odr
//       plan + exact loads + all lower bounds for a design
//   torusplace bisect    --d 3 --k 8 --t 1
//       Theorem 1 cut, hyperplane sweep, and (tiny tori) the exact optimum
//   torusplace routes    --d 3 --k 5 --src 0,0,0 --dst 2,3,1 --router udr
//       enumerate the path set C_{p->q} of a pair
//   torusplace simulate  --d 2 --k 8 --t 1 --router udr --faults 4 --flits 2
//       cycle-accurate complete exchange on the (possibly degraded) network
//   torusplace verify    --d 2 --ks 4,6,8,10 --router odr
//       certify linear load across a k sweep (the optimality criterion)
//   torusplace deadlock  --d 2 --k 4 --router udr
//       channel-dependency-graph analysis with and without datelines
//   torusplace sweep     --d 3 --ks 4,6,8 --router odr
//       E_max table across k with the paper's formulas
//   torusplace batch     requests.jsonl --threads 8
//       answer a JSONL request file through the query engine
//   torusplace serve     --stdio | --tcp <addr:port>
//       JSONL request/response server (stdin/stdout pipe or concurrent
//       TCP front-end); answers the admin ops (statusz/metricsz/cachez/
//       slowz/quitz) inline, drains gracefully on SIGTERM/quitz, and
//       dumps the slow-query log to stderr on shutdown
//   torusplace loadgen   --connect <addr:port> --mode closed --clients 32
//       open-/closed-loop traffic driver against serve --tcp: QPS,
//       p50/p99/p999, error/timeout counts, uniform/zipf key skew
//   torusplace version
//       build provenance (version, git describe, compiler, flags)

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/grid_render.h"
#include "src/analysis/table.h"
#include "src/core/torusplace.h"
#include "src/net/loadgen.h"
#include "src/net/socket.h"
#include "src/net/tcp_server.h"
#include "src/obs/obs.h"
#include "src/routing/deadlock.h"
#include "src/service/service.h"
#include "src/util/build_info.h"
#include "src/util/checked_io.h"
#include "src/util/parallel.h"
#include "tools/cli_args.h"

namespace tp::cli {
namespace {

RouterKind parse_router(const std::string& s) {
  if (s == "udr") return RouterKind::Udr;
  if (s == "adaptive") return RouterKind::Adaptive;
  if (s == "odr" || s.empty()) return RouterKind::Odr;
  throw Error("unknown router '" + s + "' (odr|udr|adaptive)");
}

std::vector<i32> parse_int_list(const std::string& s) {
  std::vector<i32> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ','))
    out.push_back(static_cast<i32>(std::strtol(item.c_str(), nullptr, 10)));
  return out;
}

Coord parse_coord(const std::string& s) {
  const auto ints = parse_int_list(s);
  Coord c;
  for (i32 v : ints) c.push_back(v);
  return c;
}

std::vector<double> parse_double_list(const std::string& s) {
  std::vector<double> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    TP_REQUIRE(end != item.c_str() && *end == '\0',
               "not a number: '" + item + "'");
    out.push_back(v);
  }
  return out;
}

/// Engine configuration shared by every command that routes through the
/// query service (analyze, sweep, batch, serve).
service::EngineConfig engine_config(const Args& args) {
  service::EngineConfig config;
  config.threads = static_cast<i32>(args.get_int("threads", 0));
  config.cache_capacity =
      static_cast<std::size_t>(args.get_int("cache", 1024));
  config.default_deadline_ms = args.get_int("deadline-ms", 0);
  config.slow_log_capacity =
      static_cast<std::size_t>(args.get_int("slow-log", 16));
  // Durability (docs/durability.md): --cache-file names the snapshot,
  // --cache-load warms the boot, --cache-save[=ms] arms the shutdown save
  // (and, with a value, periodic background saves during serve).
  config.snapshot_path = args.get("cache-file");
  config.snapshot_load = args.has("cache-load");
  config.snapshot_save = args.has("cache-save");
  if (config.snapshot_save)
    config.snapshot_interval_ms = args.get_int("cache-save", 0);
  if ((config.snapshot_load || config.snapshot_save) &&
      config.snapshot_path.empty())
    throw UsageError("--cache-load/--cache-save need --cache-file <path>");
  return config;
}

/// Boot-time cache report (stderr, so JSONL/table stdout stays clean).
/// Silent unless a warm-up was requested; a refused snapshot reports the
/// structured reason and the run continues cold.
void report_snapshot_boot(const service::Engine& engine, std::ostream& err) {
  const service::SnapshotStatus snap = engine.snapshot_status();
  if (!snap.load_attempted) return;
  if (snap.load_outcome == "warm")
    err << "cache: warm boot, " << snap.warm_entries << " entr(ies) from "
        << engine.config().snapshot_path << "\n";
  else
    err << "cache: cold boot (" << snap.load_outcome << ")\n";
}

/// Explicit end-of-run snapshot for --cache-save (the Engine destructor
/// would also save, but saving here lets the outcome be reported).
void final_snapshot_save(service::Engine& engine, std::ostream& err) {
  if (!engine.config().snapshot_save) return;
  const bool ok = engine.save_snapshot();
  const service::SnapshotStatus snap = engine.snapshot_status();
  if (ok)
    err << "cache: saved " << snap.last_save_entries << " entr(ies) to "
        << engine.config().snapshot_path << "\n";
  else
    err << "cache: snapshot save failed (" << snap.last_save_outcome << ")\n";
}

/// Human-readable slow-query dump (stderr, so JSONL stdout stays clean).
void dump_slow_queries(const service::Engine& engine, std::ostream& err) {
  const auto slowest = engine.slowest_requests();
  if (!slowest.empty()) {
    err << "slowest requests:\n";
    for (const service::RequestSpan& s : slowest)
      err << "  " << s.request_id << " " << s.key.str() << " "
          << service::span_outcome_name(s.outcome) << " total=" << s.total_us
          << "us queue=" << s.queue_us << "us compute=" << s.compute_us
          << "us fanin=" << s.fanin << "\n";
  }
  const auto failures = engine.recent_failures();
  if (!failures.empty()) {
    err << "recent failures:\n";
    for (const service::RequestSpan& s : failures)
      err << "  " << s.request_id << " " << s.key.str() << " "
          << service::span_outcome_name(s.outcome) << " total=" << s.total_us
          << "us\n";
  }
}

int cmd_analyze(const Args& args) {
  const i32 d = static_cast<i32>(args.get_int("d", 3));
  const i32 k = static_cast<i32>(args.get_int("k", 8));
  const i32 t = static_cast<i32>(args.get_int("t", 1));
  const RouterKind kind = parse_router(args.get("router"));
  Torus torus(d, k);

  if (!args.has("placement")) {
    // The default design (multiple linear placement) is exactly what the
    // query engine serves: one Analyze query — plan + exact loads +
    // bounds — sharing the PlanCache/obs machinery with batch and sweep.
    service::Engine engine(engine_config(args));
    service::Request req;
    req.key = service::make_query_key(torus.radices(), t, kind,
                                      service::QueryOp::Analyze);
    const service::Response resp = engine.run(req);
    if (!resp.ok) throw Error(resp.error);
    const service::QueryResult& r = *resp.result;

    std::cout << r.placement_name << " + " << r.router_name << " on T_" << k
              << "^" << d << ", |P| = " << r.placement_size << "\n\n";

    Table table({"quantity", "value"});
    table.add_row({"measured E_max", fmt(r.measured_emax)});
    table.add_row({"E_max / |P|",
                   fmt(r.measured_emax /
                       static_cast<double>(r.placement_size))});
    table.add_row({"mean link load", fmt(r.mean_load)});
    table.add_row({"loaded links",
                   fmt(static_cast<long long>(r.loaded_links))});
    table.print(std::cout);

    std::cout << "\nlower bounds:\n";
    Table bounds({"bound", "value", "applicable", "note"});
    for (const BoundValue& b : r.bound_table)
      bounds.add_row({b.name, fmt(b.value), fmt_bool(b.applicable), b.note});
    if (r.has_slab)
      bounds.add_row({"slab search", fmt(r.slab.value), "yes",
                      "dim " + std::to_string(r.slab.dim) + ", layers [" +
                          std::to_string(r.slab.lo) + "," +
                          std::to_string(r.slab.lo + r.slab.len) + ")"});
    bounds.print(std::cout);

    if (d == 2 && k <= 12) {
      // Answers keep no per-link map; the grid render re-measures the
      // (small, deterministic) default design.
      const Placement placement = multiple_linear_placement(torus, t);
      std::cout << "\n"
                << render_loads(torus, placement,
                                measure_loads(torus, placement, kind, 1));
    }
    engine.publish_stats();
    return 0;
  }

  // Custom placement spec: not a cacheable (d, k, t, router) design, so
  // compute directly.
  const Placement placement = make_placement(torus, args.get("placement"));
  std::cout << placement.name() << " + " << make_router(kind)->name()
            << " on T_" << k << "^" << d << ", |P| = " << placement.size()
            << "\n\n";

  const LoadMap loads = measure_loads(torus, placement, kind, 1);
  Table table({"quantity", "value"});
  table.add_row({"measured E_max", fmt(loads.max_load())});
  table.add_row({"E_max / |P|", fmt(loads.max_load() /
                                    static_cast<double>(placement.size()))});
  table.add_row({"mean link load", fmt(loads.mean_load())});
  table.add_row({"loaded links",
                 fmt(static_cast<long long>(loads.num_loaded_edges()))});
  table.print(std::cout);

  std::cout << "\nlower bounds:\n";
  Table bounds({"bound", "value", "applicable", "note"});
  for (const BoundValue& b : all_bounds(torus, placement))
    bounds.add_row({b.name, fmt(b.value), fmt_bool(b.applicable), b.note});
  if (placement.size() >= 2) {
    const SlabBound slab = best_slab_bound(torus, placement);
    bounds.add_row({"slab search", fmt(slab.value), "yes",
                    "dim " + std::to_string(slab.dim) + ", layers [" +
                        std::to_string(slab.lo) + "," +
                        std::to_string(slab.lo + slab.len) + ")"});
  }
  bounds.print(std::cout);

  if (d == 2 && k <= 12) {
    std::cout << "\n" << render_loads(torus, placement, loads);
  }
  return 0;
}

int cmd_render(const Args& args) {
  const i32 k = static_cast<i32>(args.get_int("k", 8));
  const RouterKind kind = parse_router(args.get("router"));
  Torus torus(2, k);
  const Placement placement =
      make_placement(torus, args.get("placement", "linear"));
  std::cout << placement.name() << " on T_" << k << "^2:\n\n"
            << render_placement(torus, placement) << "\n";
  if (args.has("measured")) {
    // Heat map from a cycle-accurate run instead of the analytic E(l):
    // run the complete exchange with a link probe attached and render the
    // per-link forward counts.
    const auto router = make_router(kind);
    const auto traffic = complete_exchange_traffic(
        torus, placement, *router,
        static_cast<u64>(args.get_int("seed", 1)));
    obs::LinkProbe probe(torus.num_directed_edges(), torus.dims());
    SimConfig config;
    config.probe = &probe;
    NetworkSim sim(torus, nullptr, config);
    sim.run(traffic.messages);
    std::cout << "measured loads under " << router->name()
              << " (cycle-accurate run):\n\n"
              << render_loads(torus, placement,
                              probe_load_map(torus, probe));
  } else {
    const LoadMap loads = measure_loads(torus, placement, kind);
    std::cout << "loads under " << make_router(kind)->name() << ":\n\n"
              << render_loads(torus, placement, loads);
  }
  return 0;
}

int cmd_save(const Args& args) {
  const i32 d = static_cast<i32>(args.get_int("d", 2));
  const i32 k = static_cast<i32>(args.get_int("k", 8));
  const std::string out = args.get("out");
  TP_REQUIRE(!out.empty(), "save needs --out <path>");
  Torus torus(d, k);
  const Placement placement =
      make_placement(torus, args.get("placement", "linear"));
  save_placement(out, torus, placement);
  std::cout << "wrote " << placement.size() << " processors ("
            << placement.name() << ") to " << out << "\n";
  return 0;
}

int cmd_optimize(const Args& args) {
  const i32 d = static_cast<i32>(args.get_int("d", 2));
  const i32 k = static_cast<i32>(args.get_int("k", 4));
  const i64 size = args.get_int("size", powi(k, d - 1));
  const RouterKind kind = parse_router(args.get("router"));
  const i64 iters = args.get_int("iters", 2000);
  Torus torus(d, k);

  const double linear =
      torus.is_uniform_radix() && size == powi(k, d - 1)
          ? measure_loads(torus, linear_placement(torus), kind).max_load()
          : -1.0;

  SearchResult result =
      saturating_binomial(torus.num_nodes(), size) <= 200000
          ? exhaustive_best_placement(torus, size, kind)
          : anneal_placement(torus, size, kind, iters,
                             static_cast<u64>(args.get_int("seed", 17)));
  std::cout << "searched " << result.evaluated << " placements of size "
            << size << " on T_" << k << "^" << d << " ("
            << make_router(kind)->name() << ")\n";
  std::cout << "best E_max = " << result.emax;
  if (linear >= 0.0) std::cout << "  (linear placement: " << linear << ")";
  std::cout << "\nbest placement:";
  for (NodeId n : result.placement.nodes())
    std::cout << " " << torus.node_str(n);
  std::cout << "\n";
  return 0;
}

int cmd_profile(const Args& args) {
  const i32 d = static_cast<i32>(args.get_int("d", 3));
  const i32 k = static_cast<i32>(args.get_int("k", 6));
  const RouterKind kind = parse_router(args.get("router"));
  Torus torus(d, k);
  const Placement placement =
      make_placement(torus, args.get("placement", "linear"));
  const LoadMap loads = measure_loads(torus, placement, kind);

  Table table({"dim", "dir", "max load", "mean load", "total"});
  for (const DirectionProfile& prof : load_profile(torus, loads))
    table.add_row({fmt(prof.dim), prof.dir == Dir::Pos ? "+" : "-",
                   fmt(prof.max_load), fmt(prof.mean_load),
                   fmt(prof.total_load)});
  table.print(std::cout);
  std::cout << "\ndirection asymmetry (+/-):";
  for (i32 dim = 0; dim < d; ++dim)
    std::cout << "  dim " << dim << ": "
              << fmt(direction_asymmetry(torus, loads, dim), 3);
  std::cout << "\n";
  return 0;
}

int cmd_tables(const Args& args) {
  const i32 d = static_cast<i32>(args.get_int("d", 2));
  const i32 k = static_cast<i32>(args.get_int("k", 6));
  Torus torus(d, k);
  const Placement placement =
      make_placement(torus, args.get("placement", "linear"));
  Table table({"router", "table entries", "worst node", "per pair paths"});
  for (RouterKind kind :
       {RouterKind::Odr, RouterKind::Udr, RouterKind::Adaptive}) {
    const auto router = make_router(kind);
    RoutingTable rt(torus, placement, *router);
    rt.verify(torus);
    // Representative path count: the farthest pair.
    NodeId far_a = placement.nodes().front(), far_b = far_a;
    i64 far_dist = 0;
    for (NodeId a : placement.nodes())
      for (NodeId b : placement.nodes())
        if (torus.lee_distance(a, b) > far_dist) {
          far_dist = torus.lee_distance(a, b);
          far_a = a;
          far_b = b;
        }
    table.add_row({router->name(), fmt(rt.num_entries()),
                   fmt(rt.max_entries_per_node()),
                   fmt(router->num_paths(torus, far_a, far_b))});
  }
  table.print(std::cout);
  return 0;
}

int cmd_bisect(const Args& args) {
  const i32 d = static_cast<i32>(args.get_int("d", 3));
  const i32 k = static_cast<i32>(args.get_int("k", 8));
  const i32 t = static_cast<i32>(args.get_int("t", 1));
  Torus torus(d, k);
  const Placement p = multiple_linear_placement(torus, t);

  const auto cut = best_dimension_cut(torus, p);
  std::cout << "Theorem 1 dimension cut: dim " << cut.dim << ", boundaries "
            << cut.first_boundary << "|" << cut.first_boundary + 1 << " and "
            << cut.second_boundary << "|"
            << (cut.second_boundary + 1) % k << ", " << cut.directed_edges
            << " directed links (paper: " << uniform_bisection_width(k, d)
            << "), imbalance " << cut.imbalance << "\n";

  const auto sweep = hyperplane_sweep_bisection(torus, p);
  std::cout << "Hyperplane sweep (gamma = "
            << static_cast<double>(sweep.gamma) << "): "
            << sweep.array_crossings << " array + " << sweep.wrap_crossings
            << " wrap wires crossed, " << sweep.directed_edges
            << " directed links (bounds: " << sweep_separator_upper_bound(k, d)
            << " array wires, " << bisection_width_upper_bound(k, d)
            << " directed links)\n";

  if (torus.num_nodes() <= 24) {
    const auto exact = exact_bisection(torus, p);
    std::cout << "Exact optimum (brute force): " << exact.directed_edges
              << " directed links\n";
  }
  return 0;
}

int cmd_routes(const Args& args) {
  const i32 d = static_cast<i32>(args.get_int("d", 3));
  const i32 k = static_cast<i32>(args.get_int("k", 5));
  const RouterKind kind = parse_router(args.get("router", "udr"));
  Torus torus(d, k);
  const NodeId src = torus.node_id(parse_coord(args.get("src", "0,0,0")));
  const NodeId dst = torus.node_id(parse_coord(args.get("dst", "1,2,3")));
  const auto router = make_router(kind);

  std::cout << router->name() << " paths " << torus.node_str(src) << " -> "
            << torus.node_str(dst) << " (Lee distance "
            << torus.lee_distance(src, dst) << "):\n";
  const auto paths = router->paths(torus, src, dst);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    std::cout << "  " << i + 1 << ": ";
    const auto nodes = paths[i].nodes(torus);
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      if (j > 0) std::cout << " -> ";
      std::cout << torus.node_str(nodes[j]);
    }
    std::cout << "\n";
  }
  std::cout << paths.size() << " path(s)\n";
  return 0;
}

int cmd_simulate(const Args& args) {
  const i32 d = static_cast<i32>(args.get_int("d", 2));
  const i32 k = static_cast<i32>(args.get_int("k", 8));
  const i32 t = static_cast<i32>(args.get_int("t", 1));
  const i64 n_faults = args.get_int("faults", 0);
  const i64 flits = args.get_int("flits", 1);
  const u64 seed = static_cast<u64>(args.get_int("seed", 1));
  const RouterKind kind = parse_router(args.get("router"));
  const std::string link_json = args.get("link-json");
  const bool want_links = args.has("link-stats") || !link_json.empty();
  const i64 top_n = args.get_int("link-stats", 10);

  // Phase spans: plan (design construction) -> route (path assignment)
  // -> sim (cycle-accurate execution).
  std::optional<obs::Scope> phase;
  phase.emplace(obs::PhaseName("plan"));
  Torus torus(d, k);
  const Placement p = multiple_linear_placement(torus, t);
  const auto router = make_router(kind);
  const EdgeSet faults = sample_wire_faults(torus, n_faults, seed);
  phase.reset();

  phase.emplace(obs::PhaseName("route"));
  const auto traffic = complete_exchange_traffic(
      torus, p, *router, seed, n_faults > 0 ? &faults : nullptr);
  phase.reset();

  std::optional<obs::LinkProbe> probe;
  if (want_links) probe.emplace(torus.num_directed_edges(), torus.dims());
  SimConfig config;
  config.flits_per_message = flits;
  config.probe = probe ? &*probe : nullptr;
  NetworkSim sim(torus, n_faults > 0 ? &faults : nullptr, config);
  phase.emplace(obs::PhaseName("sim"));
  const SimMetrics m = sim.run(traffic.messages);
  phase.reset();

  Table table({"metric", "value"});
  table.add_row({"processors", fmt(static_cast<long long>(p.size()))});
  table.add_row({"messages injected", fmt(static_cast<long long>(m.injected))});
  table.add_row({"delivered", fmt(static_cast<long long>(m.delivered))});
  table.add_row({"unroutable pairs",
                 fmt(static_cast<long long>(traffic.unroutable_pairs))});
  table.add_row({"makespan (cycles)", fmt(static_cast<long long>(m.cycles))});
  table.add_row({"mean latency", fmt(m.mean_latency)});
  table.add_row({"latency p50", fmt(m.latency_p50())});
  table.add_row({"latency p95", fmt(m.latency_p95())});
  table.add_row({"latency max",
                 fmt(static_cast<long long>(m.latency_max()))});
  table.add_row({"peak queue depth",
                 fmt(static_cast<long long>(m.max_queue_depth))});
  table.add_row({"busiest link forwards",
                 fmt(static_cast<long long>(m.max_link_forwards))});
  table.add_row({"bottleneck utilization", fmt(m.bottleneck_utilization())});
  table.print(std::cout);

  if (probe) {
    // `forwards` counts messages (the link stays busy `flits` cycles per
    // message), so it is directly comparable to the unit-load E(l).
    const LoadMap measured = probe_load_map(torus, *probe);
    const ImbalanceReport report =
        analyze_imbalance(torus, measured, static_cast<std::size_t>(top_n));
    std::cout << "\nhotspots (measured load = messages forwarded):\n";
    hotspot_table(report).print(std::cout);
    std::cout << "load distribution: mean " << fmt(report.mean_load)
              << ", max " << fmt(report.max_load) << ", CoV "
              << fmt(report.cov) << ", max/mean " << fmt(report.max_to_mean)
              << ", loaded links " << report.loaded_links << "/"
              << report.total_links << "\n";

    if (n_faults == 0) {
      // The analytic map describes the fault-free complete exchange; under
      // faults the traffic itself differs, so skip the comparison there.
      const LoadMap predicted = measure_loads(torus, p, kind);
      const auto residuals = load_residuals(torus, measured, predicted,
                                            static_cast<std::size_t>(top_n));
      if (residuals.empty()) {
        std::cout << "\nmeasured forwards match the analytic E(l) on every "
                     "link\n";
      } else {
        std::cout << "\nlargest measured-vs-predicted E(l) residuals (UDR "
                     "samples one path per pair; the analytic map averages "
                     "over all):\n";
        residual_table(residuals).print(std::cout);
      }
    }

    if (!link_json.empty()) {
      obs::LinkExportMeta meta;
      meta.run = "simulate T_" + std::to_string(k) + "^" + std::to_string(d) +
                 " " + router->name();
      meta.cycles = m.cycles;
      meta.flits_per_message = flits;
      meta.edge_labels.reserve(
          static_cast<std::size_t>(torus.num_directed_edges()));
      for (EdgeId e = 0; e < torus.num_directed_edges(); ++e)
        meta.edge_labels.push_back(torus.edge_str(e));
      obs::export_link_jsonl(*probe, meta, link_json);
      std::cout << "\nwrote link telemetry to " << link_json << "\n";
    }
  }
  return 0;
}

int cmd_resilience(const Args& args) {
  const i32 d = static_cast<i32>(args.get_int("d", 2));
  const i32 k = static_cast<i32>(args.get_int("k", 8));
  const i32 t = static_cast<i32>(args.get_int("t", 1));
  const u64 seed = static_cast<u64>(args.get_int("seed", 1));
  const auto rates =
      parse_double_list(args.get("rates", "0,0.0002,0.0005,0.001,0.002"));
  const std::string json_path = args.get("json");
  const i64 top_n = args.get_int("criticality", 10);

  ResilienceConfig config;
  config.traffic_seed = seed;
  config.schedule_seed = seed * 2 + 5;
  config.recovery_seed = seed * 3 + 7;
  config.max_retries = args.get_int("retries", 8);
  config.backoff_base = args.get_int("backoff", 1);
  config.repair_prob = args.has("repair")
                           ? parse_double_list(args.get("repair")).at(0)
                           : 0.0;
  config.horizon = args.get_int("horizon", 0);

  std::optional<obs::Scope> phase;
  phase.emplace(obs::PhaseName("plan"));
  Torus torus(d, k);
  const Placement p = multiple_linear_placement(torus, t);
  phase.reset();

  std::cout << p.name() << " on T_" << k << "^" << d << ", |P| = "
            << p.size() << ", repair_prob = " << fmt(config.repair_prob)
            << ", retries = " << config.max_retries << "\n\n";

  // --checkpoint=dir: one journal cell per (router, rate) plus one per
  // router's derived fault horizon, computed exactly as resilience_sweep
  // would (resilience_horizon + the same bernoulli schedule), so a
  // resumed curve is byte-identical to an uninterrupted one.
  std::optional<service::CheckpointJournal> journal;
  const std::string checkpoint_dir = args.get("checkpoint");
  if (!checkpoint_dir.empty()) {
    std::string run_key = "resilience/1 " + service::snapshot_build_key() +
                          " d=" + std::to_string(d) +
                          " k=" + std::to_string(k) +
                          " t=" + std::to_string(t) +
                          " seed=" + std::to_string(seed) + " rates=";
    for (double rate : rates) run_key += fmt(rate, 6) + ",";
    run_key += " repair=" + fmt(config.repair_prob, 6) +
               " retries=" + std::to_string(config.max_retries) +
               " backoff=" + std::to_string(config.backoff_base) +
               " horizon=" + std::to_string(config.horizon);
    journal.emplace(checkpoint_dir, "resilience", run_key);
  }
  i64 computed = 0;

  // Degradation curves: fault rate x router.
  phase.emplace(obs::PhaseName("sweep"));
  std::vector<DegradationReport> all;
  Table table({"router", "fault rate", "delivered", "dropped",
               "delivered fraction", "makespan", "inflation",
               "degraded E_max", "retries", "reroutes"});
  for (RouterKind kind :
       {RouterKind::Odr, RouterKind::Udr, RouterKind::Adaptive}) {
    const auto router = make_router(kind);
    std::vector<DegradationReport> curve;
    if (!journal) {
      curve = resilience_sweep(torus, p, *router, rates, config);
    } else {
      // Per-cell replica of resilience_sweep: the horizon derivation is
      // itself a cell (it costs a fault-free simulation), then each rate
      // is one cell.
      const std::string horizon_cell = std::string(router->name()) +
                                       " horizon";
      i64 horizon = 0;
      if (const std::string* payload = journal->find(horizon_cell)) {
        util::ByteView view(*payload);
        horizon = view.get_i64();
      } else {
        horizon = resilience_horizon(torus, p, *router, config);
        util::ByteBuffer buf;
        buf.put_i64(horizon);
        journal->record(horizon_cell, buf.data());
        ++computed;
      }
      for (std::size_t i = 0; i < rates.size(); ++i) {
        const std::string cell = std::string(router->name()) + " rate[" +
                                 std::to_string(i) + "]";
        if (const std::string* payload = journal->find(cell)) {
          curve.push_back(decode_degradation_report(*payload));
          continue;
        }
        const FaultSchedule schedule =
            FaultSchedule::bernoulli(torus, rates[i], config.repair_prob,
                                     horizon, config.schedule_seed);
        DegradationReport r =
            degradation_report(torus, p, *router, schedule, config);
        r.fault_rate = rates[i];
        journal->record(cell, encode_degradation_report(r));
        ++computed;
        curve.push_back(std::move(r));
      }
    }
    for (const DegradationReport& r : curve) {
      table.add_row({r.router_name, fmt(r.fault_rate, 4),
                     fmt(static_cast<long long>(r.delivered)),
                     fmt(static_cast<long long>(r.dropped)),
                     fmt(r.delivered_fraction),
                     fmt(static_cast<long long>(r.cycles)),
                     fmt(r.completion_inflation), fmt(r.degraded_emax),
                     fmt(static_cast<long long>(r.retries)),
                     fmt(static_cast<long long>(r.rerouted))});
      all.push_back(r);
    }
  }
  phase.reset();
  table.print(std::cout);
  if (journal)
    std::cerr << "checkpoint: resumed " << journal->resumed_cells()
              << " completed cell(s), computed " << computed << " ("
              << journal->path() << ")\n";

  if (args.has("criticality")) {
    // Per-wire criticality under the selected router (default odr, the
    // fragile end of the spectrum).
    const RouterKind kind = parse_router(args.get("router"));
    const auto router = make_router(kind);
    const i32 threads =
        static_cast<i32>(args.get_int("threads", default_threads()));
    phase.emplace(obs::PhaseName("criticality"));
    const auto ranking = wire_criticality(torus, p, *router, config, threads);
    phase.reset();
    std::cout << "\nmost critical wires under " << router->name()
              << " (single permanent wire fault each):\n";
    Table crit({"wire", "delivered fraction", "dropped", "reroutes"});
    const std::size_t rows =
        std::min(ranking.size(), static_cast<std::size_t>(top_n));
    for (std::size_t i = 0; i < rows; ++i)
      crit.add_row({torus.edge_str(ranking[i].wire),
                    fmt(ranking[i].delivered_fraction),
                    fmt(static_cast<long long>(ranking[i].dropped)),
                    fmt(static_cast<long long>(ranking[i].rerouted))});
    crit.print(std::cout);
  }

  if (!json_path.empty()) {
    export_resilience_jsonl(all, json_path);
    std::cout << "\nwrote degradation curves to " << json_path << "\n";
  }
  return 0;
}

int cmd_verify(const Args& args) {
  const i32 d = static_cast<i32>(args.get_int("d", 2));
  const auto ks = parse_int_list(args.get("ks", "4,6,8,10"));
  const RouterKind kind = parse_router(args.get("router"));
  const i32 t = static_cast<i32>(args.get_int("t", 1));

  const auto family = [t](const Torus& torus) {
    return multiple_linear_placement(torus, t);
  };
  const VerificationReport report = verify_linear_load(d, ks, family, kind);

  std::cout << "family " << report.family_name << " with "
            << report.router_name << ", d = " << d << ":\n\n";
  Table table({"k", "|P|", "E_max", "E_max/|P|"});
  for (const ScalingPoint& pt : report.points)
    table.add_row({fmt(static_cast<long long>(pt.k)),
                   fmt(static_cast<long long>(pt.placement_size)),
                   fmt(pt.emax),
                   fmt(pt.emax / static_cast<double>(pt.placement_size))});
  table.print(std::cout);
  std::cout << "\nfitted c1 = " << report.c1 << ", linear load: "
            << (report.linear ? "CERTIFIED" : "VIOLATED") << "\n";
  return report.linear ? 0 : 2;
}

int cmd_deadlock(const Args& args) {
  const i32 d = static_cast<i32>(args.get_int("d", 2));
  const i32 k = static_cast<i32>(args.get_int("k", 4));
  const RouterKind kind = parse_router(args.get("router"));
  Torus torus(d, k);
  const Placement p = full_population(torus);
  const auto router = make_router(kind);

  const ChannelGraph physical = physical_channel_graph(torus, p, *router);
  const ChannelGraph dateline = dateline_channel_graph(torus, p, *router);
  Table table({"channel model", "channels", "dependencies", "cyclic"});
  table.add_row({"physical", fmt(static_cast<long long>(physical.adj.size())),
                 fmt(static_cast<long long>(physical.num_dependencies())),
                 fmt_bool(has_cycle(physical))});
  table.add_row({"2 VCs + dateline",
                 fmt(static_cast<long long>(dateline.adj.size())),
                 fmt(static_cast<long long>(dateline.num_dependencies())),
                 fmt_bool(has_cycle(dateline))});
  table.print(std::cout);
  std::cout << "\n" << router->name() << " is "
            << (has_cycle(dateline) ? "NOT " : "")
            << "deadlock-free under the dateline scheme\n";
  return 0;
}

int cmd_sweep(const Args& args) {
  const i32 d = static_cast<i32>(args.get_int("d", 3));
  const auto ks = parse_int_list(args.get("ks", "4,6,8"));
  const RouterKind kind = parse_router(args.get("router"));
  const i32 t = static_cast<i32>(args.get_int("t", 1));

  // Every cell goes through the query engine: repeated (d, k, t, router)
  // cells coalesce onto one computation / hit the cache instead of being
  // re-planned, and distinct cells compute concurrently on the pool.
  // --stats-json reports the dedup (service.cache_hits / coalesced).
  service::Engine engine(engine_config(args));
  report_snapshot_boot(engine, std::cerr);

  // --checkpoint=dir: journal each completed cell so a killed run resumes
  // from the last completed cell.  Results round-trip bit-exactly
  // (snapshot.h), so a resumed table is byte-identical to an
  // uninterrupted one.  The run key pins the full parameterization plus
  // the build, refusing a journal from a different run.
  std::optional<service::CheckpointJournal> journal;
  const std::string checkpoint_dir = args.get("checkpoint");
  if (!checkpoint_dir.empty()) {
    std::string ks_text;
    for (i32 k : ks) ks_text += std::to_string(k) + ",";
    journal.emplace(checkpoint_dir, "sweep",
                    "sweep/1 " + service::snapshot_build_key() + " d=" +
                        std::to_string(d) + " ks=" + ks_text +
                        " t=" + std::to_string(t) + " router=" +
                        service::router_name_short(kind));
  }

  std::vector<service::QueryKey> keys;
  std::vector<std::optional<service::Engine::Ticket>> tickets(ks.size());
  keys.reserve(ks.size());
  for (std::size_t i = 0; i < ks.size(); ++i) {
    keys.push_back(service::make_query_key(Torus(d, ks[i]).radices(), t,
                                           kind, service::QueryOp::Load));
    if (journal && journal->find(keys[i].str()) != nullptr)
      continue;  // already completed by a previous (killed) run
    service::Request req;
    req.key = keys[i];
    tickets[i] = engine.submit(req);
  }

  i64 computed = 0;
  Table table({"k", "|P|", "E_max", "E_max/|P|", "best lower bound",
               "paper prediction"});
  for (std::size_t i = 0; i < ks.size(); ++i) {
    std::shared_ptr<const service::QueryResult> result;
    if (tickets[i]) {
      const service::Response resp = tickets[i]->wait();
      if (!resp.ok) throw Error(resp.error);
      result = resp.result;
      if (journal) {
        journal->record(keys[i].str(),
                        service::encode_query_result(*result));
        ++computed;
      }
    } else {
      result = std::make_shared<const service::QueryResult>(
          service::decode_query_result(*journal->find(keys[i].str())));
    }
    const service::QueryResult& r = *result;
    table.add_row({fmt(static_cast<long long>(ks[i])),
                   fmt(static_cast<long long>(r.placement_size)),
                   fmt(r.measured_emax),
                   fmt(r.measured_emax /
                       static_cast<double>(r.placement_size)),
                   fmt(r.lower_bound),
                   (r.prediction_exact ? "= " : "<= ") +
                       fmt(r.predicted_emax)});
  }
  table.print(std::cout);
  if (journal)
    std::cerr << "checkpoint: resumed " << journal->resumed_cells()
              << " completed cell(s), computed " << computed << " ("
              << journal->path() << ")\n";
  engine.publish_stats();
  final_snapshot_save(engine, std::cerr);
  return 0;
}

int cmd_batch(const Args& args) {
  std::string path = args.get("in");
  if (path.empty() && !args.positional().empty())
    path = args.positional().front();
  TP_REQUIRE(!path.empty(), "batch needs a <requests.jsonl> file (or --in)");
  std::ifstream in(path);
  TP_REQUIRE(in.good(), "cannot open '" + path + "'");

  service::Engine engine(engine_config(args));
  report_snapshot_boot(engine, std::cerr);
  i64 n = 0;
  const std::string out_path = args.get("out");
  if (out_path.empty()) {
    n = service::run_batch(engine, in, std::cout);
  } else {
    std::ofstream out(out_path);
    TP_REQUIRE(out.good(), "cannot write '" + out_path + "'");
    n = service::run_batch(engine, in, out);
  }
  engine.publish_stats();
  // Responses own stdout (JSONL); the human-readable summary goes to
  // stderr so piped output stays parseable.
  const service::EngineStats s = engine.stats();
  std::cerr << "batch: " << n << " request(s), " << s.plans_computed
            << " plan(s) computed, " << s.cache_hits << " cache hit(s), "
            << s.coalesced << " coalesced, " << s.timeouts
            << " timeout(s), " << s.errors << " error(s)\n";
  final_snapshot_save(engine, std::cerr);
  return 0;
}

// SIGTERM/SIGINT graceful drain for serve.  --stdio: the handler closes
// stdin — async-signal-safe — so the JSONL loop sees end-of-input,
// finishes the requests already accepted, and falls through to the
// normal shutdown path (final snapshot included).  --tcp: the handler
// writes one byte to the server's drain-wakeup pipe instead (equally
// signal-safe), which stops the acceptor, stops reading every socket,
// and flushes all in-flight responses before closing.  sigaction is
// installed without SA_RESTART on purpose: a read blocked on the
// terminal must be interrupted, not transparently restarted.
std::atomic<int> g_shutdown_signal{0};
std::atomic<int> g_drain_fd{-1};

void handle_shutdown_signal(int sig) {
  g_shutdown_signal.store(sig);
  const int fd = g_drain_fd.load();
  if (fd >= 0) {
    const char byte = net::WakePipe::kDrain;
    [[maybe_unused]] const auto rc = ::write(fd, &byte, 1);
  } else {
    ::close(0);
  }
}

void install_shutdown_handlers() {
  struct sigaction sa = {};
  sa.sa_handler = handle_shutdown_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

/// Shared serve epilogue: registry fold, summary, slow-query dump, final
/// snapshot — identical for both transports.
void serve_epilogue(service::Engine& engine, i64 served) {
  if (const int sig = g_shutdown_signal.load(); sig != 0)
    std::cerr << "serve: graceful shutdown on signal " << sig << "\n";
  engine.publish_stats();
  const service::EngineStats s = engine.stats();
  std::cerr << "serve: " << served << " request(s), " << s.plans_computed
            << " plan(s) computed, " << s.cache_hits << " cache hit(s)\n";
  dump_slow_queries(engine, std::cerr);
  final_snapshot_save(engine, std::cerr);
}

int cmd_serve(const Args& args) {
  const bool stdio = args.has("stdio");
  const std::string tcp = args.get("tcp");
  if (stdio == !tcp.empty())
    throw UsageError(
        "serve needs exactly one transport: --stdio (JSONL over "
        "stdin/stdout) or --tcp <addr:port>");
  // A long-lived server always keeps the registry live so {"op":"metricsz"}
  // has something to report (batch/one-shot commands stay opt-in via
  // --stats-json / TP_OBS).
  obs::registry().set_enabled(true);
  service::Engine engine(engine_config(args));
  report_snapshot_boot(engine, std::cerr);

  if (stdio) {
    install_shutdown_handlers();
    const i64 n = service::run_serve(engine, std::cin, std::cout);
    serve_epilogue(engine, n);
    return 0;
  }

  const net::HostPort endpoint = net::parse_host_port(tcp);
  net::TcpServerConfig server_config;
  server_config.host = endpoint.host;
  server_config.port = endpoint.port;
  server_config.max_conns = args.get_int("max-conns", 64);
  server_config.max_line_bytes =
      static_cast<std::size_t>(args.get_int("max-line-bytes", 1 << 20));
  net::TcpServer server(engine, server_config);
  server.start();
  g_drain_fd.store(server.drain_wakeup_fd());
  install_shutdown_handlers();
  std::cerr << "serve: listening on " << server.address() << "\n";
  // --port-file: publish the resolved endpoint (ephemeral --tcp :0 ports
  // included) for scripts that start the server in the background.
  const std::string port_file = args.get("port-file");
  if (!port_file.empty()) {
    std::ofstream out(port_file);
    TP_REQUIRE(out.good(), "cannot write '" + port_file + "'");
    out << server.address() << "\n";
  }

  server.wait_until_drained();
  g_drain_fd.store(-1);
  server.publish_stats();
  const net::TcpServerStats net_stats = server.stats();
  std::cerr << "serve: " << net_stats.accepted << " connection(s), "
            << net_stats.responses << " response(s), " << net_stats.rejected
            << " rejected connection(s)\n";
  serve_epilogue(engine, net_stats.requests);
  return 0;
}

int cmd_loadgen(const Args& args) {
  const std::string connect = args.get("connect");
  TP_REQUIRE(!connect.empty(),
             "loadgen needs --connect <addr:port> (a running "
             "`torusplace serve --tcp`)");
  const net::HostPort endpoint = net::parse_host_port(connect);
  TP_REQUIRE(endpoint.port != 0, "loadgen cannot connect to port 0");

  net::LoadgenConfig config;
  config.host = endpoint.host;
  config.port = endpoint.port;
  const std::string mode = args.get("mode", "closed");
  if (mode == "open")
    config.open_loop = true;
  else
    TP_REQUIRE(mode == "closed", "loadgen --mode must be open|closed");
  config.clients = static_cast<i32>(args.get_int("clients", 8));
  if (args.has("rate")) {
    char* end = nullptr;
    config.rate = std::strtod(args.get("rate").c_str(), &end);
    TP_REQUIRE(end != args.get("rate").c_str() && *end == '\0' &&
                   config.rate > 0.0,
               "--rate must be a positive number");
  }
  config.duration_ms = args.get_int("duration-ms", 5000);
  config.warmup_ms = args.get_int("warmup-ms", 1000);
  const std::string skew = args.get("skew", "uniform");
  if (skew == "zipf")
    config.zipf = true;
  else
    TP_REQUIRE(skew == "uniform", "loadgen --skew must be uniform|zipf");
  if (args.has("zipf-s")) {
    char* end = nullptr;
    config.zipf_s = std::strtod(args.get("zipf-s").c_str(), &end);
    TP_REQUIRE(end != args.get("zipf-s").c_str() && *end == '\0' &&
                   config.zipf_s > 0.0,
               "--zipf-s must be a positive number");
  }
  config.universe = args.get_int("universe", 64);
  config.seed = static_cast<u64>(args.get_int("seed", 1));
  config.deadline_ms = args.get_int("deadline-ms", 0);

  const net::LoadgenReport report = net::run_loadgen(config);
  net::print_report(report, config, std::cout);
  // --json <path>: append one JSONL record per run (benchstat-style
  // longitudinal tracking across runs).
  const std::string json_path = args.get("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::app);
    TP_REQUIRE(out.good(), "cannot write '" + json_path + "'");
    out << net::report_to_json(report, config).dump() << "\n";
  }
  // The report carries the outcome (errors/timeouts/torn); the exit code
  // stays 0 so scripted sweeps can collect degraded points too.
  return 0;
}

int cmd_version() {
  const BuildInfo& b = build_info();
  std::cout << "torusplace " << b.version << " (" << b.git_describe << ")\n"
            << "build: " << b.build_type << ", " << b.compiler << "\n"
            << "flags: " << b.flags << "\n";
  return 0;
}

/// Prints the usage text on stdout.  Returns kExitOk when it was asked
/// for (help, --help, <command> --help), else kExitUsage.
int usage(int rc = kExitUsage) {
  std::cout <<
      "torusplace — optimal placements in torus networks\n"
      "\n"
      "usage: torusplace <command> [options]\n"
      "\n"
      "commands:\n"
      "  analyze   loads + bounds for a design        (--d --k --t --router)\n"
      "  bisect    bisections w.r.t. the placement    (--d --k --t)\n"
      "  routes    enumerate C_{p->q} for a pair      (--d --k --src --dst --router)\n"
      "  simulate  cycle-accurate complete exchange   (--d --k --t --router --faults --flits --seed\n"
      "                                                --link-stats[=N] --link-json <path>)\n"
      "  resilience degradation under dynamic faults  (--d --k --t --rates --repair --retries\n"
      "                                                --backoff --horizon --seed --json <path>\n"
      "                                                --criticality[=N] --router --threads\n"
      "                                                --checkpoint <dir>)\n"
      "  verify    certify linear load over a k sweep (--d --ks --t --router)\n"
      "  deadlock  channel-dependency analysis        (--d --k --router)\n"
      "  sweep     E_max table across k               (--d --ks --t --router --threads --cache\n"
      "                                                --checkpoint <dir>)\n"
      "  batch     answer a JSONL request file        (<file> | --in <file>; --out <path>\n"
      "                                                --threads --cache --deadline-ms)\n"
      "  serve     JSONL request/response server      (--stdio | --tcp <addr:port>;\n"
      "                                                --threads --cache --deadline-ms\n"
      "                                                --slow-log <N>;\n"
      "                                                TCP: --max-conns <N> --max-line-bytes <N>\n"
      "                                                --port-file <path>)\n"
      "  loadgen   drive a serve --tcp endpoint       (--connect <addr:port> --mode open|closed\n"
      "                                                --clients <N> --rate <req/s>\n"
      "                                                --duration-ms --warmup-ms\n"
      "                                                --skew uniform|zipf --zipf-s <s>\n"
      "                                                --universe <N> --seed --deadline-ms\n"
      "                                                --json <path>)\n"
      "  version   build provenance (version, git, compiler, flags)\n"
      "  tables    compiled routing-table statistics  (--d --k --placement)\n"
      "  optimize  search same-size placements        (--d --k --size --router --iters --seed)\n"
      "  profile   per-dimension/direction loads      (--d --k --placement --router)\n"
      "  render    draw a 2-D torus + loads           (--k --placement --router --measured)\n"
      "  save      write a placement file             (--d --k --placement --out)\n"
      "\n"
      "placements (--placement): linear[:c] multiple:t diagonal[:s] full\n"
      "  random:n[:seed] clustered:n subtorus:dim:v perfect_lee modular:m[:c]\n"
      "\n"
      "JSONL request schema (batch/serve), one object per line:\n"
      "  {\"id\":1, \"op\":\"plan|bounds|load|analyze\", \"d\":3, \"k\":8,\n"
      "   \"t\":1, \"router\":\"odr\", \"deadline_ms\":250}\n"
      "  (\"radices\":[8,8,8] instead of d/k; the radices must be equal;\n"
      "   see docs/service.md for the full schema)\n"
      "  admin ops: {\"op\":\"statusz|metricsz|cachez|slowz|quitz\"}\n"
      "  (metricsz takes \"format\":\"json|prometheus\")\n"
      "\n"
      "global flags (all commands):\n"
      "  --help               print this text (also `torusplace help`)\n"
      "  --stats-json <path>  dump counters/histograms as one JSON line\n"
      "  --trace <path>       write Chrome-trace phase spans + per-window\n"
      "                       counter tracks (Perfetto)\n"
      "  --profile[=<path>]   in-process profiler: phase cost table on\n"
      "                       stderr, optional collapsed-stack (flamegraph)\n"
      "                       file; `torusplace profile <command> ...` is\n"
      "                       shorthand for the same\n"
      "\n"
      "link telemetry (simulate):\n"
      "  --link-stats[=N]     per-link probes: top-N hotspot table (default\n"
      "                       10), CoV/max-to-mean, measured-vs-predicted\n"
      "  --link-json <path>   per-link + per-window JSONL dump\n"
      "\n"
      "durability (docs/durability.md; analyze/sweep/batch/serve):\n"
      "  --cache-file <path>  PlanCache snapshot file (the build key from\n"
      "                       `torusplace version` is the compatibility key)\n"
      "  --cache-load         warm the cache from the snapshot at boot;\n"
      "                       corruption degrades to a cold cache\n"
      "  --cache-save[=ms]    snapshot on shutdown (incl. SIGTERM/quitz\n"
      "                       drain); with =ms also every ms milliseconds\n"
      "  --checkpoint <dir>   (sweep/resilience) journal completed cells;\n"
      "                       a killed run resumes from the last one\n"
      "\n"
      "networking (docs/networking.md; serve --tcp / loadgen):\n"
      "  --tcp <addr:port>    serve over TCP (port 0 = ephemeral; the\n"
      "                       bound address is printed to stderr and, with\n"
      "                       --port-file, written to a file)\n"
      "  --max-conns <N>      connection limit (default 64); connections\n"
      "                       beyond it get one structured refusal line\n"
      "  --max-line-bytes <N> request-line guard (default 1 MiB); longer\n"
      "                       lines are answered with a structured error\n"
      "                       and discarded, the connection survives\n"
      "  SIGTERM/quitz drain the server gracefully: accepted requests are\n"
      "  answered and flushed, never torn mid-line\n";
  return rc;
}

int dispatch(const std::string& cmd, const Args& args) {
  if (cmd == "analyze") return cmd_analyze(args);
  if (cmd == "bisect") return cmd_bisect(args);
  if (cmd == "routes") return cmd_routes(args);
  if (cmd == "simulate") return cmd_simulate(args);
  if (cmd == "resilience") return cmd_resilience(args);
  if (cmd == "verify") return cmd_verify(args);
  if (cmd == "deadlock") return cmd_deadlock(args);
  if (cmd == "sweep") return cmd_sweep(args);
  if (cmd == "batch") return cmd_batch(args);
  if (cmd == "serve") return cmd_serve(args);
  if (cmd == "loadgen") return cmd_loadgen(args);
  if (cmd == "version") return cmd_version();
  if (cmd == "tables") return cmd_tables(args);
  if (cmd == "optimize") return cmd_optimize(args);
  if (cmd == "profile") return cmd_profile(args);
  if (cmd == "render") return cmd_render(args);
  if (cmd == "save") return cmd_save(args);
  return usage();
}

bool is_command(const std::string& cmd) {
  static const std::set<std::string> kCommands{
      "analyze",  "bisect",   "routes",  "simulate", "resilience", "verify",
      "deadlock", "sweep",    "batch",   "serve",    "loadgen",    "version",
      "tables",   "optimize", "profile", "render",   "save"};
  return kCommands.count(cmd) > 0;
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help") return usage(kExitOk);
  int first = 2;
  // `torusplace profile <command> [options]` wraps any command with the
  // in-process profiler — equivalent to `torusplace <command> --profile`.
  // A bare `profile` (next word is not a command) keeps its legacy
  // meaning: the per-dimension/direction load table.
  bool profile_wrapped = false;
  if (cmd == "profile" && argc >= 3 && is_command(argv[2])) {
    cmd = argv[2];
    first = 3;
    profile_wrapped = true;
  }
  const std::set<std::string> known{
      "d",    "k",  "t",         "router", "src",   "dst",
      "faults", "flits", "seed", "ks",     "placement", "size",
      "iters", "out", "stats-json", "trace", "link-json",
      "rates", "repair", "retries", "backoff", "horizon", "json",
      "threads", "in", "cache", "deadline-ms",
      "slow-log", "cache-file", "checkpoint",
      "tcp", "max-conns", "max-line-bytes", "port-file", "connect",
      "mode", "clients", "rate", "duration-ms", "warmup-ms", "skew",
      "zipf-s", "universe"};
  const std::set<std::string> flags{"link-stats", "measured", "criticality",
                                    "stdio", "profile", "cache-load",
                                    "cache-save", "help"};
  const Args args(argc, argv, first, known, flags);
  if (args.has("help")) return usage(kExitOk);

  // Global observability flags: turn the registry/tracer on before the
  // command runs, export after it finishes (even a failing command leaves
  // no partial file: export happens only on normal return).
  const std::string stats_path = args.get("stats-json");
  const std::string trace_path = args.get("trace");
  if (!stats_path.empty()) obs::registry().set_enabled(true);
  if (!trace_path.empty()) obs::tracer().set_enabled(true);
  // TP_OBS=1 enables the registry without requesting an export file —
  // same convention as the bench binaries (see bench/bench_common.h).
  if (std::getenv("TP_OBS") != nullptr) obs::registry().set_enabled(true);

  // --profile[=out.folded] (or the `profile <command>` wrapper) turns the
  // phase profiler on for the whole command and prints the phase table to
  // stderr afterwards, so JSONL stdout stays parseable.
  const bool profiling = profile_wrapped || args.has("profile");
  const std::string folded_path = args.get("profile");
  if (profiling) obs::profiler().start();

  int rc = 0;
  {
    // Root phase: everything the command does attributes under "cli", so
    // the report's coverage is measured against the dispatch itself.
    TP_PROF_PHASE("cli");
    rc = dispatch(cmd, args);
  }

  if (profiling) {
    obs::profiler().stop();
    const obs::PhaseReport report = obs::profiler().report();
    std::cerr << obs::format_phase_table(report);
    if (!folded_path.empty()) {
      std::ofstream folded(folded_path);
      TP_REQUIRE(folded.good(), "cannot write '" + folded_path + "'");
      obs::write_collapsed(report, folded);
      std::cerr << "wrote collapsed stacks to " << folded_path << "\n";
    }
  }

  if (!stats_path.empty())
    obs::export_json(obs::registry().snapshot(), stats_path);
  if (!trace_path.empty())
    obs::export_chrome_trace(obs::tracer(), trace_path);
  return rc;
}

}  // namespace
}  // namespace tp::cli

int main(int argc, char** argv) {
  // Exit-code contract (see tools/cli_args.h): 0 ok, 2 usage error,
  // 3 internal TP_REQUIRE/TP_ASSERT failure.
  return tp::cli::run_guarded(argc, argv, [](int ac, char** av) {
    return tp::cli::run(ac, av);
  });
}
