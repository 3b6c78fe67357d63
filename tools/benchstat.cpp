// benchstat — perf baselines as committed JSON, with regression diffs.
//
//   benchstat [--out BENCH_2.json] [--dir .] [--reps 5]
//             [--threshold 0.10] [--gate name=frac[,name=frac...]]
//             [--check]
//
// Times a fixed set of representative workloads (load analyzers, the
// served measure_orbit_loads, the lower-bound table, the cycle-accurate simulators with and without link
// probes and under a fault schedule, the hotspot analyzer) with
// obs::Stopwatch, writes the results as
//
//   {"schema": "torusplace-bench/2",
//    "benchmarks": {"odr_loads/T8^3": {"mean_ns": ..., "min_ns": ...,
//                                      "reps": N}, ...}}
//
// The results are diffed against the most recent prior BENCH_*.json found
// in --dir (lexicographically latest name other than --out).  A benchmark
// whose mean regressed by more than --threshold (default 10%) is flagged;
// --gate overrides the threshold per benchmark (tighter or looser), and
// with --check the process then exits 2, so CI can gate on it.
//
// Besides the baseline diff, one intra-run invariant is asserted: the
// work-size cutover in the ODR/UDR kernel (kMinPairsPerWorker,
// src/load/complete_exchange.cpp) exists to keep small tori on the serial
// path, so a 4-thread ODR call on T8^3 must record profiler phases on the
// calling thread only.  It needs no baseline file and no timing.
//
// google-benchmark (bench/) remains the precision tool; benchstat trades
// precision for a committed, diffable baseline file.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/imbalance.h"
#include "src/core/torusplace.h"
#include "src/lint/lint.h"
#include "src/net/line_buffer.h"
#include "src/net/loadgen.h"
#include "src/net/socket.h"
#include "src/net/tcp_server.h"
#include "src/obs/json.h"
#include "src/obs/linkprobe.h"
#include "src/obs/profiler.h"
#include "src/obs/timer.h"
#include "src/service/service.h"
#include "tools/cli_args.h"

namespace tp {
namespace {

struct BenchResult {
  std::string name;
  double mean_ns = 0.0;
  i64 min_ns = 0;
  int reps = 0;
};

// Accumulates a value per run so the optimizer cannot delete the work.
double g_sink = 0.0;

BenchResult time_fn(const std::string& name, int reps,
                    const std::function<void()>& fn) {
  BenchResult r{name, 0.0, 0, reps};
  fn();  // warm-up rep, not timed
  i64 total = 0;
  for (int i = 0; i < reps; ++i) {
    obs::Stopwatch watch;
    fn();
    const i64 ns = watch.elapsed_ns();
    total += ns;
    r.min_ns = i == 0 ? ns : std::min(r.min_ns, ns);
  }
  r.mean_ns = static_cast<double>(total) / static_cast<double>(reps);
  return r;
}

std::vector<BenchResult> run_benchmarks(int reps) {
  std::vector<BenchResult> results;

  {
    Torus torus(3, 8);
    const Placement p = linear_placement(torus);
    results.push_back(time_fn("odr_loads/T8^3", reps, [&] {
      g_sink += odr_loads(torus, p).max_load();
    }));
    results.push_back(time_fn("odr_loads_parallel4/T8^3", reps, [&] {
      g_sink += odr_orbit_loads(torus, p, TieBreak::PositiveOnly, 4)
                    .broadcast(torus)
                    .max_load();
    }));
  }
  {
    // The same size unfolded: a random placement's stabilizer is trivial,
    // so this times the kernel with no symmetry to fold over.
    Torus torus(3, 8);
    const Placement p = random_placement(torus, 64, 1);
    results.push_back(time_fn("odr_loads_random/T8^3", reps, [&] {
      g_sink += odr_loads(torus, p).max_load();
    }));
  }
  for (const i32 k : {16, 32}) {
    Torus torus(3, k);
    const Placement p = linear_placement(torus);
    results.push_back(
        time_fn("odr_loads/T" + std::to_string(k) + "^3", reps,
                [&] { g_sink += odr_loads(torus, p).max_load(); }));
  }
  {
    Torus torus(3, 6);
    const Placement p = linear_placement(torus);
    results.push_back(time_fn("udr_loads/T6^3", reps, [&] {
      g_sink += udr_loads(torus, p).max_load();
    }));
  }
  {
    Torus torus(3, 8);
    const Placement p = linear_placement(torus);
    results.push_back(time_fn("udr_loads/T8^3", reps, [&] {
      g_sink += udr_loads(torus, p).max_load();
    }));
  }
  {
    Torus torus(2, 16);
    const Placement p = linear_placement(torus);
    results.push_back(time_fn("adaptive_loads/T16^2", reps, [&] {
      g_sink += adaptive_loads(torus, p).max_load();
    }));
  }
  {
    Torus torus(2, 30);
    const Placement p = multiple_linear_placement(torus, 2);
    results.push_back(time_fn("adaptive_loads/T30^2_t2", reps, [&] {
      g_sink += adaptive_loads(torus, p).max_load();
    }));
  }
  // The served path: measure_orbit_loads counts the loads of a coset
  // union (src/load/counted_loads.h) where the entries above route it.
  const auto measure = [&](const std::string& name, i32 d, i32 k, i32 t,
                           RouterKind kind) {
    Torus torus(d, k);
    const Placement p = multiple_linear_placement(torus, t);
    results.push_back(time_fn(name, reps, [&] {
      g_sink += measure_orbit_loads(torus, p, kind).max_load();
    }));
  };
  measure("measure_odr/T400^3", 3, 400, 1, RouterKind::Odr);
  measure("measure_udr/T400^3", 3, 400, 1, RouterKind::Udr);
  measure("measure_adaptive/T66^3", 3, 66, 1, RouterKind::Adaptive);
  measure("measure_adaptive/T30^2_t2", 2, 30, 2, RouterKind::Adaptive);
  {
    // The lower-bound table: T64^2's linear placement balances on a
    // dimension cut; T5^4's (25 processors a layer, 5 layers) cannot, so
    // its bisection bound falls back to the hyperplane sweep.
    Torus torus(2, 64);
    const Placement p = linear_placement(torus);
    results.push_back(time_fn("all_bounds/T64^2", reps, [&] {
      g_sink += all_bounds(torus, p).back().value;
    }));
  }
  {
    Torus torus(4, 5);
    const Placement p = linear_placement(torus);
    results.push_back(time_fn("all_bounds/T5^4", reps, [&] {
      g_sink += all_bounds(torus, p).back().value;
    }));
  }
  {
    Torus torus(2, 8);
    const Placement p = linear_placement(torus);
    const OdrRouter router;
    const auto traffic = complete_exchange_traffic(torus, p, router, 1);
    results.push_back(time_fn("sim_complete_exchange/T8^2", reps, [&] {
      NetworkSim sim(torus);
      g_sink += static_cast<double>(sim.run(traffic.messages).cycles);
    }));
    results.push_back(time_fn("sim_link_probe/T8^2", reps, [&] {
      obs::LinkProbe probe(torus.num_directed_edges(), torus.dims());
      SimConfig config;
      config.probe = &probe;
      NetworkSim sim(torus, nullptr, config);
      g_sink += static_cast<double>(sim.run(traffic.messages).cycles);
      g_sink += static_cast<double>(probe.total_forwards());
    }));
    // Fault recovery: a fault-free and a degraded UDR exchange under a
    // seeded Bernoulli timeline with repairs over the fault-free makespan.
    const UdrRouter udr;
    ResilienceConfig recovery;
    recovery.repair_prob = 0.1;
    const FaultSchedule schedule = FaultSchedule::bernoulli(
        torus, 0.02, recovery.repair_prob,
        resilience_horizon(torus, p, udr, recovery), 7);
    results.push_back(time_fn("sim_degraded_exchange/T8^2", reps, [&] {
      g_sink +=
          degradation_report(torus, p, udr, schedule, recovery).delivered_fraction;
    }));
    const LoadMap loads = odr_loads(torus, p);
    results.push_back(time_fn("analyze_imbalance/T8^2", reps, [&] {
      g_sink += analyze_imbalance(torus, loads, 10).cov;
    }));
  }
  {
    // The query service: a cold miss pays the full plan + exact-load
    // computation on a fresh engine; a warm hit is answered from the
    // sharded LRU; the coalesced burst answers 64 concurrent identical
    // requests with one computation.
    Radices radices{16, 16};
    const service::QueryKey key = service::make_query_key(
        radices, 1, RouterKind::Odr, service::QueryOp::Load);
    results.push_back(time_fn("service_cold_miss/T16^2", reps, [&] {
      service::Engine engine;
      g_sink += engine.run({key}).result->measured_emax;
    }));
    // A cold miss at N = 262144 read off the link-orbit buckets: no
    // per-link map is built.
    const service::QueryKey big = service::make_query_key(
        Radices{64, 64, 64}, 1, RouterKind::Odr, service::QueryOp::Load);
    results.push_back(time_fn("service_cold_miss/T64^3", reps, [&] {
      g_sink += service::compute_query(big).measured_emax;
    }));
    service::Engine warm;
    warm.run({key});
    results.push_back(time_fn("service_warm_hit/T16^2", reps, [&] {
      g_sink += warm.run({key}).result->measured_emax;
    }));
    // One warm analyze line through the request-line path every
    // transport shares: parse it, submit it, render its answer.
    warm.run({service::make_query_key(radices, 1, RouterKind::Odr,
                                      service::QueryOp::Analyze)});
    const std::string line = R"({"id":1,"op":"analyze","d":2,"k":16})";
    results.push_back(time_fn("service_hit_line/T16^2", reps, [&] {
      service::ParsedLine parsed = service::parse_line(line, 1);
      parsed.staged.ticket = warm.submit(parsed.request);
      g_sink += static_cast<double>(service::render_line(parsed.staged).size());
    }));
    results.push_back(time_fn("service_coalesced64/T16^2", reps, [&] {
      service::EngineConfig config;
      config.threads = 4;
      service::Engine engine(config);
      std::vector<service::Engine::Ticket> tickets;
      tickets.reserve(64);
      for (int i = 0; i < 64; ++i) tickets.push_back(engine.submit({key}));
      for (auto& t : tickets) g_sink += t.wait().ok ? 1.0 : 0.0;
    }));
  }
  {
    // Durability: serializing a warm cache to a checked snapshot file,
    // parsing + verifying it back, and the full engine warm boot
    // (construct, load, tear down).  Four resident load results on
    // mid-size tori make the file big enough to exercise the CRC paths.
    service::PlanCache cache(16, 4);
    for (i32 k : {8, 10, 12, 16}) {
      const service::QueryKey key = service::make_query_key(
          Radices{k, k}, 1, RouterKind::Odr, service::QueryOp::Load);
      cache.put(key, std::make_shared<service::QueryResult>(
                         service::compute_query(key)));
    }
    const std::string snap_path =
        (std::filesystem::temp_directory_path() / "tp_benchstat.snap")
            .string();
    results.push_back(time_fn("service_snapshot_save/T16^2", reps, [&] {
      g_sink += static_cast<double>(
          service::save_cache_snapshot(cache, snap_path).bytes);
    }));
    results.push_back(time_fn("service_snapshot_load/T16^2", reps, [&] {
      service::PlanCache warmed(16, 4);
      g_sink += static_cast<double>(
          service::load_cache_snapshot(warmed, snap_path).entries);
    }));
    results.push_back(time_fn("service_warm_boot/T16^2", reps, [&] {
      service::EngineConfig config;
      config.threads = 2;
      config.snapshot_path = snap_path;
      config.snapshot_load = true;
      service::Engine engine(config);
      g_sink += static_cast<double>(engine.snapshot_status().warm_entries);
    }));
    std::filesystem::remove(snap_path);
  }
  {
    // The TCP front-end: one warm-hit round trip over a real socket
    // (request line out, framed response line back — syscalls + framing
    // + the engine's cache-hit path), and the loadgen driver's sustained
    // closed-loop throughput at 32 clients.  The throughput entry is
    // recorded as nanoseconds per answered request (1e9 / qps), so
    // bigger = slower and the regression gate points the usual way.
    Radices radices{16, 16};
    const service::QueryKey key = service::make_query_key(
        radices, 1, RouterKind::Odr, service::QueryOp::Load);
    service::EngineConfig config;
    config.threads = 4;
    service::Engine engine(config);
    engine.run({key});
    net::TcpServer server(engine, net::TcpServerConfig{});
    server.start();

    net::Socket client = net::connect_to("127.0.0.1", server.port());
    net::LineBuffer lines(1 << 20);
    const std::string request =
        "{\"id\":1,\"op\":\"load\",\"d\":2,\"k\":16}\n";
    results.push_back(time_fn("serve_tcp_warm_hit/T16^2", reps, [&] {
      client.write_all(request);
      char buf[4096];
      for (;;) {
        if (const auto line = lines.next_line()) {
          g_sink += static_cast<double>(line->text.size());
          break;
        }
        const i64 got = client.read_some(buf, sizeof buf);
        if (got <= 0) break;
        lines.feed(buf, static_cast<std::size_t>(got));
      }
    }));
    client.shutdown_write();
    {
      char buf[4096];
      while (client.read_some(buf, sizeof buf) > 0) {
      }
    }

    net::LoadgenConfig load;
    load.port = server.port();
    load.clients = 32;
    load.duration_ms = 1000;
    load.warmup_ms = 200;
    load.universe = 8;
    const net::LoadgenReport report = net::run_loadgen(load);
    BenchResult qps{"loadgen_closed32_qps", 0.0, 0, 1};
    const double ns_per_request =
        report.qps > 0.0 ? 1e9 / report.qps : 0.0;
    qps.mean_ns = ns_per_request;
    qps.min_ns = static_cast<i64>(ns_per_request);
    results.push_back(qps);
  }

  // Whole-repo static-analysis scan (tokenize + token rules + the
  // architecture and determinism passes over every source file), timed
  // through the same scan_tree() the tp_lint driver uses, at 4 workers
  // for comparability across machines.  Only meaningful when run from
  // the repo root; elsewhere (bare build dir) the entry is skipped.
  if (std::filesystem::is_directory("src") &&
      std::filesystem::is_directory("tools")) {
    results.push_back(time_fn("tp_lint_full_tree", reps, [&] {
      const lint::TreeResult scan = lint::scan_tree(".", {"."}, 4);
      g_sink += static_cast<double>(scan.diags.size());
    }));
  }
  return results;
}

void write_json(const std::string& path,
                const std::vector<BenchResult>& results) {
  obs::JsonValue benches = obs::JsonValue::object();
  for (const BenchResult& r : results) {
    obs::JsonValue b = obs::JsonValue::object();
    b.set("mean_ns", obs::JsonValue(r.mean_ns));
    b.set("min_ns", obs::JsonValue(r.min_ns));
    b.set("reps", obs::JsonValue(static_cast<i64>(r.reps)));
    benches.set(r.name, std::move(b));
  }
  obs::JsonValue root = obs::JsonValue::object();
  root.set("schema", obs::JsonValue("torusplace-bench/2"));
  root.set("benchmarks", std::move(benches));
  std::ofstream out(path);
  TP_REQUIRE(out.good(), "cannot write " + path);
  out << root.dump() << "\n";
}

/// The n of "BENCH_<n>.json", or -1 for any other BENCH_*.json name.
i64 bench_number(const std::string& name) {
  const std::string digits = name.substr(6, name.size() - 11);
  if (digits.empty() || digits.size() > 9 ||
      !std::all_of(digits.begin(), digits.end(),
                   [](char c) { return c >= '0' && c <= '9'; }))
    return -1;
  return std::stoll(digits);
}

/// Latest BENCH_*.json in `dir` other than `out` — highest n of
/// BENCH_<n>.json, so BENCH_10 follows BENCH_9, other names compared
/// lexicographically; empty when none exists.
std::string find_baseline(const std::string& dir, const std::string& out) {
  namespace fs = std::filesystem;
  std::string best;
  std::string best_name;  // compare filenames, not paths: "./BENCH_5.json"
                          // vs "BENCH_6.json" would order on the "./"
  if (!fs::is_directory(dir)) return best;
  const std::string out_name = fs::path(out).filename().string();
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) != 0 || name.size() < 6) continue;
    if (name.size() < 5 ||
        name.compare(name.size() - 5, 5, ".json") != 0)
      continue;
    if (name == out_name) continue;
    if (best_name.empty() ||
        std::make_pair(bench_number(name), name) >
            std::make_pair(bench_number(best_name), best_name)) {
      best_name = name;
      best = entry.path().string();
    }
  }
  return best;
}

/// "--gate name=frac[,name=frac...]" -> {name: frac}.
std::map<std::string, double> parse_gates(const std::string& spec) {
  std::map<std::string, double> gates;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    TP_REQUIRE(eq != std::string::npos && eq > 0 && eq + 1 < item.size(),
               "--gate entries look like name=frac, got '" + item + "'");
    char* end = nullptr;
    const double frac = std::strtod(item.c_str() + eq + 1, &end);
    TP_REQUIRE(end != nullptr && *end == '\0' && frac > 0.0,
               "--gate fraction must be a positive number: '" + item + "'");
    gates[item.substr(0, eq)] = frac;
  }
  return gates;
}

/// Prints the diff table; returns the number of regressions.
int diff_against(const std::string& baseline_path,
                 const std::vector<BenchResult>& results, double threshold,
                 const std::map<std::string, double>& gates) {
  std::ifstream in(baseline_path);
  TP_REQUIRE(in.good(), "cannot open baseline " + baseline_path);
  std::stringstream ss;
  ss << in.rdbuf();
  const obs::JsonValue root = obs::parse_json(ss.str());
  const obs::JsonValue* benches = root.find("benchmarks");
  TP_REQUIRE(benches != nullptr && benches->is_object(),
             "baseline has no benchmarks object: " + baseline_path);

  std::cout << "\ndiff vs " << baseline_path << " (threshold "
            << fmt(threshold * 100.0, 1) << "%):\n";
  Table table({"benchmark", "old mean", "new mean", "delta", "status"});
  int regressions = 0;
  for (const BenchResult& r : results) {
    const obs::JsonValue* old_bench = benches->find(r.name);
    if (old_bench == nullptr) {
      table.add_row(
          {r.name, "-", fmt(r.mean_ns / 1e6, 3) + " ms", "-", "new"});
      continue;
    }
    const obs::JsonValue* old_mean = old_bench->find("mean_ns");
    TP_REQUIRE(old_mean != nullptr,
               "baseline benchmark missing mean_ns: " + r.name);
    const double old_ns = old_mean->as_number();
    const double delta = old_ns > 0.0 ? r.mean_ns / old_ns - 1.0 : 0.0;
    const auto gate = gates.find(r.name);
    const double limit = gate != gates.end() ? gate->second : threshold;
    std::string status = "ok";
    if (delta > limit) {
      status = "REGRESSED";
      ++regressions;
    } else if (delta < -limit) {
      status = "improved";
    }
    if (gate != gates.end() && status == "ok") status = "ok (gated)";
    std::ostringstream delta_str;
    delta_str << (delta >= 0 ? "+" : "") << fmt(delta * 100.0, 1) << "%";
    table.add_row({r.name, fmt(old_ns / 1e6, 3) + " ms",
                   fmt(r.mean_ns / 1e6, 3) + " ms", delta_str.str(), status});
  }
  table.print(std::cout);
  return regressions;
}

/// Intra-run invariant: the work-size cutover (kMinPairsPerWorker,
/// src/load/complete_exchange.cpp) keeps small tori on the serial path.
/// T8^3's linear placement folds to 63 routed pairs, so a 4-thread ODR
/// call must spawn no worker: with the phase profiler on, only the
/// calling thread may record a phase.  Timing cannot show this: with the
/// cutover holding, the 1- and 4-thread calls run the same ~25 µs serial
/// code, and their mins drift apart by more than any usable limit.
/// Returns 0 or 1 regressions.
int check_parallel_cutover() {
  Torus torus(3, 8);
  const Placement p = linear_placement(torus);
  obs::profiler().reset();
  obs::profiler().start();
  g_sink += odr_orbit_loads(torus, p, TieBreak::PositiveOnly, 4).max_load();
  obs::profiler().stop();
  const i32 threads = obs::profiler().report().threads;
  obs::profiler().reset();
  if (threads == 1) {
    std::cout << "parallel cutover ok: odr_orbit_loads(T8^3, 4 threads) "
                 "ran on the calling thread alone\n";
    return 0;
  }
  std::cout << "REGRESSED: odr_orbit_loads(T8^3, 4 threads) recorded phases "
            << "on " << threads << " threads — the work-size cutover should "
            << "keep T8^3 on the serial path\n";
  return 1;
}

int run(int argc, char** argv) {
  const cli::Args args(argc, argv, 1,
                       {"out", "dir", "reps", "threshold", "gate"}, {"check"});
  const std::string out = args.get("out", "BENCH_2.json");
  const std::string dir = args.get("dir", ".");
  const int reps = static_cast<int>(args.get_int("reps", 5));
  const double threshold =
      std::strtod(args.get("threshold", "0.10").c_str(), nullptr);
  const std::map<std::string, double> gates = parse_gates(args.get("gate"));
  TP_REQUIRE(reps >= 1, "need at least one rep");
  TP_REQUIRE(threshold > 0.0, "threshold must be positive");

  const std::vector<BenchResult> results = run_benchmarks(reps);
  Table table({"benchmark", "mean", "min", "reps"});
  for (const BenchResult& r : results)
    table.add_row({r.name, fmt(r.mean_ns / 1e6, 3) + " ms",
                   fmt(static_cast<double>(r.min_ns) / 1e6, 3) + " ms",
                   fmt(r.reps)});
  table.print(std::cout);

  write_json(out, results);
  std::cout << "\nwrote " << out << "\n";

  const std::string baseline = find_baseline(dir, out);
  int regressions = check_parallel_cutover();
  if (baseline.empty()) {
    std::cout << "no prior BENCH_*.json in " << dir << ", nothing to diff\n";
  } else {
    regressions += diff_against(baseline, results, threshold, gates);
  }
  if (regressions > 0) {
    std::cout << regressions << " benchmark(s) regressed beyond "
              << fmt(threshold * 100.0, 1) << "%\n";
    if (args.has("check")) return 2;
  }
  return 0;
}

}  // namespace
}  // namespace tp

int main(int argc, char** argv) {
  try {
    return tp::run(argc, argv);
  } catch (const tp::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
