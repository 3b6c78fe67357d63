// tp_bench: the torusplace end-to-end benchmark harness.
//
//   tp_bench --workload W --seed S --seconds N --trace 0|1
//            --work-dir DIR [--smoke]
//   tp_bench --self-test
//
// --trace 0 spawns the real torusplace binary, drives it only through its
// CLI and the JSONL/TCP wire, checks every answer (checker.h) and prints
// the end-to-end metrics.  --trace 1 runs the same wire workload for the
// server-side counters, then replays the seeded request stream in-process
// with spans around each layer's calls (replay.h) and prints the
// per-layer metrics.  Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; a human-readable table
// goes to stderr.  Exit status: 0 when every answer was accepted, 1 when
// an answer was rejected or the run failed, 2 on a usage error.  README.md
// describes the workloads and every metric.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <thread>
#include <unistd.h>

#include "checker.h"
#include "child.h"
#include "replay.h"
#include "src/net/line_buffer.h"
#include "src/net/loadgen.h"
#include "src/net/socket.h"
#include "src/obs/json.h"
#include "src/util/error.h"
#include "universe.h"

#ifndef TP_BENCH_TORUSPLACE
#error "TP_BENCH_TORUSPLACE must name the torusplace binary"
#endif

namespace tpbench {
namespace {

using Clock = std::chrono::steady_clock;
using tp::obs::JsonValue;

constexpr const char* kTorusplace = TP_BENCH_TORUSPLACE;

// Harness shape: the main thread plus one client thread per connection.
constexpr std::size_t kConnections = 2;
constexpr std::size_t kDriverThreads = 1 + kConnections;

constexpr double kZipfS = 1.1;  ///< tcp_mixed_closed key skew
/// TCP numbers are medians over blocks of this many consecutive requests.
constexpr std::size_t kBlockRequests = 10000;
constexpr int kSetupSpawns = 41;  ///< half before the window, half after
constexpr std::size_t kBatchMinPasses = 3;
constexpr std::size_t kHotPassRequests = 50000;  ///< batch_hot draws per pass

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir;
};

struct Workload {
  std::string name;
  bool batch;  ///< `torusplace batch` passes; otherwise a closed loop over TCP
  std::vector<QueryKey> universe;
  std::vector<std::string> args;  ///< `serve` arguments (TCP workloads)
  std::size_t cache_capacity;     ///< the program's PlanCache entries
  std::size_t window;  ///< requests each connection keeps outstanding
  /// batch_hot: every pass boots from a snapshot holding every key and
  /// draws kHotPassRequests keys uniformly, so every request is a hit.
  bool hot;
  double warmup_s;
  std::size_t replay_draws;  ///< traced stream length after warm keys
};

Workload make_workload(const std::string& name) {
  if (name == "sweep_cold")
    return {name, true, sweep_grid(), {}, 1024, 0, false, 0.0, 0};
  if (name == "batch_hot")
    return {name, true, hot_universe(), {}, 1024, 0, true, 0.0, 10000};
  if (name == "tcp_mixed_closed")
    return {name, false, mixed_universe(),
            {"serve", "--tcp", "127.0.0.1:0", "--threads", "2", "--cache", "128"},
            128, 4, false, 3.0, 2000};
  throw tp::Error("unknown workload '" + name +
                  "' (sweep_cold|batch_hot|tcp_mixed_closed)");
}

// ---------------------------------------------------------------------
// Small helpers

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double seconds_since(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

Clock::time_point after(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

/// Linear-interpolation quantile (the R-7 / numpy default).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double h = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  if (lo + 1 >= v.size()) return v.back();
  const double frac = h - static_cast<double>(lo);
  if (std::isinf(v[lo + 1])) return frac > 0.0 ? v[lo + 1] : v[lo];
  return v[lo] + frac * (v[lo + 1] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::vector<std::string> request_lines(const std::vector<QueryKey>& universe) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < universe.size(); ++i)
    out.push_back(request_line(universe[i], static_cast<i64>(i)));
  return out;
}

std::optional<std::string> read_line(tp::net::Socket& sock,
                                     tp::net::LineBuffer& lines) {
  char buf[65536];
  for (;;) {
    if (auto line = lines.next_line()) return std::move(line->text);
    const i64 got = sock.read_some(buf, sizeof buf);
    if (got <= 0) return std::nullopt;
    lines.feed(buf, static_cast<std::size_t>(got));
  }
}

// ---------------------------------------------------------------------
// Metrics and the result line

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) v = std::numeric_limits<double>::max();
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_result(bool correct, i64 attempted, i64 failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::cerr << "  " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    line += (i ? ", " : "") + tp::obs::json_quote(metrics[i].name) +
            ": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": " + tp::obs::json_quote(metrics[i].unit) + "}";
  std::cout << line << "}}" << std::endl;
}

// ---------------------------------------------------------------------
// Server-side counters (metricsz over TCP, --stats-json for batch)

struct Registry {
  double requests = 0, cache_hits = 0, coalesced = 0, evictions = 0;
  double bytes_out = 0, responses = 0, overload_rejects = 0;
  double queue_wait_sum = 0, queue_wait_count = 0;
  double compute_sum = 0, compute_count = 0;
  double queue_depth_peak = 0;
};

Registry parse_registry(const JsonValue& metrics) {
  const auto value = [&metrics](const char* group, const char* name) {
    const JsonValue* g = metrics.find(group);
    const JsonValue* v = g != nullptr ? g->find(name) : nullptr;
    return v != nullptr ? v->as_number() : 0.0;
  };
  const auto hist = [&metrics](const char* name, const char* field) {
    const JsonValue* h = metrics.find("histograms");
    const JsonValue* v = h != nullptr ? h->find(name) : nullptr;
    const JsonValue* f = v != nullptr ? v->find(field) : nullptr;
    return f != nullptr ? f->as_number() : 0.0;
  };
  Registry r;
  r.requests = value("counters", "service.requests");
  r.cache_hits = value("counters", "service.cache_hits");
  r.coalesced = value("counters", "service.coalesced");
  r.evictions = value("counters", "service.cache_evictions");
  r.bytes_out = value("counters", "net.bytes_out");
  r.responses = value("counters", "net.responses");
  r.overload_rejects = value("counters", "net.overload_rejects");
  r.queue_wait_sum = hist("service.queue_wait_us", "sum");
  r.queue_wait_count = hist("service.queue_wait_us", "count");
  r.compute_sum = hist("service.compute_us", "sum");
  r.compute_count = hist("service.compute_us", "count");
  r.queue_depth_peak = value("gauges", "service.queue_depth_peak");
  return r;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------
// Wire measurements

/// One measured request: its send time, and its latency from then; +inf
/// when it was rejected or never answered.
struct Sample {
  Clock::time_point at;
  double latency_us;
};

/// One client's measured samples.
struct Tally {
  std::vector<Sample> samples;
  std::vector<double> lateness_us;
  i64 attempted = 0;
  i64 failed = 0;

  void fail(i64 n, Clock::time_point at) {
    attempted += n;
    failed += n;
    samples.insert(samples.end(), static_cast<std::size_t>(n),
                   Sample{at, std::numeric_limits<double>::infinity()});
  }
};

struct Client {
  Client(tp::net::Socket s, std::size_t universe, u64 seed)
      : sock(std::move(s)),
        sampler(static_cast<i64>(universe), true, kZipfS, seed),
        log(universe) {}

  tp::net::Socket sock;
  tp::net::LineBuffer lines{std::size_t{1} << 20};
  tp::net::KeySampler sampler;
  AnswerLog log;
  Tally tally;
};

/// What a wire run measured.
struct WireRun {
  std::vector<double> latency_us;  ///< batch: every pass's wall time
  std::vector<double> lateness_us;
  i64 attempted = 0;
  i64 failed = 0;
  double throughput_rps = 0.0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double cpu_us_per_req = 0.0;
  double rss_mib = 0.0;
  Registry registry;  ///< server counters when the window closed
  std::vector<std::string> first_answers;
  std::vector<i64> replay_stream;  ///< the seeded stream's prefix
  double bytes_per_answer = 0.0;   ///< batch: stdout bytes per answer
  std::size_t pass_requests = 0;   ///< batch: requests in one pass
};

/// The p99 — or, with fewer than 1000 samples (a batch run's passes), the
/// highest percentile that still has ten samples beyond it.
double tail_latency(const std::vector<double>& latency_us) {
  const auto n = static_cast<double>(latency_us.size());
  return quantile(latency_us, std::clamp(1.0 - 10.0 / n, 0.5, 0.99));
}

/// Checks one answer.  A rejected answer counts as attempted and failed
/// in any phase; a measured one is also a latency sample.
void take_answer(Client& c, i64 key, const std::string& line, bool measured,
                 Clock::time_point sent, Clock::time_point at) {
  const bool ok = c.log.record(key, line);
  if (measured || !ok) ++c.tally.attempted;
  if (!ok) ++c.tally.failed;
  if (measured)
    c.tally.samples.push_back(
        {sent, ok ? us_between(sent, at) : std::numeric_limits<double>::infinity()});
}

/// Closed loop with `window` requests outstanding: until `end`, every
/// answer frees a slot and the next request is due at once.  Requests due
/// together go out in one write.
void closed_client(Client& c, const std::vector<std::string>& requests,
                   std::size_t window, Clock::time_point end, bool measured,
                   std::vector<i64>* drawn) {
  struct Pending {
    i64 key;
    Clock::time_point sent;
  };
  std::deque<Pending> pending;
  Clock::time_point due = Clock::now();
  std::string batch;
  char buf[65536];
  for (;;) {
    const Clock::time_point now = Clock::now();
    batch.clear();
    while (now < end && pending.size() < window) {
      const i64 key = c.sampler.next();
      if (drawn != nullptr) drawn->push_back(key);
      if (measured) c.tally.lateness_us.push_back(us_between(due, now));
      pending.push_back({key, now});
      batch += requests[static_cast<std::size_t>(key)];
    }
    if (!batch.empty() && !c.sock.write_all(batch)) break;
    if (pending.empty()) return;
    const i64 got = c.sock.read_some(buf, sizeof buf);
    if (got <= 0) break;
    due = Clock::now();
    c.lines.feed(buf, static_cast<std::size_t>(got));
    while (auto line = c.lines.next_line()) {
      TP_REQUIRE(!pending.empty(), "an answer to no request");
      take_answer(c, pending.front().key, line->text, measured,
                  pending.front().sent, due);
      pending.pop_front();
    }
  }
  if (measured) c.tally.fail(static_cast<i64>(pending.size()), Clock::now());
}

/// A `torusplace serve --tcp` child, ready once it printed its address.
class Server {
 public:
  explicit Server(const Workload& w) : child_(argv(w)) {
    const std::string line = child_.read_err_line("listening on");
    port_ = static_cast<tp::u16>(std::stoi(line.substr(line.rfind(':') + 1)));
  }

  static std::vector<std::string> argv(const Workload& w) {
    std::vector<std::string> out = {kTorusplace};
    out.insert(out.end(), w.args.begin(), w.args.end());
    return out;
  }

  tp::u16 port() const { return port_; }
  pid_t pid() const { return child_.pid(); }

  /// Graceful drain (SIGTERM), then reap.
  ExitInfo stop() {
    child_.signal(SIGTERM);
    std::string err;
    child_.read_to_eof(nullptr, &err);
    const ExitInfo info = child_.wait();
    TP_REQUIRE(exited_cleanly(info), "server did not exit cleanly: " + err);
    return info;
  }

 private:
  Child child_;
  tp::u16 port_ = 0;
};

Registry admin_registry(Client& c) {
  const std::string request = "{\"id\":\"bench\",\"op\":\"metricsz\"}\n";
  TP_REQUIRE(c.sock.write_all(request), "metricsz request failed");
  const std::optional<std::string> line = read_line(c.sock, c.lines);
  TP_REQUIRE(line.has_value(), "no metricsz answer");
  return parse_registry(*tp::obs::parse_json(*line).find("metrics"));
}

using Clients = std::vector<std::unique_ptr<Client>>;

/// Runs `work` on every client at once, one thread each; rethrows the
/// first exception a client thread raised once all have been joined.
template <typename Work>
void run_clients(Clients& clients, Work work) {
  std::vector<std::exception_ptr> errors(clients.size());
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < clients.size(); ++i)
      threads.emplace_back([&work, &clients, &errors, i] {
        try {
          work(*clients[i], i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

/// Moves the clients' samples from the window [t0, t0 + window_s) into
/// `run` and sets its throughput and latency numbers.  Each is the median
/// over blocks of kBlockRequests requests in send order, so that a slow
/// stretch moves the blocks it covers and not the run.  A block's
/// throughput is its answered requests over the time from its first send
/// to the next block's (or the window's end).
void collect(Clients& clients, Clock::time_point t0, double window_s,
             WireRun& run) {
  std::vector<Sample> samples;
  for (auto& c : clients) {
    Tally& t = c->tally;
    samples.insert(samples.end(), t.samples.begin(), t.samples.end());
    run.lateness_us.insert(run.lateness_us.end(), t.lateness_us.begin(),
                           t.lateness_us.end());
    run.attempted += t.attempted;
    run.failed += t.failed;
    t = Tally{};
  }
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.at < b.at; });
  const std::size_t n = samples.size();
  const std::size_t blocks = std::max<std::size_t>(1, n / kBlockRequests);
  const Clock::time_point end = after(t0, window_s);
  std::vector<double> rps, p50, p99, block;
  for (std::size_t b = 0; b < blocks && n > 0; ++b) {
    const std::size_t lo = b * n / blocks;
    const std::size_t hi = (b + 1) * n / blocks;
    block.clear();
    for (std::size_t i = lo; i < hi; ++i) block.push_back(samples[i].latency_us);
    const auto answered =
        std::count_if(block.begin(), block.end(),
                      [](double v) { return std::isfinite(v); });
    const Clock::time_point stop = hi < n ? samples[hi].at : end;
    rps.push_back(ratio(static_cast<double>(answered),
                        seconds_between(samples[lo].at, stop)));
    p50.push_back(quantile(block, 0.5));
    p99.push_back(quantile(block, 0.99));
  }
  run.throughput_rps = median(rps);
  run.latency_p50_us = median(p50);
  run.latency_p99_us = median(p99);
}

/// A TCP workload: closed loops on kConnections connections, first
/// `warmup_s` unmeasured, then `opt.seconds` measured.
WireRun run_tcp(const Workload& w, const Options& opt) {
  const std::vector<std::string> requests = request_lines(w.universe);
  const std::size_t n = w.universe.size();
  Server server(w);
  Clients clients;
  for (std::size_t i = 0; i < kConnections; ++i)
    clients.push_back(std::make_unique<Client>(
        tp::net::connect_to("127.0.0.1", server.port()), n,
        stream_seed(opt.seed, i + 1)));

  WireRun run;
  // Each client's warm-up draws, interleaved into the replay stream below.
  std::vector<std::vector<i64>> drawn(kConnections);
  const auto phase = [&](double seconds, bool measured) {
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point end = after(t0, seconds);
    run_clients(clients, [&](Client& c, std::size_t i) {
      closed_client(c, requests, w.window, end, measured,
                    measured ? nullptr : &drawn[i]);
    });
    return t0;
  };
  phase(opt.smoke ? 0.3 : w.warmup_s, false);
  const double cpu_before = proc_cpu_seconds(server.pid());
  collect(clients, phase(opt.seconds, true), opt.seconds, run);
  const double cpu_after = proc_cpu_seconds(server.pid());
  run.registry = admin_registry(*clients[0]);
  run.cpu_us_per_req = ratio((cpu_after - cpu_before) * 1e6,
                             static_cast<double>(run.attempted - run.failed));

  std::vector<const AnswerLog*> logs;
  for (auto& c : clients) logs.push_back(&c->log);
  run.failed +=
      check_first_answers(logs, w.universe, run.first_answers, std::cerr);
  for (auto& c : clients) c->sock.shutdown_write();
  clients.clear();
  run.rss_mib = server.stop().maxrss_mib;

  for (std::size_t i = 0; i < drawn[0].size(); ++i)
    for (const auto& d : drawn)
      if (i < d.size()) run.replay_stream.push_back(d[i]);
  const std::size_t keep = opt.smoke ? 500 : w.replay_draws;
  if (run.replay_stream.size() > keep) run.replay_stream.resize(keep);
  return run;
}

/// The workload's `torusplace batch` command line over `input`; batch_hot
/// boots every process from the snapshot `base`.snap.
std::vector<std::string> batch_argv(const Workload& w, const std::string& input,
                                    const std::string& base) {
  std::vector<std::string> argv = {kTorusplace, "batch", input, "--threads", "1"};
  if (w.hot)
    argv.insert(argv.end(), {"--cache-file", base + ".snap", "--cache-load"});
  return argv;
}

/// Writes the request line of every key in `stream` to `path`.
void write_requests(const Workload& w, const std::vector<i64>& stream,
                    const std::string& path) {
  std::ofstream out(path);
  for (const i64 key : stream)
    out << request_line(w.universe[static_cast<std::size_t>(key)], key);
  TP_REQUIRE(out.good(), "cannot write '" + path + "'");
}

/// One batch process, run to a clean exit.
struct Pass {
  std::string out;
  ExitInfo info;
};

Pass run_pass(const std::vector<std::string>& argv) {
  Child child(argv);
  Pass pass;
  std::string err;
  child.read_to_eof(&pass.out, &err);
  pass.info = child.wait();
  TP_REQUIRE(exited_cleanly(pass.info), "batch pass failed: " + err);
  return pass;
}

/// Records a pass's answer lines, one per key of `stream`, in `log`.
/// Returns the number of answers rejected or missing.
i64 record_answers(AnswerLog& log, const std::vector<i64>& stream,
                   std::string_view out) {
  std::size_t pos = 0;
  i64 failed = 0;
  for (const i64 key : stream) {
    const std::size_t nl = out.find('\n', pos);
    if (nl == std::string_view::npos) {
      ++failed;
      continue;
    }
    if (!log.record(key, out.substr(pos, nl - pos))) ++failed;
    pos = nl + 1;
  }
  return failed;
}

/// batch_hot's snapshot: one pass computes every key once, in a seeded
/// order, and saves the cache to `base`.snap.  Its answers are checked
/// with the measured passes' (run_batch).
struct Warm {
  std::vector<i64> order;
  std::string answers;
};

Warm warm_snapshot(const Workload& w, u64 seed, const std::string& base) {
  Warm warm;
  warm.order = shuffled_indices(static_cast<i64>(w.universe.size()),
                                stream_seed(seed, 0));
  const std::string input = base + ".warm.jsonl";
  write_requests(w, warm.order, input);
  warm.answers = run_pass({kTorusplace, "batch", input, "--threads", "1",
                           "--cache-file", base + ".snap", "--cache-save"})
                     .out;
  return warm;
}

/// A batch workload: fresh `torusplace batch` processes over the seeded
/// stream, back to back.  A pass's wall time is one latency sample.
/// sweep_cold's pass is its grid in seeded order; batch_hot's is
/// kHotPassRequests uniform draws, answered from the warm snapshot.
WireRun run_batch(const Workload& w, const Options& opt,
                  const std::string& base, const Warm& warm) {
  const auto n = static_cast<i64>(w.universe.size());
  WireRun run;
  AnswerLog log(w.universe.size());
  std::vector<i64> stream;
  if (w.hot) {
    // A rejected answer counts in any phase, the snapshot's pass included.
    const i64 rejected = record_answers(log, warm.order, warm.answers);
    run.attempted += rejected;
    run.failed += rejected;
    tp::net::KeySampler sampler(n, false, kZipfS, stream_seed(opt.seed, 1));
    for (std::size_t i = 0; i < kHotPassRequests; ++i)
      stream.push_back(sampler.next());
    run.replay_stream = warm.order;
    const auto draws =
        static_cast<std::ptrdiff_t>(opt.smoke ? 500 : w.replay_draws);
    run.replay_stream.insert(run.replay_stream.end(), stream.begin(),
                             stream.begin() + draws);
  } else {
    stream = shuffled_indices(n, opt.seed);
    run.replay_stream = stream;
  }
  const std::string input = base + ".jsonl";
  write_requests(w, stream, input);
  const std::vector<std::string> argv = batch_argv(w, input, base);
  run.pass_requests = stream.size();

  std::vector<double> rss, pass_rps;
  double cpu_s = 0.0, bytes = 0.0;
  const Clock::time_point start = Clock::now();
  Clock::time_point due = start;
  while (seconds_since(start) < opt.seconds ||
         run.latency_us.size() < kBatchMinPasses) {
    const Clock::time_point t0 = Clock::now();
    run.lateness_us.push_back(us_between(due, t0));
    const Pass pass = run_pass(argv);
    due = Clock::now();
    const i64 failed = record_answers(log, stream, pass.out);
    const auto requests = static_cast<i64>(stream.size());
    run.attempted += requests;
    run.failed += failed;
    run.latency_us.push_back(failed > 0 ? std::numeric_limits<double>::infinity()
                                        : us_between(t0, due));
    pass_rps.push_back(static_cast<double>(requests - failed) /
                       seconds_between(t0, due));
    cpu_s += pass.info.cpu_s;
    rss.push_back(pass.info.maxrss_mib);
    bytes += static_cast<double>(pass.out.size());
  }
  run.cpu_us_per_req =
      ratio(cpu_s * 1e6, static_cast<double>(run.attempted - run.failed));
  run.throughput_rps = median(pass_rps);
  run.latency_p50_us = median(run.latency_us);
  run.latency_p99_us = tail_latency(run.latency_us);
  run.rss_mib = median(rss);
  run.bytes_per_answer = ratio(bytes, static_cast<double>(run.attempted));
  const std::vector<const AnswerLog*> logs = {&log};
  run.failed += check_first_answers(logs, w.universe, run.first_answers, std::cerr);
  return run;
}

/// Appends `spawns` set-up times to `times`: the workload's exact command
/// line from spawn to ready — for TCP until the first statusz is answered,
/// for batch until it exits on an empty input (`base`.empty.jsonl).
void measure_setup(const Workload& w, const std::string& base, int spawns,
                   std::vector<double>& times) {
  for (int i = 0; i < spawns; ++i) {
    const Clock::time_point t0 = Clock::now();
    if (w.batch) {
      Child child(batch_argv(w, base + ".empty.jsonl", base));
      child.read_to_eof(nullptr, nullptr);
      const ExitInfo info = child.wait();
      times.push_back(seconds_since(t0));
      TP_REQUIRE(exited_cleanly(info), "batch on an empty input failed");
      continue;
    }
    Server server(w);
    tp::net::Socket sock = tp::net::connect_to("127.0.0.1", server.port());
    tp::net::LineBuffer lines(std::size_t{1} << 20);
    TP_REQUIRE(sock.write_all("{\"id\":\"setup\",\"op\":\"statusz\"}\n"),
               "statusz request failed");
    TP_REQUIRE(read_line(sock, lines).has_value(), "no statusz answer");
    times.push_back(seconds_since(t0));
    sock.close();
    server.stop();
  }
}

// ---------------------------------------------------------------------
// The two modes

std::vector<Metric> end_to_end_metrics(const WireRun& run, double setup_s) {
  return {
      {"setup_s", setup_s, "s"},
      {"throughput_rps", run.throughput_rps, "req/s"},
      {"latency_p50_us", run.latency_p50_us, "us"},
      {"latency_p99_us", run.latency_p99_us, "us"},
      {"cpu_us_per_req", run.cpu_us_per_req, "us"},
      {"rss_peak_mb", run.rss_mib, "MiB"},
  };
}

/// Number of keys whose replay answer differs from the program's.
i64 compare_replay(const Workload& w, const std::vector<std::string>& wire,
                   const ReplayResult& replayed) {
  i64 mismatched = 0;
  for (std::size_t key = 0; key < w.universe.size(); ++key) {
    if (replayed.answers[key].empty()) continue;
    if (wire[key] != replayed.answers[key]) {
      ++mismatched;
      std::cerr << "tp_bench: replay answer differs from the program's for '"
                << w.universe[key].str() << "'\n";
    }
  }
  return mismatched;
}

std::vector<Metric> per_layer_metrics(const Workload& w, const WireRun& run,
                                      const ReplayResult& traced,
                                      const ReplayResult& untraced) {
  const auto total = [&traced](const char* name) {
    const auto it = traced.by_name.find(name);
    return it == traced.by_name.end() ? SpanTotals{} : it->second;
  };
  const auto per_call_ns = [&total](const char* name) {
    const SpanTotals t = total(name);
    return ratio(static_cast<double>(t.self_ns), static_cast<double>(t.count));
  };
  const auto ms = [&total](const char* name) {
    return static_cast<double>(total(name).self_ns) / 1e6;
  };
  double layer_self = 0.0;
  for (const auto& [name, t] : traced.by_name)
    if (layer_of(name) != "harness") layer_self += static_cast<double>(t.self_ns);
  const double load_us =
      (ms("load.odr") + ms("load.udr") + ms("load.adaptive")) * 1e3;
  const double request_layers_ns =
      per_call_ns("net.frame") + per_call_ns("service.parse") +
      per_call_ns("service.probe") + per_call_ns("service.serialize");
  // sweep_cold's end-to-end unit is a pass, and its traced replay is one
  // pass too.  batch_hot and TCP compare one request's share of the
  // end-to-end time with its traced frame+parse+probe+serialize time.
  const bool per_pass = w.batch && !w.hot;
  const double observed_us =
      w.batch && w.hot
          ? ratio(run.latency_p50_us, static_cast<double>(run.pass_requests))
          : run.latency_p50_us;
  const double attributed_us =
      per_pass ? layer_self / 1e3 : request_layers_ns / 1e3;
  const Registry& r = run.registry;
  const double bytes_per_resp = w.batch
                                    ? run.bytes_per_answer
                                    : ratio(r.bytes_out, r.responses);
  return {
      {"net.frame_ns", per_call_ns("net.frame"), "ns"},
      {"net.unattributed_us", observed_us - attributed_us, "us"},
      {"net.bytes_out_per_resp", bytes_per_resp, "bytes"},
      {"net.overload_rejects", r.overload_rejects, "count"},
      {"service.parse_ns", per_call_ns("service.parse"), "ns"},
      {"service.probe_ns", per_call_ns("service.probe"), "ns"},
      {"service.serialize_ns", per_call_ns("service.serialize"), "ns"},
      {"service.hit_ratio", ratio(r.cache_hits, r.requests), "ratio"},
      {"service.evictions", r.evictions, "count"},
      {"service.coalesced", r.coalesced, "count"},
      {"service.queue_wait_us", ratio(r.queue_wait_sum, r.queue_wait_count), "us"},
      {"service.compute_us", ratio(r.compute_sum, r.compute_count), "us"},
      {"service.queue_depth_peak", r.queue_depth_peak, "count"},
      {"core.plan_us", per_call_ns("core.plan") / 1e3, "us"},
      {"load.odr_ms", ms("load.odr"), "ms"},
      {"load.udr_ms", ms("load.udr"), "ms"},
      {"load.adaptive_ms", ms("load.adaptive"), "ms"},
      {"load.hops_per_us", ratio(traced.computed_hops, load_us), "hops/us"},
      {"bounds.table_ms", ms("bounds.table"), "ms"},
      {"bounds.slab_ms", ms("bounds.slab"), "ms"},
      {"gen.late_p99_us", quantile(run.lateness_us, 0.99), "us"},
      {"trace.coverage", ratio(layer_self, static_cast<double>(traced.wall_ns)),
       "ratio"},
      {"trace.overhead",
       ratio(static_cast<double>(traced.wall_ns),
             static_cast<double>(untraced.wall_ns)) - 1.0,
       "ratio"},
  };
}

/// A batch workload's program counters: one extra pass with --stats-json.
Registry batch_registry(const Workload& w, const std::string& base) {
  const std::string stats = base + ".stats.json";
  std::vector<std::string> argv = batch_argv(w, base + ".jsonl", base);
  argv.insert(argv.end(), {"--stats-json", stats});
  run_pass(argv);
  std::ifstream in(stats);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  return parse_registry(tp::obs::parse_json(text));
}

int run(const Options& opt) {
  const Workload w = make_workload(opt.workload);
  const auto nproc = static_cast<std::size_t>(::sysconf(_SC_NPROCESSORS_ONLN));
  TP_REQUIRE(kDriverThreads <= nproc && kConnections <= nproc,
             "the harness's threads and connections must not exceed nproc");
  // Everything runs on one CPU, the program under test and the harness
  // alike (README.md, "Why one CPU").
  pin_to_cpu(allowed_cpus().back());
  std::filesystem::create_directories(opt.work_dir);
  const std::string base = opt.work_dir + "/" + w.name;
  // batch_hot's set-up loads the snapshot, so it is made first.
  Warm warm;
  if (w.batch && w.hot) warm = warm_snapshot(w, opt.seed, base);

  // setup_s is the median of cold spawns taken on both sides of the
  // window, so that no one slow moment sets it.
  const int spawns = opt.smoke ? 2 : kSetupSpawns;
  std::vector<double> setup_times;
  if (!opt.trace) {
    std::ofstream(base + ".empty.jsonl").flush();
    measure_setup(w, base, spawns / 2, setup_times);
  }
  WireRun run = w.batch ? run_batch(w, opt, base, warm) : run_tcp(w, opt);

  bool correct = run.failed == 0;
  std::vector<Metric> metrics;
  if (!opt.trace) {
    measure_setup(w, base, spawns - spawns / 2, setup_times);
    metrics = end_to_end_metrics(run, median(setup_times));
  } else {
    if (w.batch) run.registry = batch_registry(w, base);
    const ReplayResult untraced =
        replay(w.universe, run.replay_stream, w.cache_capacity, false);
    const ReplayResult traced =
        replay(w.universe, run.replay_stream, w.cache_capacity, true);
    if (compare_replay(w, run.first_answers, traced) > 0) correct = false;
    write_chrome_trace(traced.spans, base + ".trace.json");
    const std::string table = self_time_table(traced);
    std::ofstream(base + ".layers.txt") << table;
    std::cerr << table << "tp_bench: wrote " << base << ".trace.json\n";
    metrics = per_layer_metrics(w, run, traced, untraced);
  }
  std::cerr << "tp_bench: " << w.name << " seed " << opt.seed << ", "
            << run.attempted << " request(s), " << run.failed << " failed";
  if (w.batch) std::cerr << ", " << run.latency_us.size() << " pass(es)";
  std::cerr << "\n";
  print_result(correct, std::max<i64>(1, run.attempted), run.failed, metrics);
  return correct ? 0 : 1;
}

int usage(const std::string& why) {
  std::cerr << "usage error: " << why
            << "\nusage: tp_bench --workload W --seed S --seconds N --trace 0|1"
               " --work-dir DIR [--smoke]\n       tp_bench --self-test\n";
  return 2;
}

}  // namespace
}  // namespace tpbench

int main(int argc, char** argv) {
  using namespace tpbench;
  Options opt;
  bool self_test = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw tp::Error(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload")
        opt.workload = value();
      else if (arg == "--seed")
        opt.seed = std::stoull(value());
      else if (arg == "--seconds")
        opt.seconds = std::stod(value());
      else if (arg == "--trace")
        opt.trace = value() != "0";
      else if (arg == "--work-dir")
        opt.work_dir = value();
      else if (arg == "--smoke")
        opt.smoke = true;
      else if (arg == "--self-test")
        self_test = true;
      else
        throw tp::Error("unknown option " + arg);
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (self_test) return checker_self_test(std::cout) ? 0 : 1;
  if (opt.workload.empty()) return usage("--workload is required");
  if (opt.work_dir.empty()) return usage("--work-dir is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "tp_bench: error: " << e.what() << "\n";
    return 1;
  }
}
