#include "src/net/tcp_server.h"

#include <poll.h>
#include <utility>

#include "src/obs/timer.h"
#include "src/obs/trace.h"
#include "src/util/error.h"

namespace tp::net {

namespace {

/// Staged lines a connection may hold between its reader and writer.
constexpr std::size_t kPipelineWindow = 64;

std::vector<i64> request_count_bounds() {
  return {1, 4, 16, 64, 256, 1024, 4096};
}

}  // namespace

/// One live connection.  The reader runs in conn_main (the Conn's own
/// thread), the writer in a nested thread; `mu` guards the slot window
/// between them.  `finished` (guarded by the server's conns_mu_) tells
/// the acceptor the thread is joinable.
struct TcpServer::Conn {
  Conn(Socket s, i64 conn_id) : sock(std::move(s)), id(conn_id) {}

  Socket sock;
  i64 id;
  obs::Stopwatch lifetime;
  i64 requests = 0;  ///< reader thread only

  Mutex mu;
  CondVar slots_nonempty;
  CondVar slots_nonfull;
  std::deque<service::StagedLine> slots TP_GUARDED_BY(mu);
  bool reader_done TP_GUARDED_BY(mu) = false;
  bool write_failed TP_GUARDED_BY(mu) = false;

  Thread thread;
  bool finished = false;  ///< guarded by TcpServer::conns_mu_
};

TcpServer::TcpServer(service::Engine& engine, TcpServerConfig config)
    : engine_(engine),
      config_(std::move(config)),
      conn_lifetime_us_(obs::duration_bucket_bounds()),
      conn_requests_(request_count_bounds()) {
  TP_REQUIRE(config_.max_conns >= 1, "max_conns must be >= 1");
  TP_REQUIRE(config_.max_line_bytes >= 64,
             "max_line_bytes must be >= 64 (a minimal request is longer)");
}

TcpServer::~TcpServer() {
  if (!started_) return;
  request_drain();
  wait_until_drained();
  acceptor_.join();
}

void TcpServer::start() {
  TP_REQUIRE(!started_, "TcpServer::start called twice");
  listener_.emplace(config_.host, config_.port);
  started_ = true;
  acceptor_ = Thread([this] { acceptor_loop(); });
}

std::string TcpServer::address() const {
  TP_REQUIRE(listener_.has_value(), "server not started");
  return listener_->address();
}

u16 TcpServer::port() const {
  TP_REQUIRE(listener_.has_value(), "server not started");
  return listener_->port();
}

void TcpServer::request_drain() {
  draining_.store(true, std::memory_order_relaxed);
  wake_.notify();
}

void TcpServer::wait_until_drained() {
  if (!started_) return;
  MutexLock lock(conns_mu_);
  while (!drained_) conns_cv_.wait(lock);
}

TcpServerStats TcpServer::stats() const {
  const MutexLock lock(stats_mu_);
  return stats_;
}

service::ListenerStatus TcpServer::listener_status() const {
  service::ListenerStatus out;
  out.configured = true;
  out.address = started_ ? listener_->address()
                         : config_.host + ":" + std::to_string(config_.port);
  const bool draining = draining_.load(std::memory_order_relaxed);
  out.state = draining ? "draining" : "accepting";
  const MutexLock lock(stats_mu_);
  out.open_connections = stats_.open_connections;
  out.draining_connections = draining ? stats_.open_connections : 0;
  out.accepted = stats_.accepted;
  out.rejected = stats_.rejected;
  return out;
}

void TcpServer::acceptor_loop() {
  for (;;) {
    pollfd fds[2] = {{listener_->fd(), POLLIN, 0},
                     {wake_.read_fd(), POLLIN, 0}};
    const int rc = poll(fds, 2, 250);
    reap_finished();
    // The wake pipe carries both reap nudges and — from signal handlers
    // writing kDrain on drain_wakeup_fd() — drain requests.
    if (rc > 0 && (fds[1].revents & POLLIN) != 0 && wake_.drain())
      draining_.store(true, std::memory_order_relaxed);
    if (draining_.load(std::memory_order_relaxed)) break;
    if (rc <= 0 || (fds[0].revents & POLLIN) == 0) continue;

    Socket sock = listener_->accept_connection();
    if (!sock.valid()) continue;

    i64 conn_id = 0;
    bool over_limit = false;
    {
      const MutexLock lock(stats_mu_);
      if (stats_.open_connections >= config_.max_conns) {
        over_limit = true;
        ++stats_.rejected;
      } else {
        ++stats_.accepted;
        ++stats_.open_connections;
        if (stats_.open_connections > stats_.peak_connections)
          stats_.peak_connections = stats_.open_connections;
        conn_id = stats_.accepted;
      }
    }
    if (over_limit) {
      // One structured refusal line, then close: a client sees why it was
      // turned away instead of a bare RST.
      service::StagedLine refusal;
      refusal.refuse("connection limit reached (max_conns=" +
                     std::to_string(config_.max_conns) + ")");
      sock.write_all(service::render_line(refusal));
      continue;  // ~Socket closes
    }

    auto conn = std::make_shared<Conn>(std::move(sock), conn_id);
    conn->thread = Thread([this, conn] { conn_main(conn); });
    const MutexLock lock(conns_mu_);
    conns_.push_back(std::move(conn));
  }

  // Drain: no new connections, then stop every reader.  Writers finish
  // and flush whatever was accepted before the drain began.
  listener_->close();
  {
    const MutexLock lock(conns_mu_);
    for (const auto& conn : conns_)
      if (!conn->finished) conn->sock.shutdown_read();
  }
  {
    MutexLock lock(conns_mu_);
    for (;;) {
      bool all_finished = true;
      for (const auto& conn : conns_)
        if (!conn->finished) {
          all_finished = false;
          break;
        }
      if (all_finished) break;
      conns_cv_.wait(lock);
    }
  }
  reap_finished();
  {
    const MutexLock lock(conns_mu_);
    drained_ = true;
  }
  conns_cv_.notify_all();
}

void TcpServer::reap_finished() {
  std::vector<std::shared_ptr<Conn>> done;
  {
    const MutexLock lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->finished) {
        done.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Join outside conns_mu_: a finished thread exits momentarily, but
  // there is no reason to hold the lock while it does.
  for (const auto& conn : done) conn->thread.join();
}

void TcpServer::conn_main(std::shared_ptr<Conn> conn) {
  Thread writer([this, &conn] { writer_loop(*conn); });

  LineBuffer lines(config_.max_line_bytes);
  char buf[16384];
  i64 line_no = 0;
  bool stop = false;
  while (!stop) {
    const i64 got = conn->sock.read_some(buf, sizeof buf);
    if (got <= 0) break;
    {
      const MutexLock lock(stats_mu_);
      stats_.bytes_in += got;
    }
    lines.feed(buf, static_cast<std::size_t>(got));
    while (auto line = lines.next_line()) {
      if (!process_line(*conn, *line, ++line_no)) {
        stop = true;
        break;
      }
    }
  }
  if (!stop) {
    // getline parity: EOF (clean close, half-close, or drain-forced
    // shutdown_read) still answers a final unterminated line.
    if (auto residual = lines.take_residual())
      process_line(*conn, *residual, ++line_no);
  }

  {
    const MutexLock lock(conn->mu);
    conn->reader_done = true;
  }
  conn->slots_nonempty.notify_all();
  writer.join();

  const i64 lifetime_ns = conn->lifetime.elapsed_ns();
  {
    const MutexLock lock(stats_mu_);
    --stats_.open_connections;
    conn_lifetime_us_.record(lifetime_ns / 1000);
    conn_requests_.record(conn->requests);
  }
  obs::Tracer& tracer = obs::tracer();
  if (tracer.enabled())
    tracer.complete("conn " + std::to_string(conn->id), lifetime_ns, "net");

  {
    const MutexLock lock(conns_mu_);
    conn->finished = true;
  }
  conns_cv_.notify_all();
  wake_.notify();  // let the acceptor reap without waiting for its tick
}

bool TcpServer::process_line(Conn& conn, const LineBuffer::Line& line,
                             i64 line_no) {
  using Kind = service::ParsedLine::Kind;
  service::ParsedLine parsed;
  if (line.oversized) {
    parsed.kind = Kind::Refused;
    parsed.staged.id = salvage_id_prefix(line.text, line_no).dump();
    parsed.staged.refuse("oversized request line: exceeded max_line_bytes=" +
                         std::to_string(config_.max_line_bytes) +
                         " and was discarded");
  } else {
    parsed = service::parse_line(line.text, line_no);
    if (parsed.kind == Kind::Blank) return true;
  }
  ++conn.requests;
  {
    const MutexLock lock(stats_mu_);
    ++stats_.requests;
    if (line.oversized) ++stats_.oversized_lines;
  }

  bool refused = parsed.kind == Kind::Refused && !line.oversized;
  bool quit = false;
  if (parsed.kind == Kind::Admin) {
    // One registry writer at a time: metricsz folds engine AND server
    // counters into the single-writer registry, and several connection
    // threads can carry admin ops concurrently.
    const MutexLock lock(admin_mu_);
    if (parsed.doc.find("op")->as_string() == "metricsz")
      publish_stats_locked();
    refused =
        !service::answer_admin(engine_, parsed, &quit, listener_status());
  }
  const bool drain_reject =
      parsed.kind == Kind::Query && draining_.load(std::memory_order_relaxed);
  if (drain_reject)
    parsed.staged.refuse("server draining: request rejected, retry elsewhere");
  else if (parsed.kind == Kind::Query)
    parsed.staged.ticket = engine_.try_submit(parsed.request);
  if (refused || drain_reject) {
    const MutexLock lock(stats_mu_);
    if (refused) ++stats_.parse_errors;
    if (drain_reject) ++stats_.drain_rejects;
  }
  // quitz over TCP drains the whole server, not just this connection: its
  // response is staged first, then intake stops.
  if (quit) request_drain();
  return push_slot(conn, std::move(parsed.staged)) && !quit;
}

bool TcpServer::push_slot(Conn& conn, service::StagedLine slot) {
  {
    MutexLock lock(conn.mu);
    // Per-connection backpressure: a full window blocks the reader (and
    // therefore stops consuming the socket) until the writer catches up.
    while (conn.slots.size() >= kPipelineWindow && !conn.write_failed)
      conn.slots_nonfull.wait(lock);
    if (conn.write_failed) return false;
    conn.slots.push_back(std::move(slot));
  }
  conn.slots_nonempty.notify_one();
  return true;
}

void TcpServer::writer_loop(Conn& conn) {
  for (;;) {
    service::StagedLine slot;
    {
      MutexLock lock(conn.mu);
      while (conn.slots.empty() && !conn.reader_done)
        conn.slots_nonempty.wait(lock);
      if (conn.slots.empty()) break;  // reader done and fully flushed
      slot = std::move(conn.slots.front());
      conn.slots.pop_front();
    }
    conn.slots_nonfull.notify_one();

    bool overload = false;
    const std::string text = service::render_line(slot, &overload);
    const bool sent = conn.sock.write_all(text);
    {
      const MutexLock lock(stats_mu_);
      if (sent) {
        ++stats_.responses;
        stats_.bytes_out += static_cast<i64>(text.size());
      }
      if (overload) ++stats_.overload_rejects;
    }
    if (!sent) {
      // Peer is gone.  Unstick the reader (it may be blocked on a full
      // window or a socket read) and stop; unsent tickets are abandoned —
      // the engine fulfills them regardless, nobody waits.
      {
        const MutexLock lock(conn.mu);
        conn.write_failed = true;
        conn.slots.clear();
      }
      conn.slots_nonfull.notify_all();
      conn.sock.shutdown_read();
      return;
    }
  }
  // Clean end of stream: every staged response was written.  FIN so the
  // client's final read sees EOF instead of a reset.
  conn.sock.shutdown_write();
}

void TcpServer::publish_stats() {
  const MutexLock lock(admin_mu_);
  publish_stats_locked();
}

void TcpServer::publish_stats_locked() {
  obs::MetricsRegistry& reg = obs::registry();
  if (!reg.enabled()) return;

  TcpServerStats cur;
  obs::HistogramData lifetime_delta(obs::duration_bucket_bounds());
  obs::HistogramData requests_delta(request_count_bounds());
  {
    const MutexLock lock(stats_mu_);
    cur = stats_;
    std::swap(lifetime_delta, conn_lifetime_us_);
    std::swap(requests_delta, conn_requests_);
  }

  const auto publish = [&reg](const char* name, i64 now, i64& last) {
    if (now > last) reg.add(reg.counter(name), now - last);
    last = now;
  };
  publish("net.accepted", cur.accepted, published_.accepted);
  publish("net.rejected_conns", cur.rejected, published_.rejected);
  publish("net.requests", cur.requests, published_.requests);
  publish("net.responses", cur.responses, published_.responses);
  publish("net.bytes_in", cur.bytes_in, published_.bytes_in);
  publish("net.bytes_out", cur.bytes_out, published_.bytes_out);
  publish("net.oversized_lines", cur.oversized_lines,
          published_.oversized_lines);
  publish("net.parse_errors", cur.parse_errors, published_.parse_errors);
  publish("net.overload_rejects", cur.overload_rejects,
          published_.overload_rejects);
  publish("net.drain_rejects", cur.drain_rejects, published_.drain_rejects);

  reg.set(reg.gauge("net.open_connections"), cur.open_connections);
  reg.set_max(reg.gauge("net.peak_connections"), cur.peak_connections);

  reg.merge_histogram("net.conn_lifetime_us", lifetime_delta);
  reg.merge_histogram("net.conn_requests", requests_delta);
}

}  // namespace tp::net
