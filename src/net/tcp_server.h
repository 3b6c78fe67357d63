// TCP front-end for the query engine: the JSONL wire schema of
// batch/serve (jsonl.h), line-framed over sockets, many clients at once.
//
// Shape: a thread-per-connection acceptor.  Each accepted socket gets one
// connection thread that reads and parses request lines, plus one writer
// thread that waits tickets and sends responses — so responses always go
// out in request order (the protocol has no other way to match pipelined
// requests to answers) while the engine computes them in any order.
//
// Backpressure, two layers:
//   - per connection: a bounded slot window between reader and writer.
//     When a client pipelines faster than its responses drain, the reader
//     blocks instead of buffering — the TCP receive window fills and the
//     client is flow-controlled by the kernel, not by server memory.
//   - engine-wide: requests are submitted with Engine::try_submit, which
//     never blocks the socket loop; a full submission queue answers
//     {"ok":false, "error":"overloaded: ...", "overload":true} instead.
//
// Hostile input: lines longer than max_line_bytes are answered with a
// structured error (request id salvaged from the truncated prefix) and
// the remainder is discarded — the connection survives.  A half-closed
// socket behaves exactly like stdio EOF, including the final unterminated
// line (LineBuffer::take_residual).
//
// Graceful drain (SIGTERM via drain_wakeup_fd(), {"op":"quitz"}, or the
// destructor): stop accepting, stop reading every socket, finish and
// flush all in-flight responses, FIN, close.  A client never sees a torn
// response line.  Requests parsed after the drain began get a structured
// "server draining" rejection.
//
// Determinism contract: lines are parsed, answered and rendered by the
// same service::parse_line / answer_admin / render_line as batch and
// serve --stdio, so a request stream gets byte-identical answers over
// all three (tested in tests/test_net.cpp).

#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/net/line_buffer.h"
#include "src/net/socket.h"
#include "src/obs/registry.h"
#include "src/service/admin.h"
#include "src/service/engine.h"
#include "src/service/jsonl.h"
#include "src/util/thread_annotations.h"

namespace tp::net {

struct TcpServerConfig {
  std::string host = "127.0.0.1";
  u16 port = 0;                 ///< 0 = ephemeral (see TcpServer::port())
  i64 max_conns = 64;           ///< accepted beyond this are rejected
  std::size_t max_line_bytes = 1 << 20;  ///< request-line guard
};

/// Exact point-in-time server counters (see publish_stats for the
/// registry names).
struct TcpServerStats {
  i64 accepted = 0;
  i64 rejected = 0;  ///< connections refused over max_conns
  i64 open_connections = 0;
  i64 peak_connections = 0;
  i64 requests = 0;   ///< non-blank request lines read
  i64 responses = 0;  ///< response lines written
  i64 bytes_in = 0;
  i64 bytes_out = 0;
  i64 oversized_lines = 0;
  i64 parse_errors = 0;  ///< refused query or admin lines
  i64 overload_rejects = 0;  ///< try_submit queue-full rejections
  i64 drain_rejects = 0;     ///< requests refused after drain began
};

class TcpServer {
 public:
  TcpServer(service::Engine& engine, TcpServerConfig config);

  /// Drains (request_drain + wait_until_drained) and joins everything.
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and starts the acceptor.  Throws tp::Error when the
  /// address cannot be bound.  Call once.
  void start();

  /// The bound "host:port" / port (ephemeral port 0 resolved).
  std::string address() const;
  u16 port() const;

  /// Begins a graceful drain: stop accepting, stop reading every
  /// connection, finish + flush in-flight responses, close.  Idempotent,
  /// non-blocking, safe from any thread.
  void request_drain();

  /// A file descriptor for SIGTERM handlers: one write() of the byte
  /// WakePipe::kDrain ('q') on it is the async-signal-safe equivalent of
  /// request_drain().
  int drain_wakeup_fd() const { return wake_.write_fd(); }

  bool draining() const { return draining_.load(std::memory_order_relaxed); }

  /// Blocks until the drain completed (every connection finished and
  /// flushed).  Does not itself start one.
  void wait_until_drained() TP_EXCLUDES(conns_mu_);

  TcpServerStats stats() const TP_EXCLUDES(stats_mu_);

  /// The listener block of the statusz answers this server gives (safe
  /// from any thread).
  service::ListenerStatus listener_status() const TP_EXCLUDES(stats_mu_);

  /// Publishes counters/gauges/histograms into the global obs registry as
  /// deltas (same contract as Engine::publish_stats).  Serialized
  /// internally against metricsz requests answered on connection threads.
  void publish_stats() TP_EXCLUDES(admin_mu_, stats_mu_);

 private:
  struct Conn;

  void acceptor_loop();
  void conn_main(std::shared_ptr<Conn> conn);
  void writer_loop(Conn& conn);
  /// Parses + stages one request line.  False = stop reading (quitz or a
  /// dead writer).
  bool process_line(Conn& conn, const LineBuffer::Line& line, i64 line_no);
  bool push_slot(Conn& conn, service::StagedLine slot);
  /// Joins and erases finished connections (acceptor thread only).
  void reap_finished() TP_EXCLUDES(conns_mu_);
  void publish_stats_locked() TP_REQUIRES(admin_mu_);

  service::Engine& engine_;
  TcpServerConfig config_;
  std::optional<Listener> listener_;
  WakePipe wake_;
  Thread acceptor_;
  bool started_ = false;
  std::atomic<bool> draining_{false};

  mutable Mutex conns_mu_;
  CondVar conns_cv_;
  std::vector<std::shared_ptr<Conn>> conns_ TP_GUARDED_BY(conns_mu_);
  bool drained_ TP_GUARDED_BY(conns_mu_) = false;

  mutable Mutex stats_mu_;
  TcpServerStats stats_ TP_GUARDED_BY(stats_mu_);
  obs::HistogramData conn_lifetime_us_ TP_GUARDED_BY(stats_mu_);
  obs::HistogramData conn_requests_ TP_GUARDED_BY(stats_mu_);

  // Serializes registry writers: metricsz answered on connection threads
  // folds engine + server counters into the single-writer registry, so
  // every such fold (and handle_admin generally) happens under this lock.
  Mutex admin_mu_;
  TcpServerStats published_ TP_GUARDED_BY(admin_mu_);
};

}  // namespace tp::net
