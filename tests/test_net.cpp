// Tests for the TCP front-end: line framing and id salvage, byte-identity
// with the batch front-end, hostile wire input (oversized lines,
// half-closed sockets, pipelining), connection limits, overload
// rejection, graceful drain, and the loadgen driver.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/net/line_buffer.h"
#include "src/net/loadgen.h"
#include "src/net/socket.h"
#include "src/net/tcp_server.h"
#include "src/obs/obs.h"
#include "src/service/service.h"

namespace tp::net {
namespace {

using service::Engine;
using service::EngineConfig;

service::QueryKey plan_key(i32 ka, i32 kb) {
  Radices radices;
  radices.push_back(ka);
  radices.push_back(kb);
  return service::make_query_key(radices, 1, RouterKind::Odr,
                                 service::QueryOp::Plan);
}

// ------------------------------------------------------------- test client

/// A blocking JSONL test client against a TcpServer.
struct Client {
  Socket sock;
  LineBuffer lines{1 << 20};

  explicit Client(u16 port) : sock(connect_to("127.0.0.1", port)) {}

  void send(std::string_view text) {
    ASSERT_TRUE(sock.write_all(text.data(), text.size()));
  }

  /// One response line, or nullopt at EOF.
  std::optional<std::string> read_line() {
    for (;;) {
      if (auto line = lines.next_line()) return line->text;
      char buf[4096];
      const i64 got = sock.read_some(buf, sizeof buf);
      if (got <= 0) {
        if (auto residual = lines.take_residual()) return residual->text;
        return std::nullopt;
      }
      lines.feed(buf, static_cast<std::size_t>(got));
    }
  }

  /// Every remaining byte until EOF, verbatim.
  std::string slurp() {
    std::string out;
    char buf[4096];
    i64 got = 0;
    while ((got = sock.read_some(buf, sizeof buf)) > 0)
      out.append(buf, static_cast<std::size_t>(got));
    return out;
  }
};

void wait_for(const std::function<bool()>& pred) {
  for (int i = 0; i < 5000 && !pred(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(pred());
}

// ------------------------------------------------------------- LineBuffer

TEST(LineBuffer, ReassemblesLinesAcrossChunks) {
  LineBuffer buf(1024);
  buf.feed("ab");
  EXPECT_FALSE(buf.next_line().has_value());
  buf.feed("c\nde\nf");
  auto one = buf.next_line();
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(one->text, "abc");
  EXPECT_FALSE(one->oversized);
  auto two = buf.next_line();
  ASSERT_TRUE(two.has_value());
  EXPECT_EQ(two->text, "de");
  EXPECT_FALSE(buf.next_line().has_value());
  auto residual = buf.take_residual();
  ASSERT_TRUE(residual.has_value());
  EXPECT_EQ(residual->text, "f");
  EXPECT_FALSE(buf.take_residual().has_value());
}

TEST(LineBuffer, BlankLinesComeThrough) {
  LineBuffer buf(1024);
  buf.feed("\n\nx\n");
  EXPECT_EQ(buf.next_line()->text, "");
  EXPECT_EQ(buf.next_line()->text, "");
  EXPECT_EQ(buf.next_line()->text, "x");
}

TEST(LineBuffer, OversizedLineTruncatedOnceThenDiscarded) {
  LineBuffer buf(8);
  // 12 bytes, no newline yet: reported as soon as the limit is crossed.
  buf.feed("0123456789ab");
  auto big = buf.next_line();
  ASSERT_TRUE(big.has_value());
  EXPECT_TRUE(big->oversized);
  EXPECT_EQ(big->text, "01234567");
  // The rest of the line (through its newline) is dropped; the next real
  // line frames normally.
  buf.feed("cdef\nok\n");
  auto next = buf.next_line();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->text, "ok");
  EXPECT_FALSE(next->oversized);
}

TEST(LineBuffer, OversizedTailIsNotResidual) {
  LineBuffer buf(8);
  buf.feed("0123456789ab");
  ASSERT_TRUE(buf.next_line()->oversized);
  buf.feed("cdef");  // still the discarded tail, EOF here
  EXPECT_FALSE(buf.next_line().has_value());
  EXPECT_FALSE(buf.take_residual().has_value());
}

TEST(LineBuffer, ExactLimitLineIsNotOversized) {
  LineBuffer buf(4);
  buf.feed("abcd\n");
  auto line = buf.next_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->text, "abcd");
  EXPECT_FALSE(line->oversized);
}

// ------------------------------------------------------------- id salvage

TEST(SalvageIdPrefix, RecoversStringAndNumberIds) {
  EXPECT_EQ(salvage_id_prefix(R"({"id":"q7","op":"plan","pad":)", 3)
                .as_string(),
            "q7");
  EXPECT_EQ(salvage_id_prefix(R"({"id": 42,"op":"plan")", 3).as_int(), 42);
}

TEST(SalvageIdPrefix, FallsBackToLineNumberWhenAmbiguous) {
  // No id at all.
  EXPECT_EQ(salvage_id_prefix(R"({"op":"plan","pad":"xxx)", 9).as_int(), 9);
  // String id cut before its closing quote.
  EXPECT_EQ(salvage_id_prefix(R"({"id":"trunc)", 9).as_int(), 9);
  // Escapes need a real parser; bail.
  EXPECT_EQ(salvage_id_prefix(R"({"id":"a\"b","op":)", 9).as_int(), 9);
  // A number running into the cut may itself be truncated mid-digits.
  EXPECT_EQ(salvage_id_prefix(R"({"id":123)", 9).as_int(), 9);
}

// ---------------------------------------------------------- parse_host_port

TEST(ParseHostPort, AcceptsAddrPortAndDefaultsEmptyHost) {
  const HostPort hp = parse_host_port("127.0.0.1:8080");
  EXPECT_EQ(hp.host, "127.0.0.1");
  EXPECT_EQ(hp.port, 8080);
  EXPECT_EQ(parse_host_port(":0").host, "0.0.0.0");
  EXPECT_EQ(parse_host_port(":0").port, 0);
}

TEST(ParseHostPort, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_host_port("no-port"), Error);
  EXPECT_THROW(parse_host_port("h:99999"), Error);
  EXPECT_THROW(parse_host_port("h:12x"), Error);
}

// ------------------------------------------------------------- TCP server

TEST(TcpServer, ByteIdentityWithBatch) {
  // The same request stream — plans, loads, bounds, blank and
  // whitespace-only lines, a CRLF line, an id-less line, parse and
  // validation errors (one echoing an object id), refused admin ops and an
  // expired deadline — must produce byte-identical output through
  // run_batch, run_serve and TCP (responses are a pure function of the
  // request; ordering is input order on every path).
  const std::string stream =
      "{\"id\":1,\"op\":\"plan\",\"d\":2,\"k\":4}\n"
      "{\"id\":\"two\",\"op\":\"load\",\"d\":2,\"k\":6,\"router\":\"udr\"}\n"
      "\n"
      "{\"op\":\"bounds\",\"d\":3,\"k\":4}\n"
      "{\"id\":5,\"op\":\"nope\"}\n"
      "{\"id\":6,\"op\":\"plan\",\"d\":2,\"k\":4}\n"
      " \t \n"
      "{\"id\":\"crlf\",\"op\":\"plan\",\"d\":2,\"k\":6}\r\n"
      "[1]\n"
      "{\"id\":{\"o\":1},\"op\":\"plan\",\"d\":2,\"k\":4,\"typo\":1}\n"
      "{\"id\":\"adm\",\"op\":\"cachez\",\"verbose\":true}\n"
      "{\"id\":\"fmt\",\"op\":\"metricsz\",\"format\":\"xml\"}\n"
      "{\"id\":\"dl0\",\"op\":\"plan\",\"d\":2,\"k\":4,\"deadline_ms\":0}\n";

  const auto stdio_output = [&stream](auto run) {
    Engine engine(EngineConfig{});
    std::istringstream in(stream);
    std::ostringstream out;
    EXPECT_EQ(run(engine, in, out), 11);  // blank lines are not requests
    return out.str();
  };
  const std::string batch_out = stdio_output(service::run_batch);
  EXPECT_EQ(stdio_output(service::run_serve), batch_out);
  EXPECT_NE(batch_out.find("{\"id\":{\"o\":1},\"ok\":false"),
            std::string::npos);
  EXPECT_NE(batch_out.find("{\"id\":\"crlf\",\"ok\":true"), std::string::npos);
  EXPECT_NE(batch_out.find("\"timeout\":true"), std::string::npos);

  Engine engine(EngineConfig{});
  TcpServer server(engine, TcpServerConfig{});
  server.start();
  Client client(server.port());
  client.send(stream);
  client.sock.shutdown_write();
  EXPECT_EQ(client.slurp(), batch_out);
  // net.parse_errors counts every refused line: the three that fail to
  // parse or validate and the two refused admin ops.
  const TcpServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 11);
  EXPECT_EQ(stats.parse_errors, 5);
}

TEST(TcpServer, HalfClosedSocketAnswersResidualLine) {
  // getline parity: the final unterminated line still gets its answer.
  Engine engine(EngineConfig{});
  TcpServer server(engine, TcpServerConfig{});
  server.start();
  Client client(server.port());
  client.send("{\"id\":\"tail\",\"op\":\"plan\",\"d\":2,\"k\":4}");
  client.sock.shutdown_write();
  auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  const obs::JsonValue doc = obs::parse_json(*line);
  EXPECT_EQ(doc.find("id")->as_string(), "tail");
  EXPECT_TRUE(doc.find("ok")->as_bool());
  EXPECT_FALSE(client.read_line().has_value());  // then clean EOF
}

TEST(TcpServer, OversizedLineSalvagesIdAndConnectionSurvives) {
  Engine engine(EngineConfig{});
  TcpServerConfig config;
  config.max_line_bytes = 128;
  TcpServer server(engine, config);
  server.start();
  Client client(server.port());

  std::string big = "{\"id\":\"big\",\"op\":\"plan\",\"pad\":\"";
  big.append(300, 'x');
  big += "\"}\n";
  client.send(big);
  auto reply = client.read_line();
  ASSERT_TRUE(reply.has_value());
  const obs::JsonValue doc = obs::parse_json(*reply);
  EXPECT_EQ(doc.find("id")->as_string(), "big");
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_NE(doc.find("error")->as_string().find("oversized"),
            std::string::npos);
  EXPECT_NE(doc.find("error")->as_string().find("max_line_bytes=128"),
            std::string::npos);

  // The connection survives and the next request is answered normally.
  client.send("{\"id\":\"after\",\"op\":\"plan\",\"d\":2,\"k\":4}\n");
  auto next = client.read_line();
  ASSERT_TRUE(next.has_value());
  const obs::JsonValue ok = obs::parse_json(*next);
  EXPECT_EQ(ok.find("id")->as_string(), "after");
  EXPECT_TRUE(ok.find("ok")->as_bool());
  EXPECT_EQ(server.stats().oversized_lines, 1);
}

TEST(TcpServer, PipelinedRequestsAnsweredInOrder) {
  Engine engine(EngineConfig{});
  TcpServer server(engine, TcpServerConfig{});
  server.start();
  Client client(server.port());

  // One write carrying many interleaved requests (distinct keys, repeats,
  // an admin op in the middle): responses must come back in send order.
  std::string burst;
  std::vector<std::string> ids;
  for (int i = 0; i < 12; ++i) {
    std::string id = "p";
    id += std::to_string(i);
    ids.push_back(id);
    const int k = 4 + 2 * (i % 3);
    burst += "{\"id\":\"" + id + "\",\"op\":\"plan\",\"d\":2,\"k\":" +
             std::to_string(k) + "}\n";
  }
  ids.push_back("mid");
  burst += "{\"id\":\"mid\",\"op\":\"statusz\"}\n";
  ids.push_back("p-last");
  burst += "{\"id\":\"p-last\",\"op\":\"plan\",\"d\":2,\"k\":4}\n";
  client.send(burst);

  for (const std::string& id : ids) {
    auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    const obs::JsonValue doc = obs::parse_json(*line);
    EXPECT_EQ(doc.find("id")->as_string(), id);
    EXPECT_TRUE(doc.find("ok")->as_bool());
  }
}

TEST(TcpServer, ConnectionLimitRejectsWithStructuredError) {
  Engine engine(EngineConfig{});
  TcpServerConfig config;
  config.max_conns = 1;
  TcpServer server(engine, config);
  server.start();

  Client first(server.port());
  first.send("{\"id\":1,\"op\":\"plan\",\"d\":2,\"k\":4}\n");
  ASSERT_TRUE(first.read_line().has_value());  // conn 1 is live

  Client second(server.port());
  auto reply = second.read_line();
  ASSERT_TRUE(reply.has_value());
  const obs::JsonValue doc = obs::parse_json(*reply);
  EXPECT_FALSE(doc.find("ok")->as_bool());
  EXPECT_NE(doc.find("error")->as_string().find("connection limit"),
            std::string::npos);
  EXPECT_FALSE(second.read_line().has_value());  // then EOF
  wait_for([&server] { return server.stats().rejected == 1; });
}

TEST(Engine, TrySubmitRejectsWithOverloadWhenQueueFull) {
  EngineConfig config;
  config.threads = 1;
  config.queue_capacity = 1;
  Engine engine(config);

  // Park the one worker on a key that computes for tens of milliseconds
  // (the adaptive count of the full T_64^3, where every corridor class
  // counts).  While it computes, the first distinct key fills the 1-deep
  // queue and the next ones must overflow: try_submit answers them with a
  // structured overload response instead of blocking.
  service::Request parked;
  parked.key =
      service::make_query_key(Radices{64, 64, 64}, 64, RouterKind::Adaptive,
                              service::QueryOp::Load);
  Engine::Ticket parked_ticket = engine.try_submit(parked);
  while (engine.worker_states()[0] == "idle")
    std::this_thread::sleep_for(std::chrono::microseconds(100));

  i64 overloads = 0;
  std::vector<Engine::Ticket> tickets;
  for (i32 i = 0; i < 40; ++i) {
    service::Request req;
    req.key = plan_key(4 + 2 * (i % 20), 4 + 2 * (i / 20));
    tickets.push_back(engine.try_submit(req));
  }
  for (auto& ticket : tickets) {
    const service::Response response = ticket.wait();
    if (response.overload) {
      ++overloads;
      EXPECT_FALSE(response.ok);
      EXPECT_FALSE(response.timeout);
      EXPECT_NE(response.error.find("overloaded"), std::string::npos);
    }
  }
  EXPECT_GT(overloads, 0);
  EXPECT_TRUE(parked_ticket.wait().ok);

  // The engine still answers: a fresh blocking submit works fine.
  service::Request again;
  again.key = plan_key(4, 4);
  EXPECT_TRUE(engine.run(again).ok);
}

TEST(TcpServer, GracefulDrainAnswersEverythingAccepted) {
  Engine engine(EngineConfig{});
  TcpServer server(engine, TcpServerConfig{});
  server.start();
  Client client(server.port());

  std::string burst;
  for (int i = 0; i < 8; ++i)
    burst += "{\"id\":" + std::to_string(i) +
             ",\"op\":\"plan\",\"d\":2,\"k\":" + std::to_string(4 + 2 * i) +
             "}\n";
  client.send(burst);
  // Make sure the server has read all 8 before the drain starts.
  wait_for([&server] { return server.stats().requests == 8; });

  server.request_drain();
  server.wait_until_drained();

  // Every accepted request got a complete response line, then EOF — no
  // torn bytes.
  const std::string rest = client.slurp();
  ASSERT_FALSE(rest.empty());
  EXPECT_EQ(rest.back(), '\n');
  i64 responses = 0;
  std::istringstream in(rest);
  std::string line;
  while (std::getline(in, line)) {
    const obs::JsonValue doc = obs::parse_json(line);
    EXPECT_TRUE(doc.find("ok")->as_bool());
    ++responses;
  }
  EXPECT_EQ(responses, 8);
  EXPECT_EQ(server.stats().open_connections, 0);
}

TEST(TcpServer, QuitzDrainsWholeServer) {
  Engine engine(EngineConfig{});
  TcpServer server(engine, TcpServerConfig{});
  server.start();
  Client client(server.port());
  client.send(
      "{\"id\":\"q1\",\"op\":\"plan\",\"d\":2,\"k\":4}\n"
      "{\"id\":\"bye\",\"op\":\"quitz\"}\n"
      "{\"id\":\"never\",\"op\":\"plan\",\"d\":2,\"k\":6}\n");

  auto first = client.read_line();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(obs::parse_json(*first).find("id")->as_string(), "q1");
  auto second = client.read_line();
  ASSERT_TRUE(second.has_value());
  const obs::JsonValue quitz = obs::parse_json(*second);
  EXPECT_EQ(quitz.find("id")->as_string(), "bye");
  EXPECT_TRUE(quitz.find("draining")->as_bool());
  // Intake stopped at quitz: the third request is never answered.
  EXPECT_FALSE(client.read_line().has_value());

  server.wait_until_drained();
  EXPECT_TRUE(server.draining());
}

TEST(TcpServer, StatuszReportsListenerState) {
  Engine engine(EngineConfig{});
  TcpServer server(engine, TcpServerConfig{});
  server.start();

  Client client(server.port());
  client.send("{\"id\":\"s\",\"op\":\"statusz\"}\n");
  auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  const obs::JsonValue doc = obs::parse_json(*line);
  const obs::JsonValue* listener = doc.find("listener");
  ASSERT_NE(listener, nullptr);
  EXPECT_TRUE(listener->find("configured")->as_bool());
  EXPECT_EQ(listener->find("address")->as_string(), server.address());
  EXPECT_EQ(listener->find("state")->as_string(), "accepting");
  EXPECT_EQ(listener->find("open_connections")->as_int(), 1);
  EXPECT_EQ(listener->find("accepted")->as_int(), 1);
}

TEST(TcpServer, StatuszListenerComesFromTheServerThatAnswers) {
  // Nothing is installed anywhere: each server reports itself.  Two
  // servers over one engine, so the engine cannot be what tells them
  // apart, and the stdio path over the same engine stays unconfigured.
  Engine engine(EngineConfig{});
  TcpServer first(engine, TcpServerConfig{});
  TcpServer second(engine, TcpServerConfig{});
  first.start();
  second.start();

  for (TcpServer* server : {&first, &second}) {
    Client client(server->port());
    client.send("{\"id\":\"s\",\"op\":\"statusz\"}\n");
    auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    const obs::JsonValue doc = obs::parse_json(*line);
    const obs::JsonValue* listener = doc.find("listener");
    ASSERT_NE(listener, nullptr);
    EXPECT_TRUE(listener->find("configured")->as_bool());
    EXPECT_EQ(listener->find("address")->as_string(), server->address());
    EXPECT_EQ(listener->find("state")->as_string(), "accepting");
  }

  std::istringstream in("{\"id\":\"s\",\"op\":\"statusz\"}\n");
  std::ostringstream out;
  service::run_batch(engine, in, out);
  const obs::JsonValue doc = obs::parse_json(out.str());
  const obs::JsonValue* listener = doc.find("listener");
  ASSERT_NE(listener, nullptr);
  EXPECT_FALSE(listener->find("configured")->as_bool());
  EXPECT_EQ(listener->find("state")->as_string(), "none");
}

TEST(TcpServer, PublishesCountersIntoRegistry) {
  obs::registry().reset();
  obs::registry().set_enabled(true);
  {
    Engine engine(EngineConfig{});
    TcpServer server(engine, TcpServerConfig{});
    server.start();
    {
      Client client(server.port());
      client.send("{\"id\":1,\"op\":\"plan\",\"d\":2,\"k\":4}\n");
      ASSERT_TRUE(client.read_line().has_value());
      client.sock.shutdown_write();
      EXPECT_FALSE(client.read_line().has_value());
    }
    wait_for([&server] { return server.stats().open_connections == 0; });
    server.publish_stats();
  }
  obs::registry().set_enabled(false);

  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  ASSERT_NE(snap.counter("net.accepted"), nullptr);
  EXPECT_EQ(*snap.counter("net.accepted"), 1);
  EXPECT_EQ(*snap.counter("net.requests"), 1);
  EXPECT_EQ(*snap.counter("net.responses"), 1);
  EXPECT_GT(*snap.counter("net.bytes_in"), 0);
  EXPECT_GT(*snap.counter("net.bytes_out"), 0);
  const obs::HistogramData* lifetime =
      snap.histogram("net.conn_lifetime_us");
  ASSERT_NE(lifetime, nullptr);
  EXPECT_EQ(lifetime->count, 1);
  const i64* open = snap.gauge("net.open_connections");
  ASSERT_NE(open, nullptr);
  EXPECT_EQ(*open, 0);
  obs::registry().reset();
}

// --------------------------------------------------------------- loadgen

TEST(KeySampler, UniformCoversUniverseZipfSkews) {
  KeySampler uniform(8, /*zipf=*/false, 1.1, 42);
  std::vector<i64> ucounts(8, 0);
  for (int i = 0; i < 4000; ++i) {
    const i64 key = uniform.next();
    ASSERT_GE(key, 0);
    ASSERT_LT(key, 8);
    ++ucounts[static_cast<std::size_t>(key)];
  }
  for (const i64 c : ucounts) EXPECT_GT(c, 0);

  KeySampler zipf(8, /*zipf=*/true, 1.2, 42);
  std::vector<i64> zcounts(8, 0);
  for (int i = 0; i < 4000; ++i)
    ++zcounts[static_cast<std::size_t>(zipf.next())];
  // Rank 1 dominates the tail under zipf(1.2).
  EXPECT_GT(zcounts[0], 3 * zcounts[7]);
  EXPECT_GT(zcounts[0], zcounts[1]);
}

TEST(Loadgen, ClosedLoopSmoke) {
  Engine engine(EngineConfig{});
  TcpServer server(engine, TcpServerConfig{});
  server.start();

  LoadgenConfig config;
  config.port = server.port();
  config.clients = 4;
  config.duration_ms = 400;
  config.warmup_ms = 100;
  config.universe = 4;
  const LoadgenReport report = run_loadgen(config);

  EXPECT_GT(report.sent, 0);
  EXPECT_EQ(report.answered, report.sent);
  EXPECT_EQ(report.ok, report.answered);
  EXPECT_EQ(report.errors, 0);
  EXPECT_EQ(report.timeouts, 0);
  EXPECT_EQ(report.torn, 0);
  EXPECT_GT(report.samples, 0);
  EXPECT_GT(report.qps, 0.0);
  EXPECT_GE(report.p99_us, report.p50_us);
  EXPECT_GE(report.p999_us, report.p99_us);

  std::ostringstream human;
  print_report(report, config, human);
  EXPECT_NE(human.str().find("mode=closed"), std::string::npos);
  EXPECT_NE(human.str().find("errors 0"), std::string::npos);

  const obs::JsonValue json = report_to_json(report, config);
  EXPECT_EQ(json.find("schema")->as_string(), "torusplace-loadgen/1");
  EXPECT_EQ(json.find("torn")->as_int(), 0);
}

TEST(Loadgen, OpenLoopSmoke) {
  Engine engine(EngineConfig{});
  TcpServer server(engine, TcpServerConfig{});
  server.start();

  LoadgenConfig config;
  config.port = server.port();
  config.open_loop = true;
  config.clients = 2;
  config.rate = 500.0;
  config.duration_ms = 400;
  config.warmup_ms = 100;
  config.universe = 4;
  config.zipf = true;
  const LoadgenReport report = run_loadgen(config);

  EXPECT_GT(report.sent, 0);
  EXPECT_EQ(report.answered, report.sent);
  EXPECT_EQ(report.errors, 0);
  EXPECT_EQ(report.torn, 0);
  EXPECT_GT(report.samples, 0);
}

TEST(Loadgen, GracefulDrainUnderLoadNeverTearsResponses) {
  Engine engine(EngineConfig{});
  TcpServer server(engine, TcpServerConfig{});
  server.start();

  LoadgenConfig config;
  config.port = server.port();
  config.clients = 4;
  config.duration_ms = 2000;
  config.warmup_ms = 0;
  config.universe = 8;

  LoadgenReport report;
  std::thread driver([&report, &config] { report = run_loadgen(config); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  server.request_drain();
  server.wait_until_drained();
  driver.join();

  // Mid-run drain: some requests go unanswered (closed_early) and some
  // may be rejected with the structured draining error — but a torn
  // response line is a contract violation, always.
  EXPECT_GT(report.answered, 0);
  EXPECT_EQ(report.torn, 0);
}

}  // namespace
}  // namespace tp::net
