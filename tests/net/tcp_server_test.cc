// TcpServer integration tests — a real listener on an ephemeral loopback
// port, a real ExplorationService behind it, real clients in front of it.
// Covers the acceptance behaviors ISSUE 6 names: pipelined + interleaved
// clients, per-line parse errors that never desync the stream, slow-client
// protection (one stalled reader cannot wedge the loop), and graceful drain
// under load with request conservation.
#include <algorithm>
#include <arpa/inet.h>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <netinet/in.h>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "core/engine.h"
#include "data/generators/bookcrossing_gen.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "server/service.h"

namespace vexus::net {
namespace {

using server::ExplorationService;
using server::Request;
using server::RequestType;
using server::ServiceOptions;

class TcpServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::BookCrossingGenerator::Config cfg;
    cfg.num_users = 400;
    cfg.num_books = 500;
    cfg.num_ratings = 2400;
    mining::DiscoveryOptions opt;
    opt.min_support_fraction = 0.03;
    engine_ = new core::VexusEngine(std::move(
        core::VexusEngine::Preprocess(
            data::BookCrossingGenerator::Generate(cfg), opt, {})
            .ValueOrDie()));
  }
  static void TearDownTestSuite() {
    delete engine_;
    engine_ = nullptr;
  }

  static ServiceOptions FastOptions() {
    ServiceOptions opts;
    opts.session_template.greedy.k = 4;
    opts.session_template.greedy.time_limit_ms = 30;
    opts.num_workers = 4;
    opts.dispatcher.default_budget_ms = 2000;  // tests care about order, not SLO
    return opts;
  }

  static core::VexusEngine* engine_;
};

core::VexusEngine* TcpServerTest::engine_ = nullptr;

Request Health() {
  Request req;
  req.type = RequestType::kHealth;
  return req;
}

TEST_F(TcpServerTest, StartsOnEphemeralPortAndAnswersHealth) {
  ExplorationService svc(engine_, FastOptions());
  TcpServer server(&svc);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  auto client = LineClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto resp = client->Call(Health());
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_TRUE(resp->status.ok());
}

TEST_F(TcpServerTest, PathologicalTickValuesAreClampedNotCastToEpoll) {
  // The event loop narrows tick_ms to epoll_wait's int timeout. Pre-fix
  // that was a bare static_cast: NaN slipped past the old `tick_ms <= 0`
  // validation (NaN compares false both ways) straight into UB, and a
  // beyond-INT_MAX tick cast to a negative timeout the kernel reads as
  // "block forever". Both now normalize / route through the shared
  // PollLapTimeoutMillis clamp.
  ExplorationService svc(engine_, FastOptions());
  {
    TcpServerOptions opts;
    opts.tick_ms = std::numeric_limits<double>::quiet_NaN();
    TcpServer server(&svc, opts);
    EXPECT_EQ(server.options().tick_ms, 100.0);  // pre-fix: stayed NaN
  }
  {
    // A Deadline-style quasi-infinite tick: the loop must still answer and
    // drain (the lap clamp keeps the timeout positive and bounded).
    TcpServerOptions opts;
    opts.tick_ms = 1e12;
    TcpServer server(&svc, opts);
    ASSERT_TRUE(server.Start().ok());
    auto client = LineClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    auto resp = client->Call(Health());
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_TRUE(resp->status.ok());
  }
  {
    // Sub-millisecond ticks used to truncate to a busy-spinning 0; the
    // clamp rounds them up to 1 ms and the loop serves normally.
    TcpServerOptions opts;
    opts.tick_ms = 0.25;
    TcpServer server(&svc, opts);
    ASSERT_TRUE(server.Start().ok());
    EXPECT_EQ(PollLapTimeoutMillis(server.options().tick_ms), 1);
    auto client = LineClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    auto resp = client->Call(Health());
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_TRUE(resp->status.ok());
  }
}

TEST_F(TcpServerTest, PipelinedRequestsComeBackInOrder) {
  ExplorationService svc(engine_, FastOptions());
  TcpServer server(&svc);
  ASSERT_TRUE(server.Start().ok());

  auto client = LineClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // A session start plus a burst of distinct ops, all on the wire before
  // any response is read. Workers may finish them out of order; the wire
  // must not.
  ASSERT_TRUE(
      client->SendLine(R"({"op":"start_session","session":"p","k":4})").ok());
  const int kBurst = 24;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(client
                    ->SendLine(i % 2 == 0 ? R"({"op":"health"})"
                                          : R"({"op":"get_stats"})")
                    .ok());
  }
  auto first = client->ReadLine(10'000);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_NE(first->find("\"start_session\""), std::string::npos);
  for (int i = 0; i < kBurst; ++i) {
    auto line = client->ReadLine(10'000);
    ASSERT_TRUE(line.ok()) << "response " << i << " lost: "
                           << line.status().ToString();
    const char* want = i % 2 == 0 ? "\"health\"" : "\"get_stats\"";
    EXPECT_NE(line->find(want), std::string::npos)
        << "response " << i << " out of order: " << *line;
  }
}

TEST_F(TcpServerTest, PipeliningBeyondCapOnLiveConnectionAnswersEverything) {
  ExplorationService svc(engine_, FastOptions());
  TcpServerOptions opts;
  // A small cap makes the whole burst land in the framer in one OnReadable
  // pass: 8 requests go in flight, the rest are framed-but-unemitted with
  // the kernel read buffer already empty. No later EPOLLIN edge exists, so
  // only completions can surface them (the DrainCompletions regression).
  opts.connection.max_pipelined = 8;
  TcpServer server(&svc, opts);
  ASSERT_TRUE(server.Start().ok());

  auto client = LineClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // One send() carrying 5x the pipeline cap. The connection stays open the
  // whole time — no half-close — and every request must still be answered.
  const int kBurst = 40;
  std::string burst;
  for (int i = 0; i < kBurst - 1; ++i) burst += "{\"op\":\"health\"}\n";
  burst += "{\"op\":\"health\"}";  // SendLine appends the final '\n'
  ASSERT_TRUE(client->SendLine(burst).ok());

  for (int i = 0; i < kBurst; ++i) {
    auto line = client->ReadLine(10'000);
    ASSERT_TRUE(line.ok()) << "response " << i << " never arrived (excess "
                           << "frames orphaned in the framer): "
                           << line.status().ToString();
    EXPECT_NE(line->find("\"op\":\"health\""), std::string::npos);
  }
  // The stream is still live and in sync.
  auto after = client->Call(Health(), 10'000);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->status.ok());
}

TEST_F(TcpServerTest, InterleavedClientsKeepSessionsIsolated) {
  ExplorationService svc(engine_, FastOptions());
  TcpServer server(&svc);
  ASSERT_TRUE(server.Start().ok());

  const int kClients = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = LineClient::Connect("127.0.0.1", server.port());
      if (!client.ok()) { failures.fetch_add(1); return; }
      Request start;
      start.type = RequestType::kStartSession;
      start.session_id = "iso-" + std::to_string(c);
      auto first = client->Call(start, 10'000);
      if (!first.ok() || first->session_id != start.session_id ||
          first->groups.empty()) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < 5; ++round) {
        Request click;
        click.type = RequestType::kSelectGroup;
        click.session_id = start.session_id;
        click.group = first->groups[round % first->groups.size()].id;
        auto resp = client->Call(click, 10'000);
        // Degraded answers are fine under load; crossed sessions are not.
        if (!resp.ok() || resp->session_id != start.session_id) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.Stats().accepted, static_cast<uint64_t>(kClients));
}

TEST_F(TcpServerTest, MalformedLinesAnsweredInStreamWithoutDesync) {
  ExplorationService svc(engine_, FastOptions());
  TcpServer server(&svc);
  ASSERT_TRUE(server.Start().ok());

  auto client = LineClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  // A malformed request whose raw newline splits it into two broken frames,
  // pipelined ahead of a valid request: two error lines, then the real
  // answer, stream intact (the satellite-2 regression, over actual TCP).
  ASSERT_TRUE(client->SendLine(R"({"op":"health", "broken)").ok());
  ASSERT_TRUE(client->SendLine(R"(tail"})").ok());
  ASSERT_TRUE(client->SendLine(R"({"op":"health"})").ok());

  for (int i = 0; i < 2; ++i) {
    auto err = client->ReadLine(10'000);
    ASSERT_TRUE(err.ok());
    EXPECT_NE(err->find("\"op\":\"error\""), std::string::npos) << *err;
  }
  auto good = client->Call(Health(), 10'000);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->status.ok());
  EXPECT_EQ(server.Stats().parse_errors, 2u);
}

TEST_F(TcpServerTest, OversizedLineAnsweredAndStreamResyncs) {
  ExplorationService svc(engine_, FastOptions());
  TcpServerOptions opts;
  opts.connection.max_line_bytes = 256;
  TcpServer server(&svc, opts);
  ASSERT_TRUE(server.Start().ok());

  auto client = LineClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendLine(std::string(4096, 'x')).ok());
  auto err = client->ReadLine(10'000);
  ASSERT_TRUE(err.ok());
  EXPECT_NE(err->find("\"op\":\"error\""), std::string::npos);
  auto good = client->Call(Health(), 10'000);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->status.ok());
  EXPECT_EQ(server.Stats().oversized_lines, 1u);
}

TEST_F(TcpServerTest, StalledReaderIsDisconnectedOthersUnaffected) {
  ExplorationService svc(engine_, FastOptions());
  TcpServerOptions opts;
  opts.connection.write_buffer_cap = 16 * 1024;  // trip fast
  opts.so_sndbuf = 8 * 1024;  // lock out kernel autotune (see the option)
  TcpServer server(&svc, opts);
  ASSERT_TRUE(server.Start().ok());

  // The villain: pipelines hundreds of get_stats (fat responses) and never
  // reads a byte. Its responses fill the kernel buffers, then the server's
  // write buffer, then cross write_buffer_cap. SO_RCVBUF must be set
  // BEFORE connect — it sizes the advertised window during the handshake;
  // set afterwards the kernel keeps the big default and quietly absorbs
  // every response, and the cap never trips.
  Fd stalled(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(stalled.valid());
  {
    int tiny = 4096;  // shrink the receive window so kernels buffer little
    ::setsockopt(stalled.get(), SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(stalled.get(), reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string stats_line = "{\"op\":\"get_stats\"}\n";
  std::string burst;
  for (int i = 0; i < 600; ++i) burst += stats_line;
  ASSERT_GT(::send(stalled.get(), burst.data(), burst.size(), MSG_NOSIGNAL),
            0);

  // Meanwhile a well-behaved client keeps getting answers promptly.
  auto healthy = LineClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(healthy.ok());
  bool villain_killed = false;
  for (int i = 0; i < 200 && !villain_killed; ++i) {
    auto resp = healthy->Call(Health(), 10'000);
    ASSERT_TRUE(resp.ok()) << "healthy client starved at round " << i << ": "
                           << resp.status().ToString();
    villain_killed = server.Stats().slow_client_closes > 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(villain_killed)
      << "stalled reader never disconnected; stats: slow="
      << server.Stats().slow_client_closes;
}

TEST_F(TcpServerTest, StalledReaderDoesNotDegradeOthers) {
  // A reader that stops draining its socket is a transport problem, not
  // queueing: it is bounded by write_buffer_cap and write_stall_timeout_ms,
  // and must never move the overload ladder — or one stalled reader would
  // degrade every healthy explorer's screens.
  ExplorationService svc(engine_, FastOptions());
  TcpServerOptions opts;
  opts.num_loops = 1;         // stalled and healthy clients share the loop
  opts.so_sndbuf = 8 * 1024;  // lock out kernel autotune (see the option)
  TcpServer server(&svc, opts);
  ASSERT_TRUE(server.Start().ok());

  // The stalled reader: SO_RCVBUF before connect (see
  // StalledReaderIsDisconnectedOthersUnaffected), 60 pipelined get_stats,
  // never a byte read — its responses age in the server's write buffer.
  Fd stalled(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(stalled.valid());
  {
    int tiny = 4096;
    ::setsockopt(stalled.get(), SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(stalled.get(), reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::string burst;
  for (int i = 0; i < 60; ++i) burst += "{\"op\":\"get_stats\"}\n";
  ASSERT_EQ(::send(stalled.get(), burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));

  // A healthy explorer clicks every 20 ms for well over a second — ten
  // ladder windows — while the stalled reader stays connected.
  auto healthy = LineClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(healthy.ok());
  Request start;
  start.type = RequestType::kStartSession;
  start.session_id = "healthy";
  auto screen = healthy->Call(start);
  ASSERT_TRUE(screen.ok()) << screen.status().ToString();
  ASSERT_TRUE(screen->status.ok()) << screen->status.ToString();
  ASSERT_FALSE(screen->groups.empty());
  size_t selects = 0, degraded = 0;
  Stopwatch watch;
  while (watch.ElapsedMillis() < 1500) {
    Request select;
    select.type = RequestType::kSelectGroup;
    select.session_id = "healthy";
    select.group = screen->groups[selects % screen->groups.size()].id;
    auto resp = healthy->Call(select);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_TRUE(resp->status.ok()) << resp->status.ToString();
    ++selects;
    if (resp->degraded.has_value()) {
      ++degraded;
    } else {
      screen = std::move(resp);
    }
    EXPECT_EQ(svc.dispatcher().overload().rung(),
              server::OverloadRung::kNormal)
        << "after select " << selects;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(selects, 20u);
  EXPECT_EQ(degraded, 0u) << "of " << selects << " selects";
  EXPECT_EQ(svc.dispatcher().overload().escalations(), 0u);
  // The reader was stalled the whole time, not closed.
  EXPECT_EQ(server.Stats().slow_client_closes, 0u);

  // ...and all 60 of its responses were still queued for it: reading now
  // drains more than the two kernel buffers hold (~24 KiB once the kernel
  // doubles the 8 KiB send and 4 KiB receive sizes), so the server's own
  // write buffer was holding a stalled response the whole time.
  size_t received = 0, lines = 0;
  char buf[16 * 1024];
  Stopwatch drain;
  while (lines < 60 && drain.ElapsedMillis() < 5000) {
    ssize_t n = ::recv(stalled.get(), buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) break;
    if (n < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    received += static_cast<size_t>(n);
    lines += static_cast<size_t>(std::count(buf, buf + n, '\n'));
  }
  EXPECT_EQ(lines, 60u);
  EXPECT_GT(received, 32u * 1024);
}

TEST_F(TcpServerTest, DrainUnderLoadConservesEveryAdmittedRequest) {
  ExplorationService svc(engine_, FastOptions());
  TcpServer server(&svc);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();

  // Load the wire: several clients, each with a pipelined burst in flight
  // when the drain lands.
  const int kClients = 4, kBurst = 16;
  std::vector<std::unique_ptr<LineClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    auto client = LineClient::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok());
    clients.push_back(
        std::make_unique<LineClient>(std::move(client).ValueOrDie()));
    for (int i = 0; i < kBurst; ++i) {
      ASSERT_TRUE(clients.back()->SendLine(R"({"op":"health"})").ok());
    }
  }

  server.RequestDrain();
  EXPECT_TRUE(server.draining());

  // Every client reads until EOF; responses received must be well-formed.
  for (auto& client : clients) {
    for (;;) {
      auto line = client->ReadLine(10'000);
      if (!line.ok()) break;  // EOF: the server closed us post-flush
      EXPECT_NE(line->find("\"op\":\"health\""), std::string::npos);
    }
  }
  server.Drain();

  auto stats = server.Stats();
  // Conservation: everything admitted was retired exactly once — either
  // routed onto a connection or dropped against a closed one. (Lines still
  // in kernel buffers when the drain stopped reads were never admitted.)
  EXPECT_EQ(stats.requests_submitted,
            stats.responses_routed + stats.responses_dropped);
  EXPECT_EQ(server.active_connections(), 0u);

  // The listener is gone: new connections are refused.
  auto late = ConnectTcp("127.0.0.1", port, 500);
  EXPECT_FALSE(late.ok());
}

TEST_F(TcpServerTest, DrainSettlesStragglersWithoutSleepingTheTimeout) {
  // Drain()'s straggler wait is event-driven (a condvar the dead-letter
  // queue notifies), not a poll against drain_timeout_ms. Regression shape:
  // park one request on a worker (greedy.pass failpoint sleeps ~400 ms),
  // close its connection so the response can only go to the dead-letter
  // path, then drain with a LONG timeout. Pre-fix, Drain either slept a
  // fixed lap ladder or — with the timeout as the wait — burned the whole
  // 10 s. Post-fix it must return roughly when the straggler retires.
  ExplorationService svc(engine_, FastOptions());
  TcpServerOptions opts;
  opts.drain_timeout_ms = 30'000;  // the bound we must NOT come near
  TcpServer server(&svc, opts);
  ASSERT_TRUE(server.Start().ok());

  auto connected = LineClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok());
  auto client =
      std::make_unique<LineClient>(std::move(connected).ValueOrDie());
  // The parked request is a click: a start may be served from the engine's
  // screen memo without reaching a greedy pass.
  server::Request start;
  start.type = server::RequestType::kStartSession;
  start.session_id = "straggler";
  auto started = client->Call(start);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  ASSERT_TRUE(started->status.ok()) << started->status.ToString();
  ASSERT_FALSE(started->groups.empty());

  failpoint::Policy stall;
  stall.mode = failpoint::Policy::Mode::kOnce;
  stall.code = StatusCode::kOk;  // sleep only, no injected error
  stall.sleep_ms = 400;
  failpoint::ScopedFailpoint fp("greedy.pass", stall);
  ASSERT_TRUE(client
                  ->SendLine(R"({"op":"select_group","session":"straggler",)"
                             R"("group":)" +
                             std::to_string(started->groups[0].id) + "}")
                  .ok());
  // Wait until the request is actually admitted onto a worker (the sleep
  // begins), then drop the connection: the worker is now a straggler whose
  // response has nowhere to go.
  for (int i = 0; i < 200 && fp.hits() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(fp.hits(), 0u) << "request never reached the greedy pass";
  client.reset();  // closes the connection

  Stopwatch watch;
  server.RequestDrain();
  server.Drain();
  const double drain_ms = watch.ElapsedMillis();

  auto stats = server.Stats();
  EXPECT_GE(stats.requests_submitted, 1u);
  // Conservation: the straggler retired exactly once — routed (the drain
  // held its connection for flushing) or dropped (connection already gone).
  EXPECT_EQ(stats.requests_submitted,
            stats.responses_routed + stats.responses_dropped);
  // Generous CI margin, but far below the 30 s timeout: the wait ended on
  // the straggler's completion signal, not the clock.
  EXPECT_LT(drain_ms, 10'000.0);
}

TEST_F(TcpServerTest, IdleConnectionsAreReaped) {
  ExplorationService svc(engine_, FastOptions());
  TcpServerOptions opts;
  opts.idle_timeout_ms = 150;
  opts.tick_ms = 25;
  TcpServer server(&svc, opts);
  ASSERT_TRUE(server.Start().ok());

  auto idle = ConnectTcp("127.0.0.1", server.port(), 5000);
  ASSERT_TRUE(idle.ok());
  // The server should reap us without a byte ever moving.
  char buf[8];
  ssize_t n = -1;
  for (int i = 0; i < 100; ++i) {
    n = ::recv(idle->get(), buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) break;  // orderly close from the server
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_EQ(n, 0);
  EXPECT_EQ(server.Stats().idle_closes, 1u);
}

TEST_F(TcpServerTest, HalfCloseStillDeliversPipelinedResponses) {
  ExplorationService svc(engine_, FastOptions());
  TcpServer server(&svc);
  ASSERT_TRUE(server.Start().ok());

  auto client = LineClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());
  const int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(client->SendLine(R"({"op":"health"})").ok());
  }
  client->ShutdownWrite();  // "no more requests" — answers must still come
  int got = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto line = client->ReadLine(10'000);
    if (!line.ok()) break;
    ++got;
  }
  EXPECT_EQ(got, kBurst);
}

// ---------------------------------------------------------------------------
// Multi-loop (SO_REUSEPORT listener group)
// ---------------------------------------------------------------------------

/// Per-loop and aggregate conservation across seeds × loop counts: every
/// admitted request is retired exactly once no matter which loop the kernel
/// steered its connection to, and the aggregate is exactly the sum of the
/// per-loop shares.
TEST_F(TcpServerTest, MultiLoopConservationProperty) {
  for (uint32_t seed = 0; seed < 8; ++seed) {
    for (size_t loops : {size_t{1}, size_t{2}, size_t{4}}) {
      ExplorationService svc(engine_, FastOptions());
      TcpServerOptions opts;
      opts.num_loops = loops;
      TcpServer server(&svc, opts);
      ASSERT_TRUE(server.Start().ok());
      ASSERT_EQ(server.num_loops(), loops);

      // A small fleet of pipelining clients; counts derive from the seed so
      // the 24 (seed, loops) points exercise different burst shapes.
      const int kClients = 3 + static_cast<int>(seed % 4);
      const int kBurst = 5 + static_cast<int>((seed * 7) % 11);
      std::vector<LineClient> clients;
      for (int c = 0; c < kClients; ++c) {
        auto client = LineClient::Connect("127.0.0.1", server.port());
        ASSERT_TRUE(client.ok()) << client.status().ToString();
        clients.push_back(std::move(client).ValueOrDie());
      }
      for (int c = 0; c < kClients; ++c) {
        for (int i = 0; i < kBurst; ++i) {
          // Mix dispatched requests with per-line parse errors: both paths
          // must keep the books straight.
          const char* line = (seed + i) % 3 == 0 ? "definitely not json"
                             : i % 2 == 0        ? R"({"op":"health"})"
                                                 : R"({"op":"get_stats"})";
          ASSERT_TRUE(clients[c].SendLine(line).ok());
        }
      }
      for (int c = 0; c < kClients; ++c) {
        for (int i = 0; i < kBurst; ++i) {
          auto line = clients[c].ReadLine(10'000);
          ASSERT_TRUE(line.ok())
              << "seed " << seed << " loops " << loops << " client " << c
              << " response " << i << ": " << line.status().ToString();
        }
      }
      server.Drain();

      TcpServerStats total = server.Stats();
      EXPECT_EQ(total.requests_submitted,
                total.responses_routed + total.responses_dropped)
          << "seed " << seed << " loops " << loops;
      EXPECT_EQ(total.responses_dropped, 0u)
          << "seed " << seed << " loops " << loops
          << ": well-behaved clients read everything";
      EXPECT_EQ(total.accepted, static_cast<uint64_t>(kClients));

      TcpServerStats summed;
      for (size_t l = 0; l < loops; ++l) {
        TcpServerStats ls = server.LoopStats(l);
        EXPECT_EQ(ls.requests_submitted,
                  ls.responses_routed + ls.responses_dropped)
            << "seed " << seed << " loops " << loops << " loop " << l;
        summed.accepted += ls.accepted;
        summed.lines_framed += ls.lines_framed;
        summed.parse_errors += ls.parse_errors;
        summed.requests_submitted += ls.requests_submitted;
        summed.responses_routed += ls.responses_routed;
        summed.responses_dropped += ls.responses_dropped;
      }
      EXPECT_EQ(summed.accepted, total.accepted);
      EXPECT_EQ(summed.lines_framed, total.lines_framed);
      EXPECT_EQ(summed.parse_errors, total.parse_errors);
      EXPECT_EQ(summed.requests_submitted, total.requests_submitted);
      EXPECT_EQ(summed.responses_routed, total.responses_routed);
      EXPECT_EQ(summed.responses_dropped, total.responses_dropped);
    }
  }
}

/// Masks the two wall-clock fields every dispatched response carries so the
/// byte-identity check below compares semantics, not timing jitter.
std::string MaskTimingFields(std::string line) {
  for (const char* key : {"\"elapsed_ms\":", "\"queue_ms\":"}) {
    size_t at = line.find(key);
    if (at == std::string::npos) continue;
    size_t start = at + std::string(key).size();
    size_t end = line.find_first_of(",}", start);
    if (end == std::string::npos) continue;
    // Rebuilt rather than replace()d in place: GCC 12 misreports the
    // in-place shift as an overlapping memcpy (-Wrestrict).
    std::string masked = line.substr(0, start);
    masked += 'X';
    masked.append(line, end, std::string::npos);
    line = std::move(masked);
  }
  return line;
}

/// GreedyTest-style identity discipline: the same scripted request sequence
/// must produce byte-identical responses whether the server runs 1, 2, or 4
/// loops (timing fields masked — they are the only nondeterminism a
/// response may carry). Loop count is a throughput knob, never a semantics
/// knob.
TEST_F(TcpServerTest, MultiLoopResponsesByteIdenticalToSingleLoop) {
  const std::vector<std::string> kScript = {
      "definitely not json",
      R"({"op":"warp_ten"})",
      std::string(300, 'a'),  // oversized once max_line_bytes is shrunk
      R"({"op":"end_session","session":"ghost"})",
      R"({"op":"select_group","session":"ghost","group":3})",
      R"({"op":"backtrack","session":"ghost","step":0})",
  };

  auto run = [&](size_t loops) {
    ExplorationService svc(engine_, FastOptions());
    TcpServerOptions opts;
    opts.num_loops = loops;
    opts.connection.max_line_bytes = 256;
    TcpServer server(&svc, opts);
    EXPECT_TRUE(server.Start().ok());
    std::vector<std::string> responses;
    // Two sequential connections: with several loops they may land on
    // different members of the listener group; answers must not care.
    for (int round = 0; round < 2; ++round) {
      auto client = LineClient::Connect("127.0.0.1", server.port());
      EXPECT_TRUE(client.ok());
      for (const std::string& line : kScript) {
        EXPECT_TRUE(client->SendLine(line).ok());
      }
      for (size_t i = 0; i < kScript.size(); ++i) {
        auto resp = client->ReadLine(10'000);
        EXPECT_TRUE(resp.ok()) << resp.status().ToString();
        responses.push_back(
            MaskTimingFields(resp.ok() ? *resp : std::string()));
      }
    }
    return responses;
  };

  const std::vector<std::string> base = run(1);
  for (size_t loops : {size_t{2}, size_t{4}}) {
    const std::vector<std::string> got = run(loops);
    ASSERT_EQ(got.size(), base.size());
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(got[i], base[i])
          << "response " << i << " differs between 1 and " << loops
          << " loops";
    }
  }
}

/// Health responses keep flowing on every member of the listener group:
/// connect many times and require that (with 4 loops) at least two distinct
/// loops ended up owning connections — i.e. SO_REUSEPORT steering is real,
/// not one listener winning every handshake.
TEST_F(TcpServerTest, MultiLoopKernelActuallySteersAcrossLoops) {
  ExplorationService svc(engine_, FastOptions());
  TcpServerOptions opts;
  opts.num_loops = 4;
  TcpServer server(&svc, opts);
  ASSERT_TRUE(server.Start().ok());

  // Keep every client open so steering cannot collapse onto a freed slot.
  std::vector<LineClient> clients;
  for (int i = 0; i < 32; ++i) {
    auto client = LineClient::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(client.ok());
    auto resp = client->Call(Health());
    ASSERT_TRUE(resp.ok());
    clients.push_back(std::move(client).ValueOrDie());
  }
  size_t loops_used = 0;
  for (size_t l = 0; l < server.num_loops(); ++l) {
    if (server.LoopStats(l).accepted > 0) ++loops_used;
  }
  // The kernel hashes the 4-tuple; 32 distinct source ports landing on one
  // loop of four has probability (1/4)^31 — if this fires, steering is
  // broken, not unlucky.
  EXPECT_GE(loops_used, 2u);
}

}  // namespace
}  // namespace vexus::net
