// bench_socket_throughput — ISSUE 6's acceptance gate, extended by ISSUE 8
// to the multi-loop front-end: the TCP server sustains thousands of
// concurrent real-socket connections of closed-loop explorer traffic with
// p99 (of answered requests) <= 100 ms and a shed fraction <= 1%.
//
// Topology: the server (engine + ExplorationService + TcpServer) and the
// client share this process, but every request crosses a real loopback TCP
// connection through the full epoll/framing/dispatch/completion path. The
// client is a small number of shard threads, each multiplexing its slice
// of the fleet with its own epoll set — one thread per ~1500 connections,
// enough to lift the client past its single-loop bound without turning the
// bench into a scheduler measurement.
//
// Load shape: closed-loop explorers. Each connection starts a session,
// then loops think -> select_group -> await. Think time is sized from an
// in-process capacity probe so the offered load sits just under the
// serving capacity — the regime the gate describes (a big fleet of mostly-
// idle humans, not a saturation storm; bench_overload covers 2x overload).
// Connections ramp up at a probe-derived rate so the initial
// start_session wave doesn't itself overload the service.
//
// Latency is measured wire-to-wire on the client: send() of the request
// line to arrival of its response line, so it includes framing, epoll
// dispatch, queueing, greedy work, serialization, and both kernel
// crossings. The measurement window opens only after every shard has all
// its sessions (ramp excluded); the tail drains before stats are read.
// Shutdown is a real SIGTERM: the handler calls RequestDrain (the
// async-signal-safe path vexus_server installs) and the drain gates check
// the ledger balanced across every loop.
//
// Run:   ./build/bench/bench_socket_throughput [--smoke] [--loops N]
//                                              [--conns N]
// --smoke shrinks the fleet and windows for CI; gates are still computed
// and the exit code reflects them. --loops 0 (default) lets TcpServer pick
// min(4, hw threads). Default fleet: 1,100 conns single-loop (the PR 6
// baseline), 3,000 when --loops >= 2. Output ends with one "JSON {...}"
// line (committed as BENCH_socket.json).

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <string>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "net/socket.h"
#include "net/tcp_server.h"
#include "server/protocol.h"
#include "server/service.h"

using namespace vexus;
using namespace vexus::bench;

namespace {

struct ClientConn {
  enum class State {
    kStarting,    ///< start_session sent, awaiting first screen
    kStartRetry,  ///< start_session failed (shed/deadline); retry at due_ms
    kThinking,    ///< idle until due_ms
    kAwaiting,    ///< select_group sent, awaiting response
    kDead,
  };

  net::Fd fd;
  server::LineFramer framer;
  State state = State::kStarting;
  double due_ms = 0;       // kThinking/kStartRetry: when to send next
  double sent_ms = 0;      // kAwaiting: when the request hit the wire
  std::vector<uint32_t> screen;  // group ids from the last screen
  size_t pick = 0;
  uint64_t jitter = 0;     // per-conn deterministic think-time jitter
};

struct Tally {
  uint64_t full = 0, degraded = 0, shed = 0, deadline = 0, other = 0;
  uint64_t started = 0, died = 0, start_retries = 0;
  std::vector<std::string> other_samples;  // first few, for diagnosis
  uint64_t Total() const { return full + degraded + shed + deadline + other; }

  void NoteOther(const std::string& line) {
    ++other;
    if (other_samples.size() < 3) other_samples.push_back(line);
  }

  void Merge(const Tally& o) {
    full += o.full;
    degraded += o.degraded;
    shed += o.shed;
    deadline += o.deadline;
    other += o.other;
    started += o.started;
    died += o.died;
    start_retries += o.start_retries;
    for (const auto& s : o.other_samples) {
      if (other_samples.size() < 3) other_samples.push_back(s);
    }
  }
};

/// Everything one client shard needs in one place: its slice of the fleet,
/// its own epoll set, its own clock and tallies (merged after join).
struct Fleet {
  int epfd = -1;
  std::vector<ClientConn> conns;
  Tally tally;
  Series lat;
  Stopwatch clock;
  bool measuring = false;
  bool sending = true;
  double think_ms = 1000;

  double now() const { return clock.ElapsedMillis(); }

  bool SendLine(ClientConn& c, const std::string& line) {
    std::string framed = line;
    framed.push_back('\n');
    ssize_t n =
        ::send(c.fd.get(), framed.data(), framed.size(), MSG_NOSIGNAL);
    // A request line is ~100 bytes into an empty socket: a short write
    // here means the connection is wedged beyond what a closed-loop
    // client would tolerate. Treat it as dead.
    if (n != static_cast<ssize_t>(framed.size())) {
      Kill(c);
      return false;
    }
    return true;
  }

  void Kill(ClientConn& c) {
    if (c.state == ClientConn::State::kDead) return;
    ::epoll_ctl(epfd, EPOLL_CTL_DEL, c.fd.get(), nullptr);
    c.fd.Reset();
    c.state = ClientConn::State::kDead;
    ++tally.died;
  }

  void SendSelect(ClientConn& c, size_t global_idx) {
    server::Request sel;
    sel.type = server::RequestType::kSelectGroup;
    sel.session_id = "sock-" + std::to_string(global_idx);
    sel.group = c.screen[c.pick++ % c.screen.size()];
    double at = now();
    if (SendLine(c, sel.Encode())) {
      c.state = ClientConn::State::kAwaiting;
      c.sent_ms = at;
    }
  }

  void HandleLine(ClientConn& c, const std::string& line) {
    auto decoded = server::Response::Decode(line);
    if (!decoded.ok()) {  // op:"error" lines land here
      if (measuring) tally.NoteOther(line);
      if (c.state == ClientConn::State::kStarting) {
        ++tally.start_retries;
        c.state = ClientConn::State::kStartRetry;
        c.due_ms = now() + 250.0;
      } else {
        Rethink(c);
      }
      return;
    }
    const server::Response& resp = *decoded;
    if (c.state == ClientConn::State::kStarting) {
      if (!resp.status.ok() || resp.groups.empty()) {
        // A shed or deadlined start_session is retried, like a real client
        // refreshing the page — killing the connection would understate the
        // concurrency the server is actually carrying.
        ++tally.start_retries;
        c.state = ClientConn::State::kStartRetry;
        c.jitter = c.jitter * 6364136223846793005ULL + 1442695040888963407ULL;
        c.due_ms = now() + 100.0 + static_cast<double>(c.jitter % 400);
        return;
      }
      c.screen.clear();
      for (const auto& g : resp.groups) c.screen.push_back(g.id);
      ++tally.started;
      Rethink(c);
      return;
    }
    // A select_group answer (possibly degraded — that still counts as an
    // answer; the ladder trading quality for latency is working as
    // designed).
    if (resp.status.ok()) {
      if (measuring) {
        ++(resp.degraded.has_value() ? tally.degraded : tally.full);
        lat.Add(now() - c.sent_ms);
      }
      if (!resp.groups.empty()) {
        c.screen.clear();
        for (const auto& g : resp.groups) c.screen.push_back(g.id);
      }
    } else if (measuring) {
      if (resp.status.code() == StatusCode::kResourceExhausted) {
        ++tally.shed;
      } else if (resp.status.code() == StatusCode::kDeadlineExceeded) {
        ++tally.deadline;
      } else {
        tally.NoteOther(line);
      }
    }
    Rethink(c);
  }

  void Rethink(ClientConn& c) {
    c.state = ClientConn::State::kThinking;
    // Deterministic per-conn jitter in [0.5, 1.5) x think: spreads the
    // fleet's send times so the closed loops don't phase-lock.
    c.jitter = c.jitter * 6364136223846793005ULL + 1442695040888963407ULL;
    double factor = 0.5 + static_cast<double>(c.jitter >> 40) /
                              static_cast<double>(1ULL << 24);
    c.due_ms = now() + think_ms * factor;
  }
};

/// Per-shard run configuration plus the cross-shard coordination points.
struct ShardConfig {
  size_t shard = 0;         // this shard's index, for logs
  size_t base = 0;          // global index of this shard's first connection
  size_t conns = 0;         // this shard's slice size
  double ramp_per_sec = 0;  // this shard's share of the launch rate
  double think_ms = 0;
  double measure_ms = 0;
  uint16_t port = 0;
  size_t total_shards = 1;
  net::TcpServer* server = nullptr;
  std::atomic<size_t>* shards_up = nullptr;       // shards with full fleets
  std::atomic<size_t>* peak_connected = nullptr;  // fetch-max across shards
};

void RunShard(const ShardConfig& cfg, Fleet& fleet) {
  fleet.think_ms = cfg.think_ms;
  fleet.epfd = ::epoll_create1(EPOLL_CLOEXEC);
  VEXUS_CHECK(fleet.epfd >= 0);
  fleet.conns.resize(cfg.conns);

  size_t launched = 0;
  bool announced = false;
  double measure_end = 0;
  bool done = false;
  const double kDrainGraceMs = 5000;
  double drain_deadline = 0;

  epoll_event events[256];
  while (!done) {
    // Ramp: launch connections at this shard's share of the probe-derived
    // rate (the launch also sends that connection's start_session).
    size_t due_launches = std::min(
        cfg.conns,
        static_cast<size_t>(fleet.now() / 1000.0 * cfg.ramp_per_sec) + 1);
    for (; launched < due_launches; ++launched) {
      ClientConn& c = fleet.conns[launched];
      const size_t global = cfg.base + launched;
      auto fd = net::ConnectTcp("127.0.0.1", cfg.port, 5000);
      VEXUS_CHECK(fd.ok()) << "connect " << global << ": "
                           << fd.status().ToString();
      c.fd = std::move(fd).ValueOrDie();
      (void)net::SetNonBlocking(c.fd.get());
      c.jitter = 0x9e3779b97f4a7c15ULL ^ (global * 0xbf58476d1ce4e5b9ULL);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = launched;
      VEXUS_CHECK(::epoll_ctl(fleet.epfd, EPOLL_CTL_ADD, c.fd.get(), &ev) ==
                  0);
      server::Request start;
      start.type = server::RequestType::kStartSession;
      start.session_id = "sock-" + std::to_string(global);
      fleet.SendLine(c, start.Encode());
    }

    int n = ::epoll_wait(fleet.epfd, events, 256, 5);
    for (int i = 0; i < std::max(n, 0); ++i) {
      size_t idx = static_cast<size_t>(events[i].data.u64);
      ClientConn& c = fleet.conns[idx];
      if (c.state == ClientConn::State::kDead) continue;
      char buf[16 * 1024];
      for (;;) {
        ssize_t got = ::recv(c.fd.get(), buf, sizeof(buf), 0);
        if (got > 0) {
          c.framer.Append(std::string_view(buf, static_cast<size_t>(got)));
          continue;
        }
        if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (got < 0 && errno == EINTR) continue;
        fleet.Kill(c);  // EOF or error; server-side close (e.g. stall kill)
        break;
      }
      while (c.state != ClientConn::State::kDead) {
        auto frame = c.framer.Next();
        if (!frame.has_value()) break;
        fleet.HandleLine(c, frame->text);
      }
    }

    const double now = fleet.now();

    // Closed loops whose think time expired, and start retries that came due.
    if (fleet.sending) {
      for (size_t i = 0; i < launched; ++i) {
        ClientConn& c = fleet.conns[i];
        if (c.state == ClientConn::State::kThinking && now >= c.due_ms &&
            !c.screen.empty()) {
          fleet.SendSelect(c, cfg.base + i);
        } else if (c.state == ClientConn::State::kStartRetry &&
                   now >= c.due_ms) {
          server::Request start;
          start.type = server::RequestType::kStartSession;
          start.session_id = "sock-" + std::to_string(cfg.base + i);
          if (fleet.SendLine(c, start.Encode())) {
            c.state = ClientConn::State::kStarting;
          }
        }
      }
    }

    size_t cur = cfg.server->active_connections();
    size_t prev = cfg.peak_connected->load(std::memory_order_relaxed);
    while (cur > prev && !cfg.peak_connected->compare_exchange_weak(
                             prev, cur, std::memory_order_relaxed)) {
    }

    // Phase transitions. Measurement opens only once EVERY shard has its
    // full fleet, so all shards measure (nearly) the same steady state.
    if (!announced && fleet.sending &&
        fleet.tally.started + fleet.tally.died >= cfg.conns) {
      announced = true;
      cfg.shards_up->fetch_add(1);
      std::printf("shard %zu up: %llu sessions started (%llu start retries, "
                  "%llu connects lost)\n",
                  cfg.shard,
                  static_cast<unsigned long long>(fleet.tally.started),
                  static_cast<unsigned long long>(fleet.tally.start_retries),
                  static_cast<unsigned long long>(fleet.tally.died));
    }
    if (!fleet.measuring && fleet.sending && announced &&
        cfg.shards_up->load() == cfg.total_shards) {
      fleet.measuring = true;
      measure_end = now + cfg.measure_ms;
      if (cfg.shard == 0) {
        std::printf("all %zu shards up; measuring %.0f s\n",
                    cfg.total_shards, cfg.measure_ms / 1000.0);
      }
    } else if (fleet.measuring && fleet.sending && now >= measure_end) {
      fleet.sending = false;  // let in-flight responses land
      drain_deadline = now + kDrainGraceMs;
    } else if (!fleet.sending) {
      bool outstanding = false;
      for (size_t i = 0; i < launched && !outstanding; ++i) {
        outstanding =
            fleet.conns[i].state == ClientConn::State::kAwaiting;
      }
      if (!outstanding || now >= drain_deadline) done = true;
    }
  }

  // Close this shard's slice of the fleet.
  for (auto& c : fleet.conns) {
    if (c.state != ClientConn::State::kDead) c.fd.Reset();
  }
  ::close(fleet.epfd);
}

// SIGTERM handler: the same async-signal-safe drain path vexus_server
// installs — the bench shuts down via a real signal so the committed
// numbers certify the SIGTERM drain, not just a direct Drain() call.
net::TcpServer* g_server = nullptr;
void OnSigTerm(int) {
  if (g_server != nullptr) g_server->RequestDrain();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  size_t loops = 0;      // 0 = TcpServer default (min(4, hw threads))
  size_t conns_flag = 0; // 0 = mode default
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--loops" && i + 1 < argc) {
      loops = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--conns" && i + 1 < argc) {
      conns_flag = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      std::fprintf(stderr,
                   "usage: bench_socket_throughput [--smoke] [--loops N] "
                   "[--conns N]\n");
      return 2;
    }
  }

  Banner("bench_socket_throughput",
         "the TCP front-end sustains thousands of concurrent connections of "
         "closed-loop explorer traffic with p99 <= 100 ms and shed <= 1%");

  // Default fleet: the PR 6 single-loop baseline at 1,100; the multi-loop
  // gate at 3,000 when the front-end runs >= 2 loops.
  const size_t kConns =
      conns_flag != 0 ? conns_flag : (smoke ? 64 : (loops >= 2 ? 3000 : 1100));
  const double kMeasureMs = smoke ? 3000 : 20000;
  // One client shard per ~1500 connections (capped at 4): the fan-out the
  // multi-loop server needs without turning the client into the benchmark.
  const size_t kShards =
      std::min<size_t>(4, std::max<size_t>(1, (kConns + 1499) / 1500));
  std::printf("mode: %s  (%zu conns, %zu client shard%s)\n\n",
              smoke ? "smoke (CI)" : "full", kConns, kShards,
              kShards == 1 ? "" : "s");

  core::VexusEngine engine = BxEngine(smoke ? 400 : 1500, 0.02);
  std::printf("%s\n", engine.Summary().c_str());

  server::ServiceOptions opts;
  opts.session_template.greedy.k = 5;
  opts.session_template.greedy.time_limit_ms = 80;
  opts.dispatcher.default_budget_ms = 100;  // the paper's budget
  // A closed-loop fleet legitimately has ~kConns requests outstanding in
  // the worst instant; the queue must hold them so the *ladder* (not the
  // fixed-depth backstop) decides what to degrade.
  opts.dispatcher.max_queue_depth = std::max<size_t>(2048, kConns + 512);
  opts.dispatcher.overload.window_ms = 50.0;
  // The session store must hold the whole fleet: the default 1024-session
  // cap would LRU-evict live explorers' sessions mid-run (their selects then
  // fail NotFound forever).
  opts.sessions.max_sessions = 2 * kConns;
  opts.num_workers = 4;
  server::ExplorationService svc(&engine, opts);

  // ---- capacity probe (in-process, unloaded) -> think time & ramp rate.
  Series probe;
  {
    server::Request start;
    start.type = server::RequestType::kStartSession;
    start.session_id = "probe";
    server::Response screen = svc.Call(start);
    VEXUS_CHECK(screen.status.ok() && !screen.groups.empty());
    for (int i = 0; i < 30; ++i) {
      server::Request sel;
      sel.type = server::RequestType::kSelectGroup;
      sel.session_id = "probe";
      sel.group = screen.groups[static_cast<size_t>(i) % screen.groups.size()].id;
      Stopwatch one;
      server::Response resp = svc.Call(std::move(sel));
      probe.Add(one.ElapsedMillis());
      if (!resp.groups.empty()) screen = std::move(resp);
    }
    server::Request end;
    end.type = server::RequestType::kEndSession;
    end.session_id = "probe";
    (void)svc.Call(end);
  }
  const double p50_select = std::max(probe.Percentile(0.50), 0.1);
  // One core serves ~1000/p50 selects per second; park the offered load at
  // ~85% of that so the gate exercises a busy-but-healthy fleet.
  const double capacity_rps = 1000.0 / p50_select;
  const double target_rps = 0.85 * capacity_rps;
  const double think_ms = static_cast<double>(kConns) * 1000.0 / target_rps;
  // start_session builds the session and its first screen — several times a
  // select's cost — so the ramp is capped well below select capacity to keep
  // the arrival wave inside the 100 ms budget (stragglers shed during the
  // ramp are retried by the client, as a browser would).
  const double ramp_per_sec = std::min(target_rps, 250.0);
  std::printf("capacity probe: select p50 %.2f ms -> ~%.0f req/s on one "
              "core; %zu conns at think %.0f ms offer ~%.0f req/s; ramp "
              "%.0f conns/s\n\n",
              p50_select, capacity_rps, kConns, think_ms, target_rps,
              ramp_per_sec);

  // ---- server.
  net::TcpServerOptions net_opts;
  net_opts.max_connections = kConns + 64;
  net_opts.num_loops = loops;
  net::TcpServer server(&svc, net_opts);
  {
    auto status = server.Start();
    VEXUS_CHECK(status.ok()) << status.ToString();
  }
  g_server = &server;
  std::signal(SIGTERM, OnSigTerm);
  std::printf("server: %zu event loop%s%s\n\n", server.num_loops(),
              server.num_loops() == 1 ? "" : "s",
              server.num_loops() > 1 ? " (SO_REUSEPORT listener group)" : "");

  // ---- the fleet, sharded across client threads.
  std::atomic<size_t> shards_up{0};
  std::atomic<size_t> peak_connected{0};
  std::vector<Fleet> fleets(kShards);
  std::vector<std::thread> shard_threads;
  const size_t per_shard = kConns / kShards;
  size_t base = 0;
  for (size_t s = 0; s < kShards; ++s) {
    ShardConfig cfg;
    cfg.shard = s;
    cfg.base = base;
    cfg.conns = s + 1 == kShards ? kConns - base : per_shard;
    cfg.ramp_per_sec = ramp_per_sec / static_cast<double>(kShards);
    cfg.think_ms = think_ms;
    cfg.measure_ms = kMeasureMs;
    cfg.port = server.port();
    cfg.total_shards = kShards;
    cfg.server = &server;
    cfg.shards_up = &shards_up;
    cfg.peak_connected = &peak_connected;
    base += cfg.conns;
    shard_threads.emplace_back(
        [cfg, &fleets, s] { RunShard(cfg, fleets[s]); });
  }
  for (auto& t : shard_threads) t.join();

  // Shut the server down the way production does: a real SIGTERM whose
  // handler requests the drain, then Drain() to join the loops and settle
  // the ledger.
  (void)std::raise(SIGTERM);
  server.Drain();
  auto stats = server.Stats();

  Tally t;
  Series lat;
  for (auto& f : fleets) {
    t.Merge(f.tally);
    lat.values.insert(lat.values.end(), f.lat.values.begin(),
                      f.lat.values.end());
  }

  const double shed_fraction =
      t.Total() == 0 ? 0.0
                     : static_cast<double>(t.shed) /
                           static_cast<double>(t.Total());
  std::printf("\nanswered=%llu (full=%llu degraded=%llu) shed=%llu "
              "deadline=%llu other=%llu  shed%%=%.3f\n",
              static_cast<unsigned long long>(t.full + t.degraded),
              static_cast<unsigned long long>(t.full),
              static_cast<unsigned long long>(t.degraded),
              static_cast<unsigned long long>(t.shed),
              static_cast<unsigned long long>(t.deadline),
              static_cast<unsigned long long>(t.other),
              100.0 * shed_fraction);
  for (const auto& s : t.other_samples) {
    std::printf("  other sample: %.200s\n", s.c_str());
  }
  std::printf("latency (wire-to-wire): p50=%.2f ms  p90=%.2f ms  p99=%.2f "
              "ms  max=%.2f ms  (n=%zu)\n",
              lat.Percentile(0.50), lat.Percentile(0.90),
              lat.Percentile(0.99), lat.Max(), lat.values.size());
  std::printf("server: accepted=%llu peak_conns=%zu submitted=%llu "
              "routed=%llu dropped=%llu slow_closes=%llu parse_errors=%llu\n",
              static_cast<unsigned long long>(stats.accepted),
              peak_connected.load(),
              static_cast<unsigned long long>(stats.requests_submitted),
              static_cast<unsigned long long>(stats.responses_routed),
              static_cast<unsigned long long>(stats.responses_dropped),
              static_cast<unsigned long long>(stats.slow_client_closes),
              static_cast<unsigned long long>(stats.parse_errors));

  // Per-loop ledger: conservation must balance on every loop, not just in
  // aggregate (a completion routed to the wrong loop's queue would cancel
  // out in the sum).
  bool per_loop_ok = true;
  server::json::Array per_loop;
  for (size_t l = 0; l < server.num_loops(); ++l) {
    auto ls = server.LoopStats(l);
    bool ok = ls.requests_submitted ==
              ls.responses_routed + ls.responses_dropped;
    per_loop_ok = per_loop_ok && ok;
    std::printf("  loop %zu: accepted=%llu submitted=%llu routed=%llu "
                "dropped=%llu%s\n",
                l, static_cast<unsigned long long>(ls.accepted),
                static_cast<unsigned long long>(ls.requests_submitted),
                static_cast<unsigned long long>(ls.responses_routed),
                static_cast<unsigned long long>(ls.responses_dropped),
                ok ? "" : "  <-- LEDGER IMBALANCE");
    server::json::Object lj;
    lj.emplace_back("accepted", server::json::Value(ls.accepted));
    lj.emplace_back("requests_submitted",
                    server::json::Value(ls.requests_submitted));
    lj.emplace_back("responses_routed",
                    server::json::Value(ls.responses_routed));
    lj.emplace_back("responses_dropped",
                    server::json::Value(ls.responses_dropped));
    per_loop.emplace_back(std::move(lj));
  }

  int failures = 0;
  auto gate = [&failures](bool pass, const std::string& what) {
    std::printf("gate %-56s %s\n", what.c_str(), pass ? "PASS" : "FAIL");
    if (!pass) ++failures;
  };
  std::printf("\n");
  gate(peak_connected.load() >= kConns,
       std::to_string(kConns) + " concurrent socket connections:");
  gate(lat.values.size() > 0 && lat.Percentile(0.99) <= 100.0,
       "p99 of answered requests <= 100 ms:");
  gate(shed_fraction <= 0.01, "shed fraction <= 1%:");
  gate(stats.requests_submitted ==
           stats.responses_routed + stats.responses_dropped,
       "conservation: submitted == routed + dropped:");
  gate(per_loop_ok, "per-loop conservation on every loop:");
  gate(server.active_connections() == 0,
       "SIGTERM drain left zero connections:");

  server::json::Object out;
  out.emplace_back("bench", server::json::Value("bench_socket_throughput"));
  out.emplace_back("mode", server::json::Value(smoke ? "smoke" : "full"));
  out.emplace_back("loops", server::json::Value(server.num_loops()));
  out.emplace_back("client_shards", server::json::Value(kShards));
  out.emplace_back("connections", server::json::Value(kConns));
  out.emplace_back("peak_connected",
                   server::json::Value(peak_connected.load()));
  out.emplace_back("select_p50_ms_unloaded", server::json::Value(p50_select));
  out.emplace_back("think_ms", server::json::Value(think_ms));
  out.emplace_back("offered_rps", server::json::Value(target_rps));
  out.emplace_back("measure_ms", server::json::Value(kMeasureMs));
  out.emplace_back("answered", server::json::Value(t.full + t.degraded));
  out.emplace_back("full", server::json::Value(t.full));
  out.emplace_back("degraded", server::json::Value(t.degraded));
  out.emplace_back("shed", server::json::Value(t.shed));
  out.emplace_back("deadline_exceeded", server::json::Value(t.deadline));
  out.emplace_back("other", server::json::Value(t.other));
  out.emplace_back("shed_fraction", server::json::Value(shed_fraction));
  out.emplace_back("start_retries", server::json::Value(t.start_retries));
  out.emplace_back("p50_ms", server::json::Value(lat.Percentile(0.50)));
  out.emplace_back("p90_ms", server::json::Value(lat.Percentile(0.90)));
  out.emplace_back("p99_ms", server::json::Value(lat.Percentile(0.99)));
  out.emplace_back("max_ms", server::json::Value(lat.Max()));
  out.emplace_back("accepted", server::json::Value(stats.accepted));
  out.emplace_back("requests_submitted",
                   server::json::Value(stats.requests_submitted));
  out.emplace_back("responses_routed",
                   server::json::Value(stats.responses_routed));
  out.emplace_back("responses_dropped",
                   server::json::Value(stats.responses_dropped));
  out.emplace_back("slow_client_closes",
                   server::json::Value(stats.slow_client_closes));
  out.emplace_back("per_loop", server::json::Value(std::move(per_loop)));
  out.emplace_back("gates_failed", server::json::Value(failures));
  std::printf("\nJSON %s\n",
              server::json::Value(std::move(out)).Dump().c_str());
  return failures == 0 ? 0 : 1;
}
