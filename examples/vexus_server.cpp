// vexus_server: the real network daemon — engine + service + TCP front-end.
//
// Serves the line-JSON exploration protocol over a listening socket
// (DESIGN.md §13). Each connection may pipeline requests; responses come
// back in order. SIGTERM/SIGINT triggers a graceful drain: the listener
// closes, admitted requests complete and flush, then the process exits.
//
//   ./build/examples/vexus_server --port 7788
//   echo '{"op":"health"}' | nc -q1 127.0.0.1 7788
//
// One store file, every role (DESIGN.md §16). Discovery runs once, in the
// bootstrap; every other role reads its store from --snapshot PATH, and
// the coordinator and standalone server rebuild only the generated --users
// dataset around it, so a --users that does not match the file fails at
// start-up with FailedPrecondition instead of serving another universe:
//
//   bootstrap:    vexus_server --users 1500 --shards 2 --save-snapshot F
//                 runs discovery and writes one group section per shard.
//   backend:      vexus_server --shard 0 --snapshot F --port 7801
//                 serves section 0 (eval_partial / shard_info / health /
//                 get_stats); the fleet width comes from the file.
//   coordinator:  vexus_server --users 1500 --snapshot F
//                     --backends 127.0.0.1:7801,127.0.0.1:7802
//                 full engine + gather client: every session's greedy
//                 refinement scatters trial batches across the backends.
//   standalone:   vexus_server [--users N] [--snapshot F]
//                 one process; without --snapshot it runs discovery itself.
//
// --selftest binds an ephemeral port with two loops, drives a scripted
// client against itself (including a SIGTERM drain) and exits 0/1 — the
// mode the example smoke test runs in CI. The gather fleet's real-socket
// coverage lives in tests/integration/gather_chaos_test.cc.

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/snapshot.h"
#include "data/generators/bookcrossing_gen.h"
#include "net/client.h"
#include "net/shard_client.h"
#include "net/socket.h"
#include "net/tcp_server.h"
#include "server/gather.h"
#include "server/service.h"

using vexus::Status;
using vexus::ThreadPool;
using vexus::core::VexusEngine;
using vexus::data::BookCrossingGenerator;
using vexus::net::LineClient;
using vexus::net::ShardClient;
using vexus::net::TcpServer;
using vexus::net::TcpServerOptions;
using vexus::server::ExplorationService;
using vexus::server::GatherCoordinator;
using vexus::server::Request;
using vexus::server::RequestType;
using vexus::server::ServiceOptions;
using vexus::server::ShardTransport;

namespace {

void PrintUsage(FILE* out) {
  std::fprintf(
      out,
      "usage: vexus_server [flags]\n"
      "  --host A    bind address (default 127.0.0.1)\n"
      "  --port N    listen port, 0 = ephemeral (default 7788)\n"
      "  --loops N   event-loop threads; each owns a SO_REUSEPORT listener,\n"
      "              an epoll instance, and its own connections, and the\n"
      "              kernel steers each connect to one of them.\n"
      "              0 = min(4, hw threads) (default 0)\n"
      "  --users N   synthetic dataset size (default 1500)\n"
      "  --snapshot PATH     the store file: a coordinator or standalone\n"
      "                      server loads its groups from it (--users must\n"
      "                      match), a --shard backend serves one section\n"
      "  --save-snapshot PATH  run discovery over --users, write the store\n"
      "                      (one group section per --shards shard), exit\n"
      "  --shards N  group sections in the --save-snapshot file (default 1,\n"
      "              one section over every user); only valid with\n"
      "              --save-snapshot\n"
      "  --shard i   backend mode: serve section i of --snapshot\n"
      "  --backends H:P,...  coordinator mode (needs --snapshot): scatter\n"
      "                      greedy trial batches across these backends\n"
      "  --generation N      store generation fenced by eval_partial\n"
      "                      (default 1)\n"
      "  --selftest  scripted self-check on an ephemeral port, then exit\n"
      "  --help      this message\n");
}

// The SIGTERM handler's entire world: RequestDrain() is one atomic store
// plus one eventfd write, both async-signal-safe.
std::atomic<TcpServer*> g_server{nullptr};

void HandleSignal(int /*sig*/) {
  TcpServer* server = g_server.load(std::memory_order_relaxed);
  if (server != nullptr) server->RequestDrain();
}

int RunSelfTest(ExplorationService& svc) {
  TcpServerOptions opts;
  opts.port = 0;  // ephemeral: the smoke test must not collide with anything
  opts.num_loops = 2;  // the SIGTERM drain below covers the multi-loop path
  TcpServer server(&svc, opts);
  auto status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "selftest: Start failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  g_server.store(&server, std::memory_order_relaxed);
  std::signal(SIGTERM, HandleSignal);
  std::printf("selftest: listening on 127.0.0.1:%u (%zu loops)\n",
              server.port(), server.num_loops());

  // A scripted explorer over a real socket: session, click, health.
  auto client = LineClient::Connect("127.0.0.1", server.port());
  if (!client.ok()) {
    std::fprintf(stderr, "selftest: connect failed: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }
  Request start;
  start.type = RequestType::kStartSession;
  start.session_id = "smoke";
  auto first = client->Call(start);
  if (!first.ok() || first->groups.empty()) {
    std::fprintf(stderr, "selftest: start_session failed\n");
    return 1;
  }
  std::printf("selftest: first screen has %zu groups\n", first->groups.size());

  Request click;
  click.type = RequestType::kSelectGroup;
  click.session_id = "smoke";
  click.group = first->groups[0].id;
  auto second = client->Call(click);
  if (!second.ok() || !second->status.ok()) {
    std::fprintf(stderr, "selftest: select_group failed\n");
    return 1;
  }

  // Pipelining: three requests on the wire before any response is read.
  for (int i = 0; i < 3; ++i) {
    if (!client->SendLine(R"({"op":"health"})").ok()) return 1;
  }
  for (int i = 0; i < 3; ++i) {
    if (!client->ReadLine().ok()) {
      std::fprintf(stderr, "selftest: pipelined health #%d lost\n", i);
      return 1;
    }
  }

  // Malformed line answered in-stream, stream stays usable.
  if (!client->SendLine("this is not json").ok()) return 1;
  auto err = client->ReadLine();
  if (!err.ok() || err->find("\"error\"") == std::string::npos) {
    std::fprintf(stderr, "selftest: expected parse-error line\n");
    return 1;
  }
  Request health;
  health.type = RequestType::kHealth;
  auto after = client->Call(health);
  if (!after.ok()) {
    std::fprintf(stderr, "selftest: stream desynced after bad line\n");
    return 1;
  }

  // The drain path, end to end: deliver SIGTERM to ourselves while the
  // connection is open, then verify the loop exits cleanly.
  std::raise(SIGTERM);
  server.Drain();
  auto stats = server.Stats();
  std::printf("selftest: drained; accepted=%llu submitted=%llu routed=%llu "
              "dropped=%llu\n",
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.requests_submitted),
              static_cast<unsigned long long>(stats.responses_routed),
              static_cast<unsigned long long>(stats.responses_dropped));
  if (stats.responses_routed + stats.responses_dropped !=
      stats.requests_submitted) {
    std::fprintf(stderr, "selftest: conservation violated\n");
    return 1;
  }
  for (size_t i = 0; i < server.num_loops(); ++i) {
    auto ls = server.LoopStats(i);
    if (ls.responses_routed + ls.responses_dropped != ls.requests_submitted) {
      std::fprintf(stderr, "selftest: loop %zu conservation violated\n", i);
      return 1;
    }
  }
  g_server.store(nullptr, std::memory_order_relaxed);
  std::printf("selftest: OK\n");
  return 0;
}

/// Binds `svc` on host:port and parks until SIGTERM/SIGINT drains — the
/// shared serve loop of the standalone, coordinator, and backend shapes.
int ServeForever(ExplorationService& svc, const std::string& host,
                 uint16_t port, uint64_t loops, const char* banner) {
  TcpServerOptions net_opts;
  net_opts.host = host;
  net_opts.port = port;
  net_opts.num_loops = loops;
  TcpServer server(&svc, net_opts);
  auto status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "listen failed: %s\n", status.ToString().c_str());
    return 1;
  }
  g_server.store(&server, std::memory_order_relaxed);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  std::printf("%s listening on %s:%u (%zu loops; SIGTERM drains)\n", banner,
              host.c_str(), server.port(), server.num_loops());
  std::fflush(stdout);
  while (!server.draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  server.Drain();
  auto stats = server.Stats();
  std::printf("drained: accepted=%llu submitted=%llu routed=%llu\n",
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.requests_submitted),
              static_cast<unsigned long long>(stats.responses_routed));
  std::printf("%s\n", svc.Stats().ToJson().Dump().c_str());
  g_server.store(nullptr, std::memory_order_relaxed);
  return 0;
}

/// --shard i: serves section i of the snapshot file; the fleet width and
/// this shard's user range come from the file itself.
int RunShardBackend(const std::string& snapshot_path, size_t shard_index,
                    uint64_t generation, const std::string& host,
                    uint16_t port, uint64_t loops) {
  auto shard = vexus::core::LoadSnapshotShard(snapshot_path, shard_index);
  if (!shard.ok()) {
    std::fprintf(stderr, "shard load failed: %s\n",
                 shard.status().ToString().c_str());
    return 1;
  }
  std::printf("shard backend %zu/%zu: users [%u, %u) of %zu groups\n",
              shard->shard, shard->num_shards, shard->user_begin,
              shard->user_end, shard->groups.size());
  ServiceOptions options;
  options.num_workers = 4;
  ExplorationService svc(std::move(shard).ValueOrDie(), generation, options);
  return ServeForever(svc, host, port, loops, "vexus shard backend");
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 7788;
  uint64_t users = 1500;
  uint64_t loops = 0;  // 0 = auto (min(4, hw threads))
  uint64_t shards = 1;
  bool shards_given = false;
  bool selftest = false;
  std::optional<size_t> shard;  // --shard i: backend mode
  uint64_t generation = 1;
  std::string snapshot_path;
  std::string save_snapshot_path;
  std::string backends_list;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : std::string();
    };
    // Numeric flag values are validated (decimal digits only, in range);
    // a missing or bad value is a usage error, never an uncaught throw or
    // a silent uint16_t truncation.
    auto parse_uint = [&](const std::string& flag, uint64_t max,
                          uint64_t* out) -> bool {
      std::string value = next();
      if (value.empty() ||
          value.find_first_not_of("0123456789") != std::string::npos) {
        std::fprintf(stderr, "%s needs a numeric value, got '%s'\n",
                     flag.c_str(), value.c_str());
        return false;
      }
      errno = 0;
      char* end = nullptr;
      unsigned long long v = std::strtoull(value.c_str(), &end, 10);
      if (errno != 0 || end == nullptr || *end != '\0' || v > max) {
        std::fprintf(stderr, "%s value '%s' out of range (max %llu)\n",
                     flag.c_str(), value.c_str(),
                     static_cast<unsigned long long>(max));
        return false;
      }
      *out = v;
      return true;
    };
    uint64_t value = 0;
    if (arg == "--host") {
      host = next();
      if (host.empty()) {
        std::fprintf(stderr, "--host needs a value\n");
        return 2;
      }
    } else if (arg == "--port") {
      if (!parse_uint(arg, 65535, &value)) return 2;
      port = static_cast<uint16_t>(value);
    } else if (arg == "--loops") {
      // 64 is far past any sane single-box loop count; catching a fat-
      // fingered "--loops 6000" here beats spawning it.
      if (!parse_uint(arg, 64, &value)) return 2;
      loops = value;
    } else if (arg == "--users") {
      if (!parse_uint(arg, 100'000'000, &value)) return 2;
      users = value;
    } else if (arg == "--shards") {
      if (!parse_uint(arg, 64, &value)) return 2;
      shards = value;
      shards_given = true;
    } else if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--shard") {
      // A snapshot holds at most 64 sections (the --shards bound).
      if (!parse_uint(arg, 63, &value)) return 2;
      shard = value;
    } else if (arg == "--snapshot") {
      snapshot_path = next();
      if (snapshot_path.empty()) {
        std::fprintf(stderr, "--snapshot needs a path\n");
        return 2;
      }
    } else if (arg == "--save-snapshot") {
      save_snapshot_path = next();
      if (save_snapshot_path.empty()) {
        std::fprintf(stderr, "--save-snapshot needs a path\n");
        return 2;
      }
    } else if (arg == "--generation") {
      if (!parse_uint(arg, UINT64_MAX, &value)) return 2;
      generation = value;
    } else if (arg == "--backends") {
      backends_list = next();
      if (backends_list.empty()) {
        std::fprintf(stderr, "--backends needs host:port[,host:port...]\n");
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      PrintUsage(stderr);
      return 2;
    }
  }
  if (users == 0) {
    std::fprintf(stderr, "--users must be positive\n");
    return 2;
  }
  // Every flag either shapes the chosen role or is a usage error: none is
  // silently ignored.
  const bool save = !save_snapshot_path.empty();
  const bool coordinator = !backends_list.empty();
  const char* conflict = nullptr;
  if (shards_given && !save) {
    conflict = "--shards sets the snapshot section count and needs "
               "--save-snapshot; a single process never shards";
  } else if (save && (shard || coordinator || selftest ||
                      !snapshot_path.empty())) {
    conflict = "--save-snapshot writes a new store file and exits; it takes "
               "no --shard, --backends, --snapshot or --selftest";
  } else if (shard && (coordinator || selftest)) {
    conflict = "--shard serves one snapshot section; it takes neither "
               "--backends nor --selftest";
  } else if ((shard || coordinator) && snapshot_path.empty()) {
    conflict = "--shard and --backends need --snapshot PATH, the fleet's "
               "store file";
  }
  if (conflict != nullptr) {
    std::fprintf(stderr, "%s\n", conflict);
    PrintUsage(stderr);
    return 2;
  }
  if (shard) {
    return RunShardBackend(snapshot_path, *shard, generation, host, port,
                           loops);
  }

  // Coordinator targets are checked (syntax and resolution) before the
  // engine is built; a ShardClient connects only on its first call.
  std::vector<std::unique_ptr<ShardTransport>> transports;
  if (coordinator) {
    for (const std::string& entry : vexus::Split(backends_list, ',')) {
      auto target = vexus::net::ParseHostPort(entry);
      Status status =
          target.ok()
              ? vexus::net::ResolveHost(target->host, target->port).status()
              : target.status();
      if (!status.ok()) {
        std::fprintf(stderr, "--backends: %s\n", status.ToString().c_str());
        return 2;
      }
      transports.push_back(
          std::make_unique<ShardClient>(target->host, target->port));
    }
  }

  // Discovery runs only without a store file; with one, the generated
  // dataset must match the file's user universe or the load fails.
  BookCrossingGenerator::Config data_cfg;
  data_cfg.num_users = users;
  data_cfg.num_books = users * 4 / 3;
  data_cfg.num_ratings = users * 7;
  vexus::mining::DiscoveryOptions discovery;
  discovery.min_support_fraction = 0.02;
  vexus::data::Dataset dataset = BookCrossingGenerator::Generate(data_cfg);
  auto engine_result =
      snapshot_path.empty()
          ? VexusEngine::Preprocess(std::move(dataset), discovery)
          : VexusEngine::FromSnapshot(std::move(dataset), snapshot_path);
  if (!engine_result.ok()) {
    std::fprintf(stderr, "engine build failed: %s\n",
                 engine_result.status().ToString().c_str());
    return 1;
  }
  VexusEngine engine = std::move(engine_result).ValueOrDie();
  std::printf("%s\n", engine.Summary().c_str());

  // Fleet bootstrap: write the store as a snapshot (one group section per
  // --shards shard) and exit — the file every other role starts from.
  if (save) {
    vexus::core::SnapshotSaveOptions save_options;
    save_options.num_shards = shards;
    auto saved = vexus::core::SaveSnapshot(engine.groups(), engine.index(),
                                           save_snapshot_path, save_options);
    if (!saved.ok()) {
      std::fprintf(stderr, "snapshot save failed: %s\n",
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("saved snapshot (%llu shard section%s) to %s\n",
                static_cast<unsigned long long>(shards), shards == 1 ? "" : "s",
                save_snapshot_path.c_str());
    return 0;
  }

  ServiceOptions options;
  options.session_template.greedy.k = 5;
  options.session_template.greedy.time_limit_ms = 80;
  options.num_workers = 4;
  // Declared before the service: the coordinator (owned by the service)
  // borrows this pool, so it must be destroyed after the service drains.
  std::unique_ptr<ThreadPool> gather_pool;
  ExplorationService svc(&engine, options);

  // Coordinator mode: scatter every session's greedy refinement across the
  // backend fleet. Must be wired before the first session is created.
  if (coordinator) {
    const size_t num_backends = transports.size();
    gather_pool = std::make_unique<ThreadPool>(num_backends);
    GatherCoordinator::Options gopts;
    gopts.num_users = engine.groups().num_users();
    gopts.generation = generation;
    gopts.pool = gather_pool.get();
    svc.ConfigureGather(
        std::make_unique<GatherCoordinator>(std::move(transports), gopts));
    std::printf("gather coordinator over %zu backends (generation %llu)\n",
                num_backends,
                static_cast<unsigned long long>(generation));
  }

  if (selftest) return RunSelfTest(svc);

  return ServeForever(svc, host, port, loops, "vexus_server");
}
