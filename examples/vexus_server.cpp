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
// Flags:
//   --host A      bind address            (default 127.0.0.1)
//   --port N      listen port, 0=ephemeral (default 7788)
//   --loops N     event-loop threads (SO_REUSEPORT listener group);
//                 0 = min(4, hw threads)  (default 0)
//   --users N     synthetic dataset size   (default 1500)
//   --shards N    group sections in the --save-snapshot file (default 1,
//                 one section over every user); a usage error without
//                 --save-snapshot — a single process never shards.
//   --selftest    bind an ephemeral port with two loops, run a scripted
//                 client against ourselves (including a SIGTERM drain),
//                 and exit — the mode the example smoke test runs in CI.
//   --help        print usage and exit.
//
// Multi-box scatter-gather (DESIGN.md §16) adds three shapes:
//
//   backend:      vexus_server --shard-backend --shard-index 0/2
//                     --snapshot store.snap --generation 7 --port 7801
//                 cold-starts from ONE snapshot section and serves
//                 eval_partial / shard_info / health / get_stats.
//   coordinator:  vexus_server --backends 127.0.0.1:7801,127.0.0.1:7802
//                     --generation 7
//                 full engine + gather client: every session's greedy
//                 refinement scatters trial batches across the backends.
//   smoke:        vexus_server --selftest-gather
//                 in-process 2-backend fleet over real sockets: healthy
//                 identity vs a local run, a mid-run backend kill (answers
//                 degrade to "partial", never hang), and recovery.

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

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
using vexus::server::Response;
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
      "  --shards N  group sections in the --save-snapshot file (default 1,\n"
      "              one section over every user); only valid with\n"
      "              --save-snapshot\n"
      "  --selftest  scripted self-check on an ephemeral port, then exit\n"
      "  --shard-backend     serve one snapshot shard section (needs\n"
      "                      --shard-index and --snapshot)\n"
      "  --shard-index i/S   this backend's shard id and fleet width\n"
      "  --snapshot PATH     snapshot to cold-start the shard from\n"
      "  --save-snapshot PATH  write the generated store as a snapshot\n"
      "                      (one group section per --shards shard) and\n"
      "                      exit — the file shard backends cold-start from\n"
      "  --generation N      store generation fenced by eval_partial\n"
      "                      (default 1)\n"
      "  --backends H:P,...  coordinator mode: scatter greedy trial\n"
      "                      batches across these shard backends\n"
      "  --selftest-gather   in-process 2-backend gather smoke, then exit\n"
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
  std::printf("%s\n", svc.Stats().ToString().c_str());
  g_server.store(nullptr, std::memory_order_relaxed);
  return 0;
}

/// Parses "host:port,host:port,..." and fail-fast resolves every host
/// (numeric or named) before any socket is opened.
bool ParseBackendList(const std::string& list,
                      std::vector<std::pair<std::string, uint16_t>>* out) {
  size_t pos = 0;
  while (pos < list.size()) {
    size_t comma = list.find(',', pos);
    std::string entry = list.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? list.size() : comma + 1;
    size_t colon = entry.rfind(':');
    if (entry.empty() || colon == std::string::npos || colon == 0 ||
        colon + 1 >= entry.size()) {
      std::fprintf(stderr, "--backends entry '%s' is not host:port\n",
                   entry.c_str());
      return false;
    }
    std::string host = entry.substr(0, colon);
    std::string port_text = entry.substr(colon + 1);
    if (port_text.find_first_not_of("0123456789") != std::string::npos) {
      std::fprintf(stderr, "--backends port '%s' is not numeric\n",
                   port_text.c_str());
      return false;
    }
    unsigned long port_value = std::strtoul(port_text.c_str(), nullptr, 10);
    if (port_value == 0 || port_value > 65535) {
      std::fprintf(stderr, "--backends port '%s' out of range\n",
                   port_text.c_str());
      return false;
    }
    auto addr = vexus::net::ResolveHost(host, static_cast<uint16_t>(port_value));
    if (!addr.ok()) {
      std::fprintf(stderr, "--backends: cannot resolve '%s': %s\n",
                   host.c_str(), addr.status().ToString().c_str());
      return false;
    }
    out->emplace_back(std::move(host), static_cast<uint16_t>(port_value));
  }
  if (out->empty()) {
    std::fprintf(stderr, "--backends needs at least one host:port\n");
    return false;
  }
  return true;
}

/// Wires a gather coordinator over TCP shard clients into `svc`. Must run
/// before any session is created.
void ConfigureGatherOverTcp(
    ExplorationService& svc,
    const std::vector<std::pair<std::string, uint16_t>>& backends,
    size_t num_users, uint64_t generation, ThreadPool* pool) {
  std::vector<std::unique_ptr<ShardTransport>> transports;
  transports.reserve(backends.size());
  for (const auto& [host, port] : backends) {
    transports.push_back(std::make_unique<ShardClient>(host, port));
  }
  GatherCoordinator::Options gopts;
  gopts.num_users = num_users;
  gopts.generation = generation;
  gopts.pool = pool;
  svc.ConfigureGather(
      std::make_unique<GatherCoordinator>(std::move(transports), gopts));
}

int RunShardBackend(const std::string& snapshot_path, uint64_t shard_index,
                    uint64_t fleet_width, uint64_t generation,
                    const std::string& host, uint16_t port, uint64_t loops) {
  if (snapshot_path.empty()) {
    std::fprintf(stderr, "--shard-backend needs --snapshot PATH\n");
    return 2;
  }
  auto shard = vexus::core::LoadSnapshotShard(snapshot_path, shard_index);
  if (!shard.ok()) {
    std::fprintf(stderr, "shard load failed: %s\n",
                 shard.status().ToString().c_str());
    return 1;
  }
  if (shard->num_shards != fleet_width) {
    std::fprintf(stderr,
                 "snapshot %s holds %zu shard sections, --shard-index "
                 "declared a fleet of %llu\n",
                 snapshot_path.c_str(), shard->num_shards,
                 static_cast<unsigned long long>(fleet_width));
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

/// --selftest-gather: a 2-backend fleet over real loopback sockets, driven
/// in-process. Proves the three load-bearing behaviors end to end: healthy
/// gather answers byte-identical to a local run, a killed backend degrades
/// answers to "partial" within the deadline (never a hang), and a restarted
/// backend is folded back in by the breaker's half-open probe.
int RunGatherSelfTest(VexusEngine& engine) {
  constexpr uint64_t kGeneration = 7;
  const std::string snap_path =
      "vexus_gather_selftest.snap." + std::to_string(::getpid());
  vexus::core::SnapshotSaveOptions save;
  save.num_shards = 2;
  save.sync = false;  // a throwaway smoke file does not need crash durability
  auto saved =
      vexus::core::SaveSnapshot(engine.groups(), engine.index(), snap_path, save);
  if (!saved.ok()) {
    std::fprintf(stderr, "selftest-gather: snapshot save failed: %s\n",
                 saved.ToString().c_str());
    return 1;
  }
  auto cleanup = [&] { std::remove(snap_path.c_str()); };

  // Two shard backends, each cold-started from its own snapshot section.
  std::vector<std::unique_ptr<ExplorationService>> backends;
  std::vector<std::unique_ptr<TcpServer>> servers;
  std::vector<uint16_t> ports;
  for (size_t s = 0; s < 2; ++s) {
    auto shard = vexus::core::LoadSnapshotShard(snap_path, s);
    if (!shard.ok()) {
      std::fprintf(stderr, "selftest-gather: shard %zu load failed: %s\n", s,
                   shard.status().ToString().c_str());
      cleanup();
      return 1;
    }
    ServiceOptions bopts;
    bopts.num_workers = 2;
    backends.push_back(std::make_unique<ExplorationService>(
        std::move(shard).ValueOrDie(), kGeneration, bopts));
    TcpServerOptions nopts;
    nopts.port = 0;
    nopts.num_loops = 1;
    servers.push_back(std::make_unique<TcpServer>(backends[s].get(), nopts));
    auto status = servers[s]->Start();
    if (!status.ok()) {
      std::fprintf(stderr, "selftest-gather: backend %zu listen failed: %s\n",
                   s, status.ToString().c_str());
      cleanup();
      return 1;
    }
    ports.push_back(servers[s]->port());
    std::printf("selftest-gather: backend %zu on 127.0.0.1:%u\n", s, ports[s]);
  }

  ThreadPool gather_pool(2);
  ServiceOptions copts;
  copts.session_template.greedy.k = 5;
  copts.session_template.greedy.time_limit_ms = 500;
  copts.num_workers = 2;
  ExplorationService coordinator(&engine, copts);
  {
    std::vector<std::pair<std::string, uint16_t>> addrs;
    for (uint16_t p : ports) addrs.emplace_back("127.0.0.1", p);
    ConfigureGatherOverTcp(coordinator, addrs, engine.groups().num_users(),
                           kGeneration, &gather_pool);
  }
  ExplorationService reference(&engine, copts);

  // 1. Healthy fleet: the gathered screen must be byte-identical to the
  //    local (single-process) run over the same engine. Each probe starts
  //    a session and clicks its first group: both services share the
  //    engine's first-screen memo, so only the click is sure to run greedy
  //    (over the fleet on the coordinator).
  auto screen_of = [](ExplorationService& svc, const std::string& id) {
    Request start;
    start.type = RequestType::kStartSession;
    start.session_id = id;
    start.budget_ms = 2000;
    Response first = svc.Call(start);
    if (!first.status.ok() || first.groups.empty()) return first;
    Request click;
    click.type = RequestType::kSelectGroup;
    click.session_id = id;
    click.group = first.groups[0].id;
    click.budget_ms = 2000;
    return svc.Call(click);
  };
  Response gathered = screen_of(coordinator, "gather-a");
  Response local = screen_of(reference, "local-a");
  if (!gathered.status.ok() || !local.status.ok() ||
      gathered.groups.size() != local.groups.size() ||
      gathered.groups.empty()) {
    std::fprintf(stderr, "selftest-gather: healthy screens failed (%s / %s)\n",
                 gathered.status.ToString().c_str(),
                 local.status.ToString().c_str());
    cleanup();
    return 1;
  }
  for (size_t i = 0; i < gathered.groups.size(); ++i) {
    if (gathered.groups[i].id != local.groups[i].id) {
      std::fprintf(stderr,
                   "selftest-gather: identity violated at slot %zu "
                   "(gathered %llu vs local %llu)\n",
                   i,
                   static_cast<unsigned long long>(gathered.groups[i].id),
                   static_cast<unsigned long long>(local.groups[i].id));
      cleanup();
      return 1;
    }
  }
  if (gathered.degraded.has_value()) {
    std::fprintf(stderr, "selftest-gather: healthy run reported degraded\n");
    cleanup();
    return 1;
  }
  std::printf("selftest-gather: healthy identity OK (%zu groups)\n",
              gathered.groups.size());

  // 2. Kill backend 0. The next screen must still complete within its
  //    budget, answered as degraded:"partial" over the surviving shard.
  servers[0]->RequestDrain();
  servers[0]->Drain();
  servers[0].reset();
  backends[0].reset();
  Response degraded = screen_of(coordinator, "gather-b");
  if (!degraded.status.ok()) {
    std::fprintf(stderr, "selftest-gather: post-kill screen failed: %s\n",
                 degraded.status.ToString().c_str());
    cleanup();
    return 1;
  }
  if (!degraded.degraded.has_value() || *degraded.degraded != "partial" ||
      !degraded.covered_fraction.has_value() ||
      !(*degraded.covered_fraction < 1.0)) {
    std::fprintf(stderr,
                 "selftest-gather: expected degraded:\"partial\" after the "
                 "kill, got %s\n",
                 degraded.degraded.value_or("<unset>").c_str());
    cleanup();
    return 1;
  }
  std::printf("selftest-gather: backend kill degraded to partial "
              "(covered %.2f) OK\n",
              *degraded.covered_fraction);

  // 3. Recovery: restart shard 0 on its old port, wait out the breaker
  //    cooldown, probe, and expect full-coverage answers again.
  {
    auto shard = vexus::core::LoadSnapshotShard(snap_path, 0);
    if (!shard.ok()) {
      cleanup();
      return 1;
    }
    ServiceOptions bopts;
    bopts.num_workers = 2;
    backends[0] = std::make_unique<ExplorationService>(
        std::move(shard).ValueOrDie(), kGeneration, bopts);
    TcpServerOptions nopts;
    nopts.port = ports[0];
    nopts.num_loops = 1;
    bool bound = false;
    for (int attempt = 0; attempt < 50 && !bound; ++attempt) {
      servers[0] = std::make_unique<TcpServer>(backends[0].get(), nopts);
      bound = servers[0]->Start().ok();
      if (!bound) {
        servers[0].reset();
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    }
    if (!bound) {
      std::fprintf(stderr,
                   "selftest-gather: could not rebind 127.0.0.1:%u for the "
                   "recovery leg\n",
                   ports[0]);
      cleanup();
      return 1;
    }
  }
  // The breaker opens during the kill leg; ProbeShards flips it half-open
  // after the cooldown and the successful probe closes it again.
  size_t recovered = 0;
  for (int attempt = 0; attempt < 50 && recovered == 0; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    recovered = coordinator.gather()->ProbeShards();
  }
  if (recovered == 0) {
    std::fprintf(stderr, "selftest-gather: breaker never recovered\n");
    cleanup();
    return 1;
  }
  Response healed = screen_of(coordinator, "gather-c");
  if (!healed.status.ok() || healed.degraded.has_value()) {
    std::fprintf(stderr, "selftest-gather: post-recovery screen degraded\n");
    cleanup();
    return 1;
  }
  for (auto& server : servers) {
    if (server) {
      server->RequestDrain();
      server->Drain();
    }
  }
  cleanup();
  std::printf("selftest-gather: OK\n");
  return 0;
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
  bool selftest_gather = false;
  bool shard_backend = false;
  uint64_t shard_index = 0;
  uint64_t fleet_width = 0;
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
      // Bounded like --shard-index's fleet width S.
      if (!parse_uint(arg, 64, &value)) return 2;
      shards = value;
      shards_given = true;
    } else if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--selftest-gather") {
      selftest_gather = true;
    } else if (arg == "--shard-backend") {
      shard_backend = true;
    } else if (arg == "--shard-index") {
      std::string value = next();
      size_t slash = value.find('/');
      // "i/S": both parts decimal, S > i, S bounded like --shards.
      bool ok = slash != std::string::npos && slash > 0 &&
                slash + 1 < value.size() &&
                value.find_first_not_of("0123456789/") == std::string::npos &&
                value.find('/', slash + 1) == std::string::npos;
      if (ok) {
        shard_index = std::strtoull(value.substr(0, slash).c_str(), nullptr, 10);
        fleet_width = std::strtoull(value.substr(slash + 1).c_str(), nullptr, 10);
        ok = fleet_width > 0 && fleet_width <= 64 && shard_index < fleet_width;
      }
      if (!ok) {
        std::fprintf(stderr, "--shard-index wants i/S (i < S <= 64), got '%s'\n",
                     value.c_str());
        return 2;
      }
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
  if (shards_given && save_snapshot_path.empty()) {
    std::fprintf(stderr,
                 "--shards sets the snapshot section count and needs "
                 "--save-snapshot; a single process never shards\n");
    PrintUsage(stderr);
    return 2;
  }
  if (shard_backend) {
    if (fleet_width == 0) {
      std::fprintf(stderr, "--shard-backend needs --shard-index i/S\n");
      return 2;
    }
    return RunShardBackend(snapshot_path, shard_index, fleet_width, generation,
                           host, port, loops);
  }

  BookCrossingGenerator::Config data_cfg;
  data_cfg.num_users = users;
  data_cfg.num_books = users * 4 / 3;
  data_cfg.num_ratings = users * 7;
  vexus::mining::DiscoveryOptions discovery;
  discovery.min_support_fraction = 0.02;
  auto engine_result = VexusEngine::Preprocess(
      BookCrossingGenerator::Generate(data_cfg), discovery);
  if (!engine_result.ok()) {
    std::fprintf(stderr, "preprocess failed: %s\n",
                 engine_result.status().ToString().c_str());
    return 1;
  }
  VexusEngine engine = std::move(engine_result).ValueOrDie();
  std::printf("%s\n", engine.Summary().c_str());

  // Fleet bootstrap: write the generated store as a snapshot (one group
  // section per --shards shard) and exit — the file a --shard-backend
  // cold-starts from. The same --users invocation then serves as the
  // coordinator over those backends.
  if (!save_snapshot_path.empty()) {
    vexus::core::SnapshotSaveOptions save;
    save.num_shards = shards;
    auto saved = vexus::core::SaveSnapshot(engine.groups(), engine.index(),
                                           save_snapshot_path, save);
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

  if (selftest_gather) return RunGatherSelfTest(engine);

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
  if (!backends_list.empty()) {
    std::vector<std::pair<std::string, uint16_t>> backends;
    if (!ParseBackendList(backends_list, &backends)) return 2;
    gather_pool = std::make_unique<ThreadPool>(backends.size());
    ConfigureGatherOverTcp(svc, backends, engine.groups().num_users(),
                           generation, gather_pool.get());
    std::printf("gather coordinator over %zu backends (generation %llu)\n",
                backends.size(),
                static_cast<unsigned long long>(generation));
  }

  if (selftest) return RunSelfTest(svc);

  return ServeForever(svc, host, port, loops, "vexus_server");
}
