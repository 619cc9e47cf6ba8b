// service_repl: drive the exploration service over its line protocol.
//
// Demonstrates the serving layer end to end:
//   1. Preprocess a synthetic BOOKCROSSING dataset into a VexusEngine.
//   2. Stand up an ExplorationService (thread pool + session manager +
//      dispatcher + metrics) in front of it.
//   3. Feed it scripted protocol lines for TWO interleaved explorers —
//      exactly the bytes a socket front-end would read — and print each
//      request/response pair.
//   4. Print the service metrics snapshot (the get_stats JSON object).
//
// With --stdin it instead reads protocol lines from standard input, turning
// the binary into an actual REPL you can pipe a script into:
//
//   echo '{"op":"start_session","session":"me"}' | ./build/examples/service_repl --stdin
//
// With --connect HOST:PORT it skips the in-process engine entirely and
// becomes a thin network client for a running vexus_server: stdin lines go
// over the socket, response lines come back on stdout. Framing is the
// shared net::LineClient / server::LineFramer — this binary contains no
// second protocol parser.
//
//   ./build/examples/vexus_server --port 7788 &
//   echo '{"op":"health"}' | ./build/examples/service_repl --connect 127.0.0.1:7788
//
// Run:  ./build/examples/service_repl

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/generators/bookcrossing_gen.h"
#include "net/client.h"
#include "net/socket.h"
#include "server/service.h"

using vexus::core::VexusEngine;
using vexus::data::BookCrossingGenerator;
using vexus::server::ExplorationService;
using vexus::server::Response;
using vexus::server::ServiceOptions;

namespace {

/// Translates the overload-related response shapes into one operator-facing
/// hint line (empty when the response needs no explanation). The wire
/// fields are terse by design; this is where a human front-end would say
/// what they mean.
std::string OverloadHint(const Response& resp) {
  if (resp.status.code() == vexus::StatusCode::kResourceExhausted) {
    return "   -- shed: the service is overloaded (degradation ladder at "
           "'shed' or queue full).\n"
           "      Retry with backoff; {\"op\":\"health\"} shows the current "
           "rung and queue delay.";
  }
  if (resp.status.code() == vexus::StatusCode::kDeadlineExceeded) {
    return "   -- deadline: the request's budget_ms ran out before a screen "
           "was computed.\n"
           "      Raise budget_ms or let the server degrade instead of "
           "expiring.";
  }
  if (resp.degraded.has_value()) {
    if (*resp.degraded == "effort") {
      return "   -- degraded:\"effort\": overload rung 1 — this screen was "
             "computed with a\n"
           "      shrunken greedy budget; quality may be slightly lower, "
             "latency is protected.";
    }
    if (*resp.degraded == "k") {
      return "   -- degraded:\"k\": overload rung 2 — fewer groups than "
             "requested on this\n"
             "      screen; your session's own k returns when load drops.";
    }
    if (*resp.degraded == "stale") {
      return "   -- degraded:\"stale\": overload rung 3 — this is your "
             "previous screen replayed\n"
             "      from cache; the selection was NOT applied. Re-issue it "
             "when load drops.";
    }
    return "   -- degraded:\"" + *resp.degraded + "\"";
  }
  return "";
}

/// Runs one scripted line and prints the exchange like a wire tap, plus a
/// human-readable hint when the server shed or degraded the answer.
Response Exchange(ExplorationService& svc, const std::string& line) {
  std::printf(">> %s\n", line.c_str());
  std::string out = svc.HandleLine(line);
  std::printf("<< %s\n", out.c_str());
  auto decoded = Response::Decode(out);
  Response resp = decoded.ok() ? std::move(decoded).ValueOrDie() : Response{};
  std::string hint = OverloadHint(resp);
  if (!hint.empty()) std::printf("%s\n", hint.c_str());
  std::printf("\n");
  return resp;
}

constexpr char kConnectUsage[] =
    "usage: service_repl --connect HOST:PORT\n"
    "  HOST is an IPv4 address or name (use 127.0.0.1 for local);\n"
    "  PORT is 1..65535.\n";

/// --connect mode: a pure network REPL. No engine, no service — every line
/// of stdin crosses the wire to a running vexus_server and every response
/// line is printed. Overload hints still apply (they decode the same
/// Response shapes the in-process path produces).
int RunConnected(const std::string& target) {
  auto endpoint = vexus::net::ParseHostPort(target);
  if (!endpoint.ok()) {
    std::fprintf(stderr, "--connect: %s\n%s",
                 endpoint.status().ToString().c_str(), kConnectUsage);
    return 2;
  }
  auto client = vexus::net::LineClient::Connect(endpoint->host, endpoint->port);
  if (!client.ok()) {
    std::fprintf(stderr, "connect %s failed: %s\n", target.c_str(),
                 client.status().ToString().c_str());
    return 1;
  }
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    auto status = client->SendLine(line);
    if (!status.ok()) {
      std::fprintf(stderr, "send failed: %s\n", status.ToString().c_str());
      return 1;
    }
    auto out = client->ReadLine();
    if (!out.ok()) {
      std::fprintf(stderr, "read failed: %s\n",
                   out.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", out->c_str());
    auto decoded = Response::Decode(*out);
    if (decoded.ok()) {
      std::string hint = OverloadHint(*decoded);
      if (!hint.empty()) std::fprintf(stderr, "%s\n", hint.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool use_stdin = argc > 1 && std::strcmp(argv[1], "--stdin") == 0;
  if (argc > 1 && std::strcmp(argv[1], "--connect") == 0) {
    if (argc < 3) {
      std::fprintf(stderr, "--connect needs a HOST:PORT target\n%s",
                   kConnectUsage);
      return 2;
    }
    return RunConnected(argv[2]);
  }
  // ---- 1. Engine. ----
  BookCrossingGenerator::Config data_cfg;
  data_cfg.num_users = 1500;
  data_cfg.num_books = 2000;
  data_cfg.num_ratings = 10000;
  vexus::mining::DiscoveryOptions discovery;
  discovery.min_support_fraction = 0.02;
  auto engine_result = VexusEngine::Preprocess(
      BookCrossingGenerator::Generate(data_cfg), discovery, {});
  if (!engine_result.ok()) {
    std::fprintf(stderr, "preprocess failed: %s\n",
                 engine_result.status().ToString().c_str());
    return 1;
  }
  VexusEngine engine = std::move(engine_result).ValueOrDie();
  std::printf("%s\n\n", engine.Summary().c_str());

  // ---- 2. Service. ----
  ServiceOptions options;
  options.session_template.greedy.k = 5;
  options.session_template.greedy.time_limit_ms = 80;  // inside the 100 ms
  options.num_workers = 4;
  ExplorationService svc(&engine, options);

  if (use_stdin) {
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      std::string out = svc.HandleLine(line);
      std::printf("%s\n", out.c_str());
      // stdout stays pure protocol (pipeable); hints go to stderr.
      auto decoded = Response::Decode(out);
      if (decoded.ok()) {
        std::string hint = OverloadHint(*decoded);
        if (!hint.empty()) std::fprintf(stderr, "%s\n", hint.c_str());
      }
    }
    return 0;
  }

  // ---- 3. Two interleaved explorers, scripted. ----
  // Alice hunts for a group; Bob starts later, works in parallel, and
  // abandons a stale handle on the way.
  Response alice_first =
      Exchange(svc, R"({"op":"start_session","session":"alice","k":5})");
  Response bob_first =
      Exchange(svc, R"({"op":"start_session","session":"bob","k":3})");

  if (alice_first.groups.empty() || bob_first.groups.empty()) {
    std::fprintf(stderr, "unexpected: empty first screens\n");
    return 1;
  }

  uint32_t alice_click = alice_first.groups[0].id;
  uint32_t bob_click = bob_first.groups[0].id;
  Exchange(svc, std::string(R"({"op":"select_group","session":"alice","group":)") +
                    std::to_string(alice_click) + "}");
  Exchange(svc, std::string(R"({"op":"select_group","session":"bob","group":)") +
                    std::to_string(bob_click) + "}");
  Exchange(svc, std::string(R"({"op":"bookmark","session":"alice","group":)") +
                    std::to_string(alice_click) + "}");
  Exchange(svc, R"({"op":"bookmark","session":"bob","user":42})");
  Exchange(svc, R"({"op":"get_context","session":"alice","top_k":5})");

  // Alice changes her mind about the first click: backtrack + re-explore.
  Exchange(svc, R"({"op":"backtrack","session":"alice","step":0})");

  // A client with a stale generation gets NotFound, not Bob's session.
  Exchange(svc, R"({"op":"select_group","session":"bob","group":0,"generation":999999})");

  // A request that arrives with no budget left degrades gracefully.
  Exchange(svc, R"({"op":"select_group","session":"bob","group":0,"budget_ms":0})");

  // Malformed input produces an error line, never a crash.
  Exchange(svc, "{\"op\":\"warp_ten\"}");

  Exchange(svc, R"({"op":"end_session","session":"alice"})");

  // ---- 3b. Overload ladder, demonstrated (DESIGN.md §12). ----
  // Force the controller up the ladder so the script shows what an explorer
  // sees during a load spike (a real spike reaches the same rungs through
  // measured queue delay; see the health probe's overload_rung).
  std::printf("---- simulated load spike: ladder forced to rung 2 "
              "(reduce_k) ----\n\n");
  svc.dispatcher().overload().ForceRungForTesting(
      vexus::server::OverloadRung::kReduceK);
  Response squeezed =
      Exchange(svc, std::string(R"({"op":"select_group","session":"bob","group":)") +
                        std::to_string(bob_click) + "}");
  std::printf("---- spike worsens: rung 3 (stale) ----\n\n");
  svc.dispatcher().overload().ForceRungForTesting(
      vexus::server::OverloadRung::kStale);
  Exchange(svc, std::string(R"({"op":"select_group","session":"bob","group":)") +
                    std::to_string(bob_click) + "}");
  Exchange(svc, R"({"op":"health"})");
  std::printf("---- spike over: back to normal ----\n\n");
  svc.dispatcher().overload().ForceRungForTesting(
      vexus::server::OverloadRung::kNormal);
  (void)squeezed;

  Exchange(svc, R"({"op":"end_session","session":"bob"})");

  // ---- 4. Metrics. ----
  std::printf("%s\n", svc.Stats().ToJson().Dump().c_str());
  return 0;
}
