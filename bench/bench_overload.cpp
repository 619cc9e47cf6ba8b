// bench_overload — the two numbers behind ISSUE 5's acceptance gates:
//
//  1. Failpoint tax. Failpoint sites sit on the 100 ms serving path, so the
//     disarmed fast path must be one predicted branch. We measure
//     ns/evaluation for (a) a disarmed site with nothing armed anywhere
//     (the production steady state), and (b) a disarmed site while an
//     *unrelated* site is armed (registry lookup slow path — the worst a
//     test run inflicts on untargeted code). Gate: (a) stays in the
//     low-single-digit ns — i.e. ≤ 2% of even a 1 µs operation.
//
//  2. Graceful degradation at 2× capacity (DESIGN.md §12). We estimate the
//     service's closed-loop capacity (workers × 1000/mean_select_ms), then
//     offer ~2× that with 2×workers closed-loop explorers, ladder on vs.
//     ladder off. Gates (ladder on): p99 of *answered* requests ≤ 100 ms
//     and ≥ 90% of requests get a real or degraded screen (not shed, not
//     deadline-expired). The ladder-off run shows what the fixed-depth
//     backstop alone does with the same traffic.
//
// Run:   ./build/bench/bench_overload [--smoke]
// --smoke shrinks the engine and the measurement windows for CI; gates are
// still computed and printed, and the exit code reflects them in both
// modes. Output ends with one "JSON {...}" line (BENCH_overload.json).

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "server/service.h"

using namespace vexus;
using namespace vexus::bench;

namespace {

// ---------------------------------------------------------------------------
// Part 1: failpoint fast-path tax.
// ---------------------------------------------------------------------------

double MeasureDisarmedNs(uint64_t iters) {
  Stopwatch sw;
  for (uint64_t i = 0; i < iters; ++i) failpoint::DisarmedSiteForBench();
  return sw.ElapsedMillis() * 1e6 / static_cast<double>(iters);
}

// ---------------------------------------------------------------------------
// Part 2: overload behaviour.
// ---------------------------------------------------------------------------

/// Client think time between interactions (models a human glancing at the
/// screen; also what keeps an instant stale answer from letting one client
/// spin thousands of req/s).
constexpr double kThinkMs = 5.0;

struct PhaseStats {
  std::atomic<uint64_t> full{0};      // OK, full quality
  std::atomic<uint64_t> degraded{0};  // OK, degraded:"effort"/"stale"
  std::atomic<uint64_t> shed{0};      // ResourceExhausted
  std::atomic<uint64_t> deadline{0};  // DeadlineExceeded
  std::atomic<uint64_t> other{0};

  uint64_t Total() const {
    return full.load() + degraded.load() + shed.load() + deadline.load() +
           other.load();
  }
  double GoodFraction() const {
    uint64_t t = Total();
    return t == 0 ? 0.0
                  : static_cast<double>(full.load() + degraded.load()) /
                        static_cast<double>(t);
  }
};

server::Request MakeStart(const std::string& id) {
  server::Request req;
  req.type = server::RequestType::kStartSession;
  req.session_id = id;
  return req;
}

/// Closed-loop explorer with a small think time: start once, then
/// select_group until the deadline. The think time models a human glancing
/// at the screen — without it an instant (stale) answer lets the loop spin
/// thousands of req/s and the request-weighted mix degenerates. Per-request
/// latency lands in `lat` (answered requests only — sheds return in
/// microseconds and would flatter the percentile).
void OverloadExplorer(server::ExplorationService* svc, const std::string& id,
                      double run_ms, double think_ms, PhaseStats* stats,
                      Series* lat, std::mutex* lat_mu) {
  server::Response screen = svc->Call(MakeStart(id));
  if (!screen.status.ok() || screen.groups.empty()) {
    stats->other.fetch_add(1);
    return;
  }
  Series local;
  Stopwatch wall;
  size_t pick = 0;
  while (wall.ElapsedMillis() < run_ms) {
    server::Request sel;
    sel.type = server::RequestType::kSelectGroup;
    sel.session_id = id;
    sel.group = screen.groups[pick++ % screen.groups.size()].id;
    Stopwatch one;
    server::Response resp = svc->Call(std::move(sel));
    double ms = one.ElapsedMillis();
    if (resp.status.ok()) {
      (resp.degraded.has_value() ? stats->degraded : stats->full)
          .fetch_add(1);
      local.Add(ms);
      if (!resp.groups.empty()) screen = std::move(resp);
    } else if (resp.status.code() == StatusCode::kResourceExhausted) {
      stats->shed.fetch_add(1);
    } else if (resp.status.code() == StatusCode::kDeadlineExceeded) {
      stats->deadline.fetch_add(1);
    } else {
      stats->other.fetch_add(1);
    }
    if (think_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(think_ms));
    }
  }
  std::lock_guard<std::mutex> lock(*lat_mu);
  for (double v : local.values) lat->Add(v);
}

struct PhaseResult {
  uint64_t requests = 0;
  uint64_t full = 0, degraded = 0, shed = 0, deadline = 0, other = 0;
  double good_fraction = 0;
  double p50_ms = 0, p99_ms = 0, max_ms = 0;
  uint64_t escalations = 0;
  uint64_t degraded_effort = 0, degraded_stale = 0;
  uint64_t overload_sheds = 0;
};

PhaseResult RunPhase(core::VexusEngine* engine, bool ladder, int workers,
                     int explorers, double run_ms) {
  server::ServiceOptions opts;
  opts.session_template.greedy.k = 5;
  opts.session_template.greedy.time_limit_ms = 80;
  opts.dispatcher.default_budget_ms = 100;  // the paper's budget
  opts.dispatcher.overload.enabled = ladder;
  opts.dispatcher.overload.window_ms = 50.0;
  opts.num_workers = static_cast<size_t>(workers);
  server::ExplorationService svc(engine, opts);

  PhaseStats stats;
  Series lat;
  std::mutex lat_mu;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(explorers));
  for (int i = 0; i < explorers; ++i) {
    threads.emplace_back(OverloadExplorer, &svc, StrCat("ex", i),
                         run_ms, kThinkMs, &stats, &lat, &lat_mu);
  }
  for (auto& t : threads) t.join();

  server::MetricsSnapshot snap = svc.Stats();
  PhaseResult r;
  r.requests = stats.Total();
  r.full = stats.full.load();
  r.degraded = stats.degraded.load();
  r.shed = stats.shed.load();
  r.deadline = stats.deadline.load();
  r.other = stats.other.load();
  r.good_fraction = stats.GoodFraction();
  r.p50_ms = lat.Percentile(0.50);
  r.p99_ms = lat.Percentile(0.99);
  r.max_ms = lat.Max();
  r.escalations = svc.dispatcher().overload().escalations();
  r.degraded_effort = snap.degraded_effort;
  r.degraded_stale = snap.degraded_stale;
  r.overload_sheds = snap.overload_sheds;
  return r;
}

server::json::Value PhaseJson(const PhaseResult& r) {
  server::json::Object o;
  o.emplace_back("requests", server::json::Value(r.requests));
  o.emplace_back("full", server::json::Value(r.full));
  o.emplace_back("degraded", server::json::Value(r.degraded));
  o.emplace_back("degraded_effort", server::json::Value(r.degraded_effort));
  o.emplace_back("degraded_stale", server::json::Value(r.degraded_stale));
  o.emplace_back("shed", server::json::Value(r.shed));
  o.emplace_back("overload_sheds", server::json::Value(r.overload_sheds));
  o.emplace_back("deadline_exceeded", server::json::Value(r.deadline));
  o.emplace_back("good_fraction", server::json::Value(r.good_fraction));
  o.emplace_back("p50_ms", server::json::Value(r.p50_ms));
  o.emplace_back("p99_ms", server::json::Value(r.p99_ms));
  o.emplace_back("max_ms", server::json::Value(r.max_ms));
  o.emplace_back("ladder_escalations", server::json::Value(r.escalations));
  return server::json::Value(std::move(o));
}

void PrintPhase(const char* name, const PhaseResult& r) {
  std::printf(
      "%-10s requests=%-6llu full=%-6llu degraded=%-5llu (effort=%llu "
      "stale=%llu) shed=%-5llu deadline=%-4llu good=%5.1f%%  "
      "p50=%6.1f ms  p99=%6.1f ms  escalations=%llu\n",
      name, static_cast<unsigned long long>(r.requests),
      static_cast<unsigned long long>(r.full),
      static_cast<unsigned long long>(r.degraded),
      static_cast<unsigned long long>(r.degraded_effort),
      static_cast<unsigned long long>(r.degraded_stale),
      static_cast<unsigned long long>(r.shed),
      static_cast<unsigned long long>(r.deadline), 100.0 * r.good_fraction,
      r.p50_ms, r.p99_ms, static_cast<unsigned long long>(r.escalations));
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }

  Banner("bench_overload",
         "failpoints cost one predicted branch when disarmed; at 2x "
         "capacity the degradation ladder keeps p99 <= 100 ms with >= 90% "
         "real-or-degraded answers");
  std::printf("mode: %s\n\n", smoke ? "smoke (CI)" : "full");

  // --- Part 1: failpoint tax -------------------------------------------
  const uint64_t iters = smoke ? 5'000'000ULL : 50'000'000ULL;
  MeasureDisarmedNs(iters / 10);  // warm up
  double disarmed_ns = MeasureDisarmedNs(iters);
  double armed_other_ns;
  {
    failpoint::Policy off;
    off.mode = failpoint::Policy::Mode::kOff;
    failpoint::ScopedFailpoint unrelated("bench.unrelated.site", off);
    armed_other_ns = MeasureDisarmedNs(iters / 10);
  }
  std::printf("failpoint disarmed fast path : %7.2f ns/eval (nothing armed)\n",
              disarmed_ns);
  std::printf("failpoint registry slow path : %7.2f ns/eval (unrelated site "
              "armed)\n\n",
              armed_other_ns);

  // --- Part 2: overload ------------------------------------------------
  core::VexusEngine engine = BxEngine(smoke ? 4000 : 10000, 0.01);
  std::printf("%s\n", engine.Summary().c_str());

  const int workers = 4;
  const double run_ms = smoke ? 1500.0 : 6000.0;

  // Capacity probe: `workers` closed-loop explorers give a lightly loaded
  // run whose p50 approximates the per-select service time s; the service's
  // saturation throughput is then workers/s, and the explorer count whose
  // *offered* load (N explorers issuing every s+think ms) doubles that is
  //   N = 2 · workers · (s + think) / s.
  // Sizing from measured s keeps "2×" honest across machines — a fixed
  // explorer count would be 4× on a slow box and 0.8× on a fast one.
  PhaseResult probe =
      RunPhase(&engine, /*ladder=*/true, workers, workers, run_ms / 2);
  const double service_ms = std::max(probe.p50_ms, 0.5);
  const double capacity_rps = 1000.0 * workers / service_ms;
  int explorers_2x = static_cast<int>(
      std::ceil(2.0 * workers * (service_ms + kThinkMs) / service_ms));
  std::printf("\ncapacity probe: select p50 %.1f ms -> capacity ~%.0f req/s; "
              "2x offered load = %d explorers\n",
              service_ms, capacity_rps, explorers_2x);

  std::printf("\n2x capacity (%d explorers over %d workers), %.1f s per "
              "phase:\n",
              explorers_2x, workers, run_ms / 1000.0);
  PhaseResult on =
      RunPhase(&engine, /*ladder=*/true, workers, explorers_2x, run_ms);
  PrintPhase("ladder on", on);
  PhaseResult off_r =
      RunPhase(&engine, /*ladder=*/false, workers, explorers_2x, run_ms);
  PrintPhase("ladder off", off_r);

  // --- Gates ------------------------------------------------------------
  int failures = 0;
  auto gate = [&failures](bool pass, const std::string& what) {
    std::printf("gate %-52s %s\n", what.c_str(), pass ? "PASS" : "FAIL");
    if (!pass) ++failures;
  };
  std::printf("\n");
  gate(disarmed_ns < 5.0, "disarmed failpoint < 5 ns/eval:");
  gate(on.p99_ms <= 100.0, "ladder-on p99 of answered requests <= 100 ms:");
  gate(on.good_fraction >= 0.90, "ladder-on real-or-degraded >= 90%:");
  gate(on.requests > 0 && on.degraded + on.escalations > 0,
       "ladder visibly engaged at 2x (degraded or escalated):");

  // --- JSON -------------------------------------------------------------
  server::json::Object out;
  out.emplace_back("bench", server::json::Value("bench_overload"));
  out.emplace_back("mode", server::json::Value(smoke ? "smoke" : "full"));
  out.emplace_back("disarmed_ns_per_eval", server::json::Value(disarmed_ns));
  out.emplace_back("armed_other_site_ns_per_eval",
                   server::json::Value(armed_other_ns));
  out.emplace_back("workers", server::json::Value(workers));
  out.emplace_back("select_p50_ms_unloaded", server::json::Value(service_ms));
  out.emplace_back("capacity_rps", server::json::Value(capacity_rps));
  out.emplace_back("explorers_2x", server::json::Value(explorers_2x));
  out.emplace_back("think_ms", server::json::Value(kThinkMs));
  out.emplace_back("ladder_on", PhaseJson(on));
  out.emplace_back("ladder_off", PhaseJson(off_r));
  out.emplace_back("gates_failed", server::json::Value(failures));
  std::printf("\nJSON %s\n",
              server::json::Value(std::move(out)).Dump().c_str());

  return failures == 0 ? 0 : 1;
}
