// bench_trace_overhead — proves the tracer is free when off and cheap when on.
//
// The tracing subsystem (src/common/trace.h, src/server/trace_log.h) rides
// inside the 100 ms interaction budget, so its cost model must be explicit:
//
//   1. Disabled span ops (the default): a default-constructed TraceSpan is a
//      null handle, so Child()/AddCount()/Close() must each cost one branch.
//      We measure ns/op over a hot loop and compare with an empty baseline.
//   2. Enabled span ops: Child()+Close() against a live Trace arena takes a
//      mutex and a clock read; we amortise over a capacity-sized burst.
//   3. End-to-end A/B: a scripted explorer workload (start, then select /
//      context / bookmark rounds), run alternately with
//      trace.enabled=false and true. Acceptance (ISSUE): traced throughput within 2% of untraced.
//
// Emits BENCH_trace_overhead.json (path overridable via argv[1]) so the
// regression number is a committed artifact, and prints the same JSON.
//
// Run:  ./build/bench/bench_trace_overhead [out.json]

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "server/service.h"

using namespace vexus;
using namespace vexus::bench;

namespace {

/// Keeps the optimiser from deleting the measured loop.
template <typename T>
inline void Keep(const T& v) {
  asm volatile("" : : "r,m"(v) : "memory");
}

/// ns per Child()+Close() pair on a *disabled* (default-constructed) span.
double DisabledSpanNs(size_t iters) {
  TraceSpan disabled;  // null handle — the steady-state of a prod server
  Stopwatch sw;
  for (size_t i = 0; i < iters; ++i) {
    TraceSpan child = disabled.Child("hot");
    child.AddCount(1);
    child.Close();
    Keep(child);
  }
  double ns = sw.ElapsedMillis() * 1e6;
  return ns / static_cast<double>(iters);
}

/// ns per Child()+Close() pair against a live arena. Each burst fills a fresh
/// Trace to just under capacity so we never hit the drop path.
double EnabledSpanNs(size_t bursts, size_t spans_per_burst) {
  double total_ns = 0;
  size_t total_ops = 0;
  for (size_t b = 0; b < bursts; ++b) {
    Trace trace("bench", spans_per_burst + 8);
    TraceSpan root = trace.root();
    Stopwatch sw;
    for (size_t i = 0; i < spans_per_burst; ++i) {
      TraceSpan child = root.Child("hot");
      child.AddCount(1);
      child.Close();
      Keep(child);
    }
    total_ns += sw.ElapsedMillis() * 1e6;
    total_ops += spans_per_burst;
    trace.Finish();
  }
  return total_ns / static_cast<double>(total_ops);
}

server::Request MakeStart(const std::string& id) {
  server::Request req;
  req.type = server::RequestType::kStartSession;
  req.session_id = id;
  return req;
}

/// The scripted explorer loop: start, then select / context / bookmark
/// rounds.
void ExplorerLoop(server::ExplorationService& svc, const std::string& id,
                  int rounds, std::atomic<uint64_t>* errors) {
  server::Response screen = svc.Call(MakeStart(id));
  if (!screen.status.ok() || screen.groups.empty()) {
    errors->fetch_add(1);
    return;
  }
  for (int r = 0; r < rounds; ++r) {
    server::Request sel;
    sel.type = server::RequestType::kSelectGroup;
    sel.session_id = id;
    sel.group = screen.groups[static_cast<size_t>(r) % screen.groups.size()].id;
    server::Response next = svc.Call(sel);
    if (next.status.ok() && !next.groups.empty()) screen = std::move(next);

    server::Request ctx;
    ctx.type = server::RequestType::kGetContext;
    ctx.session_id = id;
    ctx.top_k = 8;
    if (!svc.Call(ctx).status.ok()) errors->fetch_add(1);

    server::Request bm;
    bm.type = server::RequestType::kBookmark;
    bm.session_id = id;
    bm.group = screen.groups[0].id;
    if (!svc.Call(bm).status.ok()) errors->fetch_add(1);
  }
  server::Request end;
  end.type = server::RequestType::kEndSession;
  end.session_id = id;
  if (!svc.Call(end).status.ok()) errors->fetch_add(1);
}

struct RunResult {
  double rps = 0;
  uint64_t requests = 0;
  uint64_t errors = 0;
};

RunResult RunWorkload(core::VexusEngine& engine, bool traced, int sessions,
                      int rounds) {
  server::ServiceOptions opts;
  opts.session_template.greedy.k = 5;
  opts.session_template.greedy.time_limit_ms = 20;
  opts.dispatcher.default_budget_ms = 100;
  opts.num_workers = static_cast<size_t>(sessions);
  opts.trace.enabled = traced;
  opts.trace.capacity = 256;
  opts.trace.slow_fraction = 0.0;  // record everything: worst case for cost
  server::ExplorationService svc(&engine, opts);

  std::atomic<uint64_t> errors{0};
  Stopwatch wall;
  std::vector<std::thread> explorers;
  explorers.reserve(static_cast<size_t>(sessions));
  for (int s = 0; s < sessions; ++s) {
    explorers.emplace_back([&svc, s, rounds, &errors] {
      ExplorerLoop(svc, StrCat("explorer", s), rounds, &errors);
    });
  }
  for (auto& t : explorers) t.join();
  double wall_ms = wall.ElapsedMillis();

  server::MetricsSnapshot snap = svc.Stats();
  RunResult r;
  r.requests = snap.TotalRequests();
  r.errors = errors.load();
  r.rps = 1000.0 * static_cast<double>(r.requests) / wall_ms;
  return r;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path =
      argc > 1 ? argv[1] : "BENCH_trace_overhead.json";

  Banner("bench_trace_overhead",
         "disabled tracer must cost one branch per span; enabled tracer must "
         "keep end-to-end throughput within 2%");

  // --- 1. Disabled span micro-cost. Warm up, then measure.
  (void)DisabledSpanNs(1u << 20);
  double disabled_ns = DisabledSpanNs(1u << 26);
  std::printf("disabled span Child+AddCount+Close : %7.3f ns/op\n",
              disabled_ns);

  // --- 2. Enabled span micro-cost.
  (void)EnabledSpanNs(16, 200);
  double enabled_ns = EnabledSpanNs(2048, 200);
  std::printf("enabled  span Child+AddCount+Close : %7.1f ns/op\n\n",
              enabled_ns);

  // --- 3. End-to-end A/B on the explorer workload.
  core::VexusEngine engine = BxEngine(8000, 0.015);
  std::printf("%s\n\n", engine.Summary().c_str());

  constexpr int kSessions = 4;
  constexpr int kRounds = 15;
  constexpr int kTrials = 5;

  // Warm both paths once (index/page-cache effects), then interleave trials
  // so drift hits both arms equally.
  (void)RunWorkload(engine, false, kSessions, kRounds);
  (void)RunWorkload(engine, true, kSessions, kRounds);

  std::vector<double> base_rps, traced_rps;
  uint64_t requests = 0, errors = 0;
  for (int t = 0; t < kTrials; ++t) {
    RunResult base = RunWorkload(engine, false, kSessions, kRounds);
    RunResult traced = RunWorkload(engine, true, kSessions, kRounds);
    base_rps.push_back(base.rps);
    traced_rps.push_back(traced.rps);
    requests = base.requests;
    errors += base.errors + traced.errors;
    std::printf("trial %d: untraced %7.0f req/s | traced %7.0f req/s\n", t,
                base.rps, traced.rps);
  }

  double base_med = Median(base_rps);
  double traced_med = Median(traced_rps);
  double regression_pct = 100.0 * (base_med - traced_med) / base_med;

  std::printf("\nmedian untraced: %.0f req/s   median traced: %.0f req/s   "
              "regression: %+.2f%%  (accept < 2%%)\n",
              base_med, traced_med, regression_pct);

  server::json::Object out;
  out.emplace_back("bench", server::json::Value(std::string("trace_overhead")));
  out.emplace_back("disabled_span_ns", server::json::Value(disabled_ns));
  out.emplace_back("enabled_span_ns", server::json::Value(enabled_ns));
  out.emplace_back("concurrent_sessions", server::json::Value(kSessions));
  out.emplace_back("rounds_per_session", server::json::Value(kRounds));
  out.emplace_back("trials", server::json::Value(kTrials));
  out.emplace_back("requests_per_trial",
                   server::json::Value(requests));
  out.emplace_back("errors", server::json::Value(errors));
  out.emplace_back("untraced_rps_median", server::json::Value(base_med));
  out.emplace_back("traced_rps_median", server::json::Value(traced_med));
  out.emplace_back("regression_pct", server::json::Value(regression_pct));
  out.emplace_back("accept_below_pct", server::json::Value(2.0));
  out.emplace_back("pass",
                   server::json::Value(regression_pct < 2.0));
  std::string json = server::json::Value(std::move(out)).Dump();
  std::printf("JSON %s\n", json.c_str());

  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    std::printf("wrote %s\n", out_path);
  } else {
    std::printf("WARN: could not open %s for writing\n", out_path);
  }
  return 0;
}
