// bench_bitset_kernels — throughput of the dispatched bitset kernels
// (common/bitset_kernels) per CPU tier, and what the tiers buy the greedy
// optimizer end to end. The paper's P3 budget is a fixed 100 ms; faster
// popcount kernels convert directly into more refinement trials per screen
// (E1: quality is a function of trials in budget).
//
// Two measurements:
//   kernels — words/sec of each popcount kernel at several set densities,
//             per dispatch tier (scalar / avx2 / avx512 when supported);
//   greedy  — SelectNext refinement evaluations/sec per tier over the same
//             anchors, plus the byte-identity gate (the selections, exact
//             objective bits, and swap counts must agree across tiers).
//
// JSON sidecar (argv[1], default BENCH_bitset_kernels.json) records both;
// exit status enforces the acceptance gate (>= 2x somewhere real +
// byte-identical greedy).

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/bitset.h"
#include "common/bitset_kernels.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/greedy.h"
#include "server/json.h"

using namespace vexus;
using namespace vexus::bench;

namespace bk = vexus::bitset_kernels;

namespace {

std::vector<uint64_t> RandomWords(Rng* rng, size_t n, double density) {
  std::vector<uint64_t> w(n, 0);
  for (size_t i = 0; i < n; ++i) {
    for (int b = 0; b < 64; ++b) {
      if (rng->Bernoulli(density)) w[i] |= uint64_t{1} << b;
    }
  }
  return w;
}

/// Supported tiers, scalar first (the speedup baseline).
std::vector<bk::Level> SupportedLevels() {
  std::vector<bk::Level> levels;
  for (bk::Level l :
       {bk::Level::kScalar, bk::Level::kAvx2, bk::Level::kAvx512}) {
    if (bk::LevelSupported(l)) levels.push_back(l);
  }
  return levels;
}

/// One kernel micro-measurement: repeats `op` until ~`budget_ms` elapses
/// and returns billion words processed per second.
template <typename Op>
double MeasureGWps(size_t words_per_call, Op&& op, double budget_ms = 60) {
  // Warm-up pass so the lazy dispatch resolve and cache fills are off the
  // clock.
  op();
  Stopwatch watch;
  size_t calls = 0;
  do {
    op();
    ++calls;
  } while (watch.ElapsedMillis() < budget_ms);
  double secs = watch.ElapsedSeconds();
  return static_cast<double>(calls) * static_cast<double>(words_per_call) /
         secs / 1e9;
}

// Sink defeating dead-code elimination of the measured kernels.
volatile uint64_t g_sink = 0;

struct KernelRow {
  std::string op;
  double density;
  // gwords/sec per tier, indexed like SupportedLevels().
  std::vector<double> gwps;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_bitset_kernels.json";

  Banner("bench_bitset_kernels",
         "SIMD popcount kernels buy more greedy refinement trials inside "
         "the 100 ms budget");

  const std::vector<bk::Level> levels = SupportedLevels();
  std::printf("dispatch tiers:");
  for (bk::Level l : levels) std::printf(" %s", bk::LevelName(l));
  std::printf("  (resolved default: %s)\n\n", bk::LevelName(bk::ActiveLevel()));

  // ---- 1. Kernel throughput per tier. ----
  // 16384 words = 1M-user universe at one bit per user; L2-resident so the
  // comparison is compute-bound, like the hot greedy loops over cached
  // prefix/suffix unions.
  const size_t kWords = 16384;
  Rng rng(4242);
  const std::vector<double> densities = {0.01, 0.125, 0.5};
  std::vector<KernelRow> rows;
  double max_kernel_speedup = 0;
  std::string max_kernel_desc;

  for (double density : densities) {
    auto a = RandomWords(&rng, kWords, density);
    auto b = RandomWords(&rng, kWords, density);
    auto c = RandomWords(&rng, kWords, density);
    std::vector<uint64_t> out(kWords);

    struct OpDef {
      const char* name;
      std::function<void()> fn;
    };
    const std::vector<OpDef> ops = {
        {"count", [&] { g_sink = g_sink + bk::Count(a.data(), kWords); }},
        {"and_count",
         [&] { g_sink = g_sink + bk::AndCount(a.data(), b.data(), kWords); }},
        {"andnot_count",
         [&] { g_sink = g_sink + bk::AndNotCount(a.data(), b.data(), kWords); }},
        {"and_andnot_count",
         [&] {
           g_sink = g_sink + bk::AndAndNotCount(a.data(), b.data(), c.data(), kWords);
         }},
        {"or_count_into",
         [&] {
           g_sink = g_sink + bk::OrCountInto(a.data(), b.data(), out.data(), kWords);
         }},
        {"or_and_count_into", [&] {
           g_sink = g_sink + bk::OrAndCountInto(a.data(), b.data(), c.data(),
                                        out.data(), kWords);
         }}};

    for (const OpDef& op : ops) {
      KernelRow row;
      row.op = op.name;
      row.density = density;
      for (bk::Level level : levels) {
        bk::internal::SetLevelForTesting(level);
        row.gwps.push_back(MeasureGWps(kWords, op.fn));
      }
      bk::internal::ResetLevelForTesting();
      rows.push_back(row);
    }
  }

  std::printf("kernel throughput, 16384-word operands (Gwords/sec)\n");
  {
    std::vector<std::string> head = {"op", "density"};
    for (bk::Level l : levels) head.push_back(bk::LevelName(l));
    head.push_back("best/scalar");
    PrintRow(head, 18);
  }
  for (const KernelRow& row : rows) {
    double best = row.gwps[0];
    for (double v : row.gwps) best = std::max(best, v);
    double speedup = row.gwps[0] > 0 ? best / row.gwps[0] : 0;
    if (speedup > max_kernel_speedup) {
      max_kernel_speedup = speedup;
      max_kernel_desc =
          row.op + " @ density " + Fmt(row.density, 3);
    }
    std::vector<std::string> cells = {row.op, Fmt(row.density, 3)};
    for (double v : row.gwps) cells.push_back(Fmt(v, 2));
    cells.push_back(Fmt(speedup, 2) + "x");
    PrintRow(cells, 18);
  }
  std::printf("max kernel speedup vs scalar: %.2fx (%s)\n\n",
              max_kernel_speedup, max_kernel_desc.c_str());

  // ---- 2. Greedy end-to-end per tier + byte-identity gate. ----
  core::VexusEngine engine = BxEngine(60000, 0.001);
  std::printf("%s\n\n", engine.Summary().c_str());
  core::GreedySelector selector(&engine.groups(), &engine.index());
  auto session = engine.CreateSession({});
  core::FeedbackVector feedback(&session->tokens());

  Rng arng(13);
  std::vector<mining::GroupId> anchors;
  while (anchors.size() < 12) {
    mining::GroupId g =
        arng.UniformU32(static_cast<uint32_t>(engine.groups().size()));
    if (engine.groups().group(g).size() >= 150 &&
        engine.index().Neighbors(g).size() >= 40) {
      anchors.push_back(g);
    }
  }

  core::GreedyOptions opt;
  opt.k = 7;
  opt.min_similarity = 0.01;
  opt.time_limit_ms = core::GreedyOptions::kUnboundedTimeLimit;

  struct GreedyRun {
    bk::Level level;
    double evals_per_sec = 0;
    std::vector<std::vector<mining::GroupId>> selections;
    std::vector<double> objectives;
    std::vector<size_t> swaps;
  };
  std::vector<GreedyRun> greedy_runs;
  for (bk::Level level : levels) {
    bk::internal::SetLevelForTesting(level);
    GreedyRun run;
    run.level = level;
    double total_evals = 0, total_refine_ms = 0;
    for (mining::GroupId a : anchors) {
      auto sel = selector.SelectNext(a, feedback, opt);
      total_evals += static_cast<double>(sel.evaluations);
      for (double ms : sel.pass_millis) total_refine_ms += ms;
      run.selections.push_back(sel.groups);
      run.objectives.push_back(sel.quality.objective);
      run.swaps.push_back(sel.swaps);
    }
    run.evals_per_sec =
        total_refine_ms > 0 ? total_evals / (total_refine_ms / 1e3) : 0;
    greedy_runs.push_back(std::move(run));
  }
  bk::internal::ResetLevelForTesting();

  bool greedy_identical = true;
  for (size_t i = 1; i < greedy_runs.size(); ++i) {
    if (greedy_runs[i].selections != greedy_runs[0].selections ||
        greedy_runs[i].objectives != greedy_runs[0].objectives ||
        greedy_runs[i].swaps != greedy_runs[0].swaps) {
      greedy_identical = false;
      std::printf("BYTE-IDENTITY VIOLATION: %s differs from %s\n",
                  bk::LevelName(greedy_runs[i].level),
                  bk::LevelName(greedy_runs[0].level));
    }
  }

  std::printf("greedy refinement (unbounded, k=7, %zu anchors)\n",
              anchors.size());
  PrintRow({"tier", "evals/sec", "vs scalar"});
  double greedy_speedup = 0;
  for (const GreedyRun& run : greedy_runs) {
    double rel = greedy_runs[0].evals_per_sec > 0
                     ? run.evals_per_sec / greedy_runs[0].evals_per_sec
                     : 0;
    greedy_speedup = std::max(greedy_speedup, rel);
    PrintRow({bk::LevelName(run.level), Fmt(run.evals_per_sec, 0),
              Fmt(rel, 2) + "x"});
  }
  std::printf("byte-identical selections across tiers: %s\n\n",
              greedy_identical ? "yes" : "NO");

  // ---- JSON sidecar. ----
  server::json::Object top;
  top.emplace_back("bench", server::json::Value("bitset_kernels"));
  server::json::Object cfg;
  cfg.emplace_back("kernel_words", server::json::Value(uint64_t{kWords}));
  cfg.emplace_back("greedy_users", server::json::Value(uint64_t{60000}));
  cfg.emplace_back("greedy_anchors",
                   server::json::Value(uint64_t{anchors.size()}));
  server::json::Array tier_names;
  for (bk::Level l : levels) {
    tier_names.emplace_back(std::string(bk::LevelName(l)));
  }
  cfg.emplace_back("tiers", server::json::Value(std::move(tier_names)));
  top.emplace_back("config", server::json::Value(std::move(cfg)));

  server::json::Array kernel_rows;
  for (const KernelRow& row : rows) {
    server::json::Object rj;
    rj.emplace_back("op", server::json::Value(row.op));
    rj.emplace_back("density", server::json::Value(row.density));
    for (size_t i = 0; i < levels.size(); ++i) {
      rj.emplace_back(std::string(bk::LevelName(levels[i])) + "_gwords_per_sec",
                      server::json::Value(row.gwps[i]));
    }
    double best = row.gwps[0];
    for (double v : row.gwps) best = std::max(best, v);
    rj.emplace_back("speedup_vs_scalar",
                    server::json::Value(row.gwps[0] > 0 ? best / row.gwps[0]
                                                        : 0.0));
    kernel_rows.emplace_back(server::json::Value(std::move(rj)));
  }
  top.emplace_back("kernels", server::json::Value(std::move(kernel_rows)));
  top.emplace_back("max_kernel_speedup",
                   server::json::Value(max_kernel_speedup));

  server::json::Object gj;
  for (const GreedyRun& run : greedy_runs) {
    gj.emplace_back(std::string(bk::LevelName(run.level)) + "_evals_per_sec",
                    server::json::Value(run.evals_per_sec));
  }
  gj.emplace_back("speedup_vs_scalar", server::json::Value(greedy_speedup));
  gj.emplace_back("byte_identical", server::json::Value(greedy_identical));
  top.emplace_back("greedy", server::json::Value(std::move(gj)));

  std::ofstream sidecar(json_path);
  sidecar << server::json::Value(std::move(top)).Dump() << "\n";
  sidecar.close();
  std::printf("wrote %s\n", json_path.c_str());

  const bool gate = greedy_identical &&
                    (max_kernel_speedup >= 2.0 || greedy_speedup >= 2.0);
  return gate ? 0 : 1;
}
