// A1 — ablations of the design choices DESIGN.md calls out:
//   D2 — anytime deadline (covered in depth by E1; summarized here),
//   D3 — feedback-weighted similarity (covered by E4; summarized here),
//   D4 — k, the number of groups shown (paper fixes k ≤ 7, Miller's law),
//   D-quota — the refinement quota on each screen (drill-down mix).

#include "bench_util.h"
#include "common/random.h"
#include "common/stopwatch.h"
#include "core/simulated_explorer.h"

using namespace vexus;
using namespace vexus::bench;

namespace {

/// Mean iterations for the MT task at a given k / quota setting.
void RunMtAblation(const char* label, size_t k, double quota) {
  Series iters, success;
  for (uint64_t seed : {7ull, 21ull, 99ull}) {
    core::VexusEngine engine = DbEngine(2000, 0.02, seed);
    const auto& ds = engine.dataset();
    auto topic = *ds.schema().Find("topic");
    auto dm = ds.schema().attribute(topic).values().Find("data management");
    if (!dm.has_value()) continue;
    Bitset targets = ds.users().UsersWithValue(topic, *dm);

    core::SessionOptions sopt;
    sopt.greedy.k = k;
    sopt.greedy.time_limit_ms = 100;
    sopt.greedy.refinement_quota = quota;
    auto session = engine.CreateSession(sopt);

    core::SimulatedExplorer::Options eopt;
    eopt.max_iterations = 40;
    eopt.mt_quota = 20;             // a sizable committee
    eopt.mt_inspectable_size = 80;  // only small groups are inspectable
    core::SimulatedExplorer explorer(eopt);
    auto outcome = explorer.RunMultiTarget(session.get(), targets);
    iters.Add(static_cast<double>(outcome.iterations));
    success.Add(outcome.reached_goal ? 1 : 0);
  }
  PrintRow({label, FmtInt(k), Fmt(quota, 2), Fmt(iters.Mean(), 1),
            Fmt(success.Mean() * 100, 0) + "%"});
}

}  // namespace

int main() {
  Banner("A1 bench_ablations",
         "design-choice ablations: k (D4), refinement quota");

  // ---- D4: k sweep (P1 limited options vs task efficiency). ----
  std::printf("[D4: groups shown per step — paper fixes k <= 7]\n");
  PrintRow({"setting", "k", "quota", "mean_iters", "success"});
  for (size_t k : {1u, 3u, 5u, 7u, 10u, 15u}) {
    RunMtAblation("k-sweep", k, 0.5);
  }

  // ---- D-quota: refinement quota sweep. ----
  std::printf("\n[D-quota: refinement slots per screen]\n");
  PrintRow({"setting", "k", "quota", "mean_iters", "success"});
  for (double q : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    RunMtAblation("quota-sweep", 5, q);
  }

  // ---- D3: feedback-weighted similarity on the ST task. ----
  // The paper positions feedback as what "distinguishes an interactive
  // process from a random walk". The isolating configuration is a
  // *memoryless* explorer (pure max-similarity clicks): without feedback
  // its screens never change and it cycles; with feedback the weighted
  // similarity gradually shifts the recommendations until the target
  // region surfaces. (A memoryful explorer breaks cycles by itself, which
  // is why feedback looks neutral on the MT harvesting task of E4.)
  std::printf("\n[D3: feedback personalization, memoryless ST explorer]\n");
  PrintRow({"explorer", "feedback", "sessions", "mean_quality",
            "success"});
  for (bool memoryless : {true, false}) {
    for (bool fb : {true, false}) {
      Series quality, success;
      for (uint64_t seed : {42ull, 43ull, 44ull}) {
        core::VexusEngine engine = BxEngine(800, 0.02, seed);
        const auto& ds = engine.dataset();
        auto fav = *ds.schema().Find("favorite_genre");
        for (data::ValueId v = 0;
             v < ds.schema().attribute(fav).values().size(); ++v) {
          Bitset target = ds.users().UsersWithValue(fav, v);
          if (target.Count() < 30) continue;
          core::SessionOptions sopt;
          if (!fb) {
            sopt.greedy.feedback_weight = 0;
            sopt.learning_rate = 1e-12;
          }
          auto session = engine.CreateSession(sopt);
          core::SimulatedExplorer::Options eopt;
          eopt.max_iterations = 25;
          eopt.st_success_similarity = 0.5;
          eopt.memoryless = memoryless;
          core::SimulatedExplorer explorer(eopt);
          auto outcome = explorer.RunSingleTarget(session.get(), target);
          quality.Add(outcome.goal_quality);
          success.Add(outcome.reached_goal ? 1 : 0);
        }
      }
      PrintRow({memoryless ? "memoryless" : "memoryful", fb ? "on" : "off",
                FmtInt(quality.values.size()), Fmt(quality.Mean()),
                Fmt(success.Mean() * 100, 0) + "%"});
    }
  }

  std::printf(
      "\nshape check: k≈5–7 is the sweet spot (tiny k starves choice, large "
      "k bloats screens without helping); a moderate refinement quota beats "
      "none.\n");
  return 0;
}
