// Simulated explorers — the experiment drivers substituting the paper's
// human explorers (DESIGN.md §1).
//
// Two task shapes from §III:
//   * MT (multi-target) — "identify several users of interest while
//     exploring user groups", e.g. the PC chair collecting a gender/
//     geography-balanced committee (Scenario 1, experiment E4). The policy
//     clicks the shown group with the most still-needed target users,
//     bookmarks targets encountered in small-enough groups, and backtracks
//     when a step yields nothing.
//   * ST (single-target) — "reach a single group of interest" (Scenario 2,
//     experiment E5). The policy clicks the shown group most similar to the
//     hidden target group and stops on near-identity.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bitset.h"
#include "core/session.h"
#include "mining/group.h"

namespace vexus::core {

/// Outcome of a simulated session.
struct ExplorationOutcome {
  size_t iterations = 0;      // SelectGroup calls
  size_t backtracks = 0;
  bool reached_goal = false;
  /// MT: fraction of targets collected in MEMO. ST: Jaccard of the final
  /// group to the hidden target.
  double goal_quality = 0;
  double total_latency_ms = 0;  // sum of recommendation latencies
  std::vector<mining::GroupId> final_groups;  // last shown screen
};

class SimulatedExplorer {
 public:
  struct Options {
    size_t max_iterations = 30;
    /// MT: stop after collecting this many target users (0 = all of them).
    size_t mt_quota = 0;
    /// MT: a target member is "found" (bookmarkable) when it appears in a
    /// shown group of at most this size — the drill-down-to-inspectable
    /// granularity of the paper's STATS/Focus workflow.
    size_t mt_inspectable_size = 50;
    /// ST: stop when the clicked group reaches this Jaccard to the target.
    double st_success_similarity = 0.8;
    /// ST: disable the explorer's own visited-set memory. A memoryless
    /// max-similarity policy cycles among the same large groups unless the
    /// *system's* feedback learning shifts the screens — this is the
    /// configuration that isolates feedback's contribution (ablation D3;
    /// the paper's "distinguish an interactive process from a random
    /// walk").
    bool memoryless = false;
  };

  explicit SimulatedExplorer(Options options) : options_(options) {}

  /// Runs an MT session: collect the users of `targets` (a bitset over the
  /// universe). The session must be fresh (Start() is called here).
  ExplorationOutcome RunMultiTarget(ExplorationSession* session,
                                    const Bitset& targets) const;

  /// Runs an ST session toward a hidden target member set.
  ExplorationOutcome RunSingleTarget(ExplorationSession* session,
                                     const Bitset& target_members) const;

 private:
  Options options_;
};

}  // namespace vexus::core
