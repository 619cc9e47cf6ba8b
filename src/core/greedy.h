// Anytime greedy k-group selection — the recommendation step behind GROUPVIZ.
//
// Paper §II.B: "VEXUS decides which k groups (… P1) to explore next for g
// based on implicit feedback so far … We use a best-effort greedy approach
// to return a local diverse and covering set of k groups with a lower-bound
// on similarity. … the bottleneck of the framework is the greedy process.
// To comply with the efficiency principle P3, we set a time limit … safely
// set to 100ms (continuity preserving latency) which enables VEXUS to reach
// in average 90% of diversity and 85% of coverage."
//
// Algorithm: candidates are the anchor's materialized index neighbors with
// similarity ≥ σ (the lower bound). The selection is seeded with the top-k
// candidates by feedback-weighted similarity × group prior, then refined by
// best-improving swaps on the objective
//     λ·coverage(S|anchor) + (1−λ)·diversity(S) + μ·affinity(S)
// until the deadline expires or a local optimum is reached. Every data
// structure the loop touches is O(k²) or O(k·|candidates|).
//
// The deadline bounds the whole run, seed included. The anchored seed
// computes every candidate's affinity, then its priors in descending-affinity
// order, and stops at the deadline once min(k, |candidates|) priors are in;
// an unscored candidate seeds with prior 1, the prior's exact lower bound.
// A run with time to score every prior computes exactly the values an
// unbounded run does. A refine pass either completes or changes nothing, so
// a screen is a pure function of the pre-step state, the options,
// `seed_scored` and `swaps` (DESIGN.md §9.3; E1 sweeps the budget). A
// WorkRecord carries that work from a cut run to the next run on the same
// state, which continues where the cut stopped (core/screen_memo.h).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "common/stopwatch.h"
#include "core/feedback.h"
#include "core/quality.h"
#include "index/inverted_index.h"
#include "mining/group.h"

namespace vexus {
class TraceSpan;
}  // namespace vexus

namespace vexus::core {

/// Multi-box scatter hook (DESIGN.md §16): one pass's admissible trials go
/// out to S shard backends, each of which answers integer coverage partials
/// over its own user range. The greedy stays transport-agnostic — the
/// serving layer injects an implementation (server/gather.h) that owns
/// connections, retries, hedging, and circuit breakers; core sees only the
/// fold contract below.
class RemoteTrialScatterer {
 public:
  struct Outcome {
    /// Per-shard: nonzero when the shard answered this lap (possibly after
    /// retry/hedge) with a generation-matched partial vector. One byte per
    /// shard, not vector<bool>: pool threads set their own shard's flag
    /// concurrently, and packed bits would race on the shared word.
    std::vector<uint8_t> shard_ok;
    /// partials[s][t] = shard s's newly-covered count for trial t. Sized
    /// |trials| for ok shards; unspecified for failed ones.
    std::vector<std::vector<uint32_t>> partials;
    /// Fraction of the user universe the ok shards own, in [0, 1]. 1.0
    /// when every shard answered — then the folded integer sums equal the
    /// single-process counts exactly.
    double covered_fraction = 0;
  };
  virtual ~RemoteTrialScatterer() = default;
  /// Scatters one pass. `selection` holds group ids in slot order; `trials`
  /// holds flat (candidate group id, slot) pairs. Must return within
  /// `deadline` (bounded retries inside — never hang the greedy).
  virtual Outcome Scatter(std::optional<uint32_t> anchor,
                          const std::vector<uint32_t>& selection,
                          const std::vector<uint32_t>& trials,
                          const Deadline& deadline) = 0;
};

struct GreedyOptions {
  /// Groups shown per step; the paper caps at 7 (Miller's law, P1).
  size_t k = 5;
  /// Coverage weight in the objective (1−lambda weighs diversity).
  double lambda = 0.5;
  /// Lower bound σ on (plain) similarity to the anchor (P2's relevance
  /// guard); candidates below it are not considered.
  double min_similarity = 0.05;
  /// The P3 time budget for the whole run — seed and refinement loop — in
  /// milliseconds. The first deadline check comes after the user weights,
  /// the affinity of every candidate and min(k, |candidates|) priors, so a
  /// run overshoots a small budget by that much work (EXPERIMENTS E1).
  ///
  /// Budget semantics match Deadline::AfterMillis everywhere: zero, negative
  /// or NaN budgets *expire immediately* (seed-only selection, deadline_hit
  /// set) — this is what lets the serving layer clamp a request's remaining
  /// deadline into this field without a sign check. Unbounded runs (the E1
  /// reference optimum) pass kUnboundedTimeLimit (+infinity).
  double time_limit_ms = 100.0;

  /// Sentinel for "no time limit" (see time_limit_ms).
  static constexpr double kUnboundedTimeLimit =
      std::numeric_limits<double>::infinity();
  /// μ: weight of the feedback-affinity term in the internal objective.
  double feedback_weight = 0.2;
  /// Fraction of the k slots reserved for *refinements* — strict subsets of
  /// the anchor. The paper's interaction narrative ("she immediately
  /// receives three subsets of that group") implies screens mix drill-down
  /// options with lateral moves; without the quota, large lateral/ancestor
  /// groups dominate the coverage objective and exploration cycles among
  /// the same few big groups (ablation A1/D-quota measures this). Values
  /// outside [0, 1] (and NaN, as 0) are clamped: at most k slots.
  double refinement_quota = 0.5;

  /// Optional multi-box scatterer (see RemoteTrialScatterer above). When
  /// set, the candidate scan of every refinement pass goes out to the
  /// remote shards instead of the local scan; the coordinator folds integer
  /// partials in shard order with the earliest-(cand, pos) argmax, so an
  /// all-healthy fleet selects byte-identically to the single-process run.
  /// Shards that miss the lap (open circuit, exhausted retries) are dropped
  /// from the fold — the pass scores trials over the surviving user ranges
  /// and GreedySelection::covered_fraction records the degradation. Not
  /// owned.
  RemoteTrialScatterer* remote_scatter = nullptr;

  /// Optional parent span for stage attribution (the serving layer points
  /// this at the request's root span). The selector opens `rank` around
  /// candidate-pool construction and `greedy` → {`seed`, `pass` ×N, with
  /// per-pass trial-evaluation counts} inside Run; an anchored `seed` has
  /// children {`weights`, `affinity`, `prior`, `setup`}, a first screen's
  /// only `setup` (DESIGN.md §10.1). Null (the default) means no tracing;
  /// the per-span overhead is then a single branch.
  const TraceSpan* trace = nullptr;
};

/// The work an anchored run did, in a form a later run on the same pool,
/// feedback and options continues from instead of redoing. Those runs
/// compute the same values in the same order, so a record is a prefix of
/// the unbounded run's work, and a run that resumes one ends where an
/// uninterrupted run with the same total work would (DESIGN.md §8.5).
struct WorkRecord {
  /// Every candidate's affinity, by pool position; empty before any run.
  std::vector<double> affinity;
  /// The priors scored so far, in the seed's descending-affinity order.
  std::vector<double> priors;
  /// Once every prior is in: the selection (pool positions, slot order)
  /// after `swaps` complete passes. Empty until then.
  std::vector<uint32_t> selected;
  size_t swaps = 0;
};

struct GreedySelection {
  std::vector<mining::GroupId> groups;
  /// Reported quality (diversity/coverage/λ-objective, no affinity term).
  QualityScore quality;
  /// Mean feedback-weighted similarity of the selection to the anchor.
  double weighted_affinity = 0;
  size_t candidates = 0;
  /// Refinement passes started, the deadline-cut one included.
  size_t passes = 0;
  /// Complete passes that applied a swap; with seed_scored, the work record
  /// that, given the same inputs, decides the screen. A resumed run counts
  /// the record's passes too.
  size_t swaps = 0;
  size_t evaluations = 0;
  /// True iff the run stopped *because of* the deadline: the seed stopped
  /// before scoring every prior (seed_truncated), or the refinement loop had
  /// not reached (or trivially started at) a local optimum when time ran
  /// out. The screen is then the seed plus `swaps` complete passes: a pass
  /// the deadline cut applied nothing. Converging and only then observing
  /// an expired clock does not set it.
  bool deadline_hit = false;
  /// True iff the deadline stopped the seed before every candidate's prior
  /// was computed; the unscored candidates seeded with prior 1.
  bool seed_truncated = false;
  /// True when the screen came from the engine's screen memo
  /// (core/screen_memo.h) instead of a greedy run: passes, swaps,
  /// evaluations, seed_scored and work are then 0, pass_millis is empty,
  /// and elapsed_ms is the lookup's own time.
  bool memoized = false;
  /// True when the run continued a WorkRecord instead of starting afresh:
  /// the weights and affinity phases did not run, and the seed scored only
  /// the priors the record lacked.
  bool resumed = false;
  /// Candidates the seed scored: the pool size, or at least min(k,
  /// candidates) when the seed was truncated. A resumed run counts the
  /// record's priors too.
  size_t seed_scored = 0;
  /// Minimum over passes of the user-universe fraction the folded shards
  /// covered (1.0 unless a remote scatter degraded; see
  /// GreedyOptions::remote_scatter). The serving layer answers
  /// degraded:"partial" when this dips below 1.
  double covered_fraction = 1.0;
  double elapsed_ms = 0;
  /// The work the run did, counted in the words and tokens it read: |U| for
  /// the user weights, ⌈|U|/64⌉ bitset words per candidate for the
  /// affinity and the refinement test and per trial evaluation, and the
  /// feedback's nonzero_count() per prior scored. A function of the inputs
  /// and of the work done, not of the clock: a converged run counts what an
  /// unbounded run on the same inputs counts, on any machine and under any
  /// load. A resumed run counts only its own work. The screen memo admits a
  /// converged local run by it (ScreenMemo::kAdmitWork). 0 for a memo hit.
  uint64_t work = 0;
  /// Wall-clock of each refinement pass, the deadline-cut one included, in
  /// order. Surfaced so the serving layer can attribute the anytime budget
  /// to passes (pass 1 dominates: it fills the sim rows).
  std::vector<double> pass_millis;
};

/// Candidates of the first screen (no anchor), where every group is one:
/// the largest groups are kept (RankPoolBySize).
inline constexpr size_t kInitialCandidateCap = 512;

/// Ranks `pool` in place by log1p(size) (descending; ties by GroupId
/// ascending) and truncates it to `cap`; pools already within the cap are
/// left untouched. Correct for ANY pool permutation — the ranking sorts
/// positions, never indexes scores by GroupId value. SelectInitial uses
/// this for kInitialCandidateCap.
void RankPoolBySize(const mining::GroupStore& store, size_t cap,
                    std::vector<mining::GroupId>* pool);

class GreedySelector {
 public:
  GreedySelector(const mining::GroupStore* store,
                 const index::InvertedIndex* index);

  /// k groups to show after the explorer clicked `anchor`, continuing from
  /// `*record` (empty for a fresh run), which must come from runs on this
  /// anchor, feedback and options; a record whose sizes do not fit the pool
  /// is discarded. On return `*record` holds the work done so far, this
  /// run's included. A null `record` runs afresh and keeps nothing.
  GreedySelection SelectNext(mining::GroupId anchor,
                             const FeedbackVector& feedback,
                             const GreedyOptions& options,
                             WorkRecord* record = nullptr) const;

  /// k groups for the first screen (no anchor; coverage over the universe).
  /// The first screen comes before any click, so `feedback` must be empty
  /// (checked): the seed ranks the kInitialCandidateCap largest groups by
  /// size.
  GreedySelection SelectInitial(const FeedbackVector& feedback,
                                const GreedyOptions& options) const;

 private:
  /// `record` is null for the first screen, which keeps none.
  GreedySelection Run(std::vector<mining::GroupId> pool,
                      std::optional<mining::GroupId> anchor,
                      const FeedbackVector& feedback,
                      const GreedyOptions& options, WorkRecord* record) const;

  const mining::GroupStore* store_;
  const index::InvertedIndex* index_;
};

}  // namespace vexus::core
