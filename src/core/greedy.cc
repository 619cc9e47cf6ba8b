#include "core/greedy.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/greedy_eval.h"
#include "index/similarity.h"

namespace vexus::core {

using mining::GroupId;
using mining::GroupStore;

GreedySelector::GreedySelector(const GroupStore* store,
                               const index::InvertedIndex* index)
    : store_(store), index_(index) {
  VEXUS_CHECK(store != nullptr && index != nullptr);
}

namespace {

/// Minimum improvement for a swap to count (guards float-noise cycling).
constexpr double kMinGain = 1e-12;

/// Trial evaluations between deadline checks during the candidate scan.
constexpr size_t kDeadlineCheckInterval = 16;

/// Best trial a pass found. `gain` starts at the improvement threshold, so
/// `cand == SIZE_MAX` means "nothing above it".
struct ScanBest {
  double gain = kMinGain;
  size_t cand = SIZE_MAX;
  size_t pos = SIZE_MAX;
  size_t evaluations = 0;
  /// False when the deadline cut the scan before every trial was scored;
  /// Run then discards the pass, whatever it found.
  bool complete = true;
};

/// Scans every candidate × position once, in ascending (cand, pos) order;
/// strict `>` keeps the earliest argmax. The deadline is rechecked every
/// kDeadlineCheckInterval trials, counted across candidate boundaries, so
/// neither one candidate's k-trial sweep nor a run of short sweeps can blow
/// the 100 ms budget.
ScanBest ScanRange(const SwapObjective& eval,
                   const std::vector<size_t>& selected,
                   const std::vector<bool>& in_selection,
                   const std::vector<bool>& is_refinement,
                   size_t refinement_count, size_t quota,
                   const Deadline& deadline) {
  ScanBest best;
  const double current = eval.Current();
  size_t since_check = 0;
  for (size_t cand = 0; cand < in_selection.size(); ++cand) {
    if (in_selection[cand]) continue;
    for (size_t pos = 0; pos < selected.size(); ++pos) {
      // The swap must keep the refinement quota satisfied.
      size_t after = refinement_count -
                     (is_refinement[selected[pos]] ? 1 : 0) +
                     (is_refinement[cand] ? 1 : 0);
      if (after < quota) continue;
      double v = eval.Trial(pos, cand);
      ++best.evaluations;
      if (v - current > best.gain) {
        best.gain = v - current;
        best.cand = cand;
        best.pos = pos;
      }
      if (++since_check >= kDeadlineCheckInterval) {
        since_check = 0;
        if (deadline.Expired()) {
          best.complete = false;
          return best;
        }
      }
    }
  }
  return best;
}

/// Remote scatter-gather pass scan (DESIGN.md §16): the same admissible
/// trials in the same ascending (cand, pos) order and earliest argmax as
/// ScanRange, but each trial's newly-covered count is the shard-order sum
/// of integer partials that shard backends return through the injected
/// RemoteTrialScatterer. Shards the scatterer could not reach are dropped
/// from the fold — every trial is then scored over the surviving user
/// ranges (still deterministic given which shards answered), and
/// `covered_fraction` reports the degradation. When *no* shard answered,
/// the pass is incomplete, like a deadline-cut scan.
ScanBest RemoteScan(const SwapObjective& eval, RemoteTrialScatterer* remote,
                    const std::vector<GroupId>& pool,
                    std::optional<GroupId> anchor,
                    const std::vector<size_t>& selected,
                    const std::vector<bool>& in_selection,
                    const std::vector<bool>& is_refinement,
                    size_t refinement_count, size_t quota,
                    const Deadline& deadline, double* covered_fraction) {
  std::vector<std::pair<uint32_t, uint32_t>> trials;  // (cand, pos), pool ix
  trials.reserve(pool.size() * selected.size());
  for (size_t cand = 0; cand < pool.size(); ++cand) {
    if (in_selection[cand]) continue;
    for (size_t pos = 0; pos < selected.size(); ++pos) {
      size_t after = refinement_count -
                     (is_refinement[selected[pos]] ? 1 : 0) +
                     (is_refinement[cand] ? 1 : 0);
      if (after < quota) continue;
      trials.emplace_back(static_cast<uint32_t>(cand),
                          static_cast<uint32_t>(pos));
    }
  }
  ScanBest best;
  if (trials.empty()) return best;

  // Wire form: group ids, not pool positions — backends hold a slice store
  // with the same id space but know nothing of this run's candidate pool.
  std::vector<uint32_t> selection_gids;
  selection_gids.reserve(selected.size());
  for (size_t i : selected) {
    selection_gids.push_back(static_cast<uint32_t>(pool[i]));
  }
  std::vector<uint32_t> wire;
  wire.reserve(trials.size() * 2);
  for (const auto& t : trials) {
    wire.push_back(static_cast<uint32_t>(pool[t.first]));
    wire.push_back(t.second);
  }

  RemoteTrialScatterer::Outcome outcome = remote->Scatter(
      anchor.has_value() ? std::optional<uint32_t>(*anchor) : std::nullopt,
      selection_gids, wire, deadline);
  *covered_fraction = std::min(*covered_fraction, outcome.covered_fraction);

  std::vector<size_t> ok_shards;
  for (size_t s = 0; s < outcome.shard_ok.size(); ++s) {
    if (outcome.shard_ok[s] && s < outcome.partials.size() &&
        outcome.partials[s].size() == trials.size()) {
      ok_shards.push_back(s);
    }
  }
  if (ok_shards.empty()) {
    best.complete = false;
    return best;
  }

  const double current = eval.Current();
  for (size_t t = 0; t < trials.size(); ++t) {
    size_t newly = 0;
    for (size_t s : ok_shards) newly += outcome.partials[s][t];
    double v = eval.TrialFromCovered(trials[t].second, trials[t].first, newly);
    ++best.evaluations;
    if (v - current > best.gain) {
      best.gain = v - current;
      best.cand = trials[t].first;
      best.pos = trials[t].second;
    }
  }
  return best;
}

/// Whether `record` can describe a run over a pool of `pool_size` at `k`.
bool FitsPool(const WorkRecord& record, size_t pool_size, size_t k) {
  if (record.affinity.empty()) {
    return record.priors.empty() && record.selected.empty();
  }
  if (record.affinity.size() != pool_size || record.priors.size() > pool_size) {
    return false;
  }
  if (record.selected.empty()) return true;
  return record.priors.size() == pool_size &&
         record.selected.size() == std::min(k, pool_size) &&
         std::all_of(record.selected.begin(), record.selected.end(),
                     [&](uint32_t i) { return i < pool_size; });
}

}  // namespace

void RankPoolByPrior(const GroupStore& store, const FeedbackVector& feedback,
                     size_t cap, std::vector<GroupId>* pool) {
  VEXUS_CHECK(pool != nullptr);
  if (pool->size() <= cap) return;
  // Score by position (NOT by GroupId): the pool may be any permutation or
  // subset of the store; indexing scores by id value silently corrupted the
  // ranking the moment the pool stopped being the identity permutation.
  std::vector<double> score(pool->size());
  for (size_t i = 0; i < pool->size(); ++i) {
    const mining::UserGroup& g = store.group((*pool)[i]);
    score[i] =
        feedback.GroupPrior(g) * std::log1p(static_cast<double>(g.size()));
  }
  std::vector<size_t> order(pool->size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (score[a] != score[b]) return score[a] > score[b];
    return (*pool)[a] < (*pool)[b];
  });
  std::vector<GroupId> ranked;
  ranked.reserve(cap);
  for (size_t r = 0; r < cap; ++r) ranked.push_back((*pool)[order[r]]);
  *pool = std::move(ranked);
}

GreedySelection GreedySelector::SelectNext(GroupId anchor,
                                           const FeedbackVector& feedback,
                                           const GreedyOptions& options) const {
  return SelectNext(anchor, feedback, options, nullptr);
}

GreedySelection GreedySelector::SelectNext(GroupId anchor,
                                           const FeedbackVector& feedback,
                                           const GreedyOptions& options,
                                           WorkRecord* record) const {
  TraceSpan rank =
      options.trace != nullptr ? options.trace->Child("rank") : TraceSpan();
  std::vector<GroupId> pool;
  for (const index::Neighbor& nb : index_->Neighbors(anchor)) {
    if (nb.similarity >= options.min_similarity) pool.push_back(nb.group);
  }
  rank.AddCount(pool.size());
  rank.Close();
  return Run(std::move(pool), anchor, feedback, options, record);
}

GreedySelection GreedySelector::SelectInitial(
    const FeedbackVector& feedback, const GreedyOptions& options) const {
  TraceSpan rank =
      options.trace != nullptr ? options.trace->Child("rank") : TraceSpan();
  std::vector<GroupId> pool(store_->size());
  std::iota(pool.begin(), pool.end(), GroupId{0});
  RankPoolByPrior(*store_, feedback, options.initial_candidate_cap, &pool);
  rank.AddCount(pool.size());
  rank.Close();
  return Run(std::move(pool), std::nullopt, feedback, options, nullptr);
}

GreedySelection GreedySelector::Run(std::vector<GroupId> pool,
                                    std::optional<GroupId> anchor,
                                    const FeedbackVector& feedback,
                                    const GreedyOptions& options,
                                    WorkRecord* record) const {
  VEXUS_CHECK(options.k >= 1);
  Stopwatch watch;
  // AfterMillis owns the budget clamping: <= 0 / NaN expire immediately,
  // +infinity (kUnboundedTimeLimit) never expires. Keeping the policy in one
  // place is what the serving layer's deadline propagation relies on.
  Deadline deadline = Deadline::AfterMillis(options.time_limit_ms);

  GreedySelection result;
  result.candidates = pool.size();
  // A record from another pool or k cannot be continued.
  if (record != nullptr && !FitsPool(*record, pool.size(), options.k)) {
    *record = WorkRecord{};
  }
  if (pool.empty()) {
    result.elapsed_ms = watch.ElapsedMillis();
    return result;
  }

  TraceSpan greedy =
      options.trace != nullptr ? options.trace->Child("greedy") : TraceSpan();
  TraceSpan seed_span = greedy.Child("seed");

  // ---- Seeding: feedback-weighted similarity to the anchor × prior. ----
  // `affinity` is the feedback term of the objective: the IUGA-style
  // weighted similarity to the anchor, under user weights boosted by the
  // feedback vector. Groups whose anchor-side overlap carries rewarded
  // users rank higher — this is what steers multi-step sessions toward the
  // explorer's interest (experiment E10).
  std::vector<double> seed_score(pool.size());
  std::vector<double> affinity(pool.size(), 0.0);
  const Bitset* anchor_members =
      anchor.has_value() ? &store_->group(*anchor).members() : nullptr;
  Stopwatch phase;
  if (anchor.has_value()) {
    // A resumed run takes the record's affinities, which an earlier run
    // computed from the same weights: the weights phase is their only use.
    result.resumed = record != nullptr && !record->affinity.empty();
    if (result.resumed) {
      affinity = std::move(record->affinity);  // handed back at the end
    } else {
      TraceSpan weights_span = seed_span.Child("weights");
      const std::vector<double> weights = feedback.UserWeights();
      weights_span.Close();
      result.seed_millis.weights = phase.ElapsedMillis();

      TraceSpan affinity_span = seed_span.Child("affinity");
      phase.Restart();
      for (size_t i = 0; i < pool.size(); ++i) {
        affinity[i] = index::WeightedJaccard(store_->group(pool[i]).members(),
                                             *anchor_members, weights);
      }
      affinity_span.AddCount(pool.size());
      affinity_span.Close();
      result.seed_millis.affinity = phase.ElapsedMillis();
    }

    // The objective's affinity term is the weighted similarity alone; the
    // prior (description-token channel) enters through *seeding*. Folding
    // the prior into the objective reinforces already-visited groups and
    // collapses exploration into a loop; both channels still react to
    // CONTEXT deletion (experiment E10) because rewarded users' weights
    // also carry the demographic tokens' spread mass.
    //
    // Priors are the seed's cost (one walk over the feedback map each), so
    // they are computed in descending-affinity order and stop at the
    // deadline once min(k, |pool|) are in. An unscored candidate takes
    // prior = 1, the prior's exact lower bound, so its seed score is its
    // affinity. With time to score them all, every value and the sort
    // below equal an unbounded run's. A resumed run starts after the
    // record's priors, which come first in the same order.
    TraceSpan prior_span = seed_span.Child("prior");
    phase.Restart();
    std::vector<size_t> visit(pool.size());
    std::iota(visit.begin(), visit.end(), size_t{0});
    std::sort(visit.begin(), visit.end(), [&](size_t a, size_t b) {
      if (affinity[a] != affinity[b]) return affinity[a] > affinity[b];
      return a < b;
    });
    const size_t must_score = std::min(options.k, pool.size());
    size_t r = 0;
    if (result.resumed) {
      for (; r < record->priors.size(); ++r) {
        seed_score[visit[r]] = affinity[visit[r]] * record->priors[r];
      }
    }
    const size_t recorded = r;
    for (; r < visit.size(); ++r) {
      if (r >= must_score && deadline.Expired()) break;
      // Chaos site: a fire expires the deadline here (after its sleep, if
      // any), so the seed stops at the next prior past min(k, |pool|).
      if (VEXUS_FAILPOINT_FIRES("greedy.seed")) deadline.Expire();
      const size_t i = visit[r];
      const double prior = feedback.GroupPrior(store_->group(pool[i]));
      seed_score[i] = affinity[i] * prior;
      if (record != nullptr) record->priors.push_back(prior);
    }
    result.seed_scored = r;
    result.seed_truncated = r < visit.size();
    for (; r < visit.size(); ++r) seed_score[visit[r]] = affinity[visit[r]];
    prior_span.AddCount(result.seed_scored - recorded);
    prior_span.Close();
    result.seed_millis.prior = phase.ElapsedMillis();
  } else {
    // The first screen: no anchor, so the prior ranks by size. Start()'s
    // feedback is empty, which makes every prior O(1).
    TraceSpan prior_span = seed_span.Child("prior");
    for (size_t i = 0; i < pool.size(); ++i) {
      const mining::UserGroup& g = store_->group(pool[i]);
      double prior = feedback.GroupPrior(g);
      affinity[i] = prior - 1.0;
      seed_score[i] = prior * std::log1p(static_cast<double>(g.size()));
    }
    result.seed_scored = pool.size();
    prior_span.AddCount(result.seed_scored);
    prior_span.Close();
    result.seed_millis.prior = phase.ElapsedMillis();
  }

  TraceSpan setup_span = seed_span.Child("setup");
  phase.Restart();
  std::vector<size_t> order(pool.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (seed_score[a] != seed_score[b]) return seed_score[a] > seed_score[b];
    return pool[a] < pool[b];
  });

  size_t k = std::min(options.k, pool.size());

  // Refinement quota: reserve slots for strict subsets of the anchor.
  std::vector<bool> is_refinement(pool.size(), false);
  size_t quota = 0;
  if (anchor.has_value() && options.refinement_quota > 0) {
    size_t total_refinements = 0;
    const mining::UserGroup& ag = store_->group(*anchor);
    for (size_t i = 0; i < pool.size(); ++i) {
      const mining::UserGroup& g = store_->group(pool[i]);
      is_refinement[i] =
          g.size() < ag.size() && g.members().IsSubsetOf(ag.members());
      total_refinements += is_refinement[i];
    }
    // Clamped before the cast: a fraction above 1 would reserve more slots
    // than k (and +inf makes the cast undefined).
    quota = std::min(total_refinements,
                     static_cast<size_t>(std::min(options.refinement_quota,
                                                  1.0) *
                                         static_cast<double>(k)));
  }

  // Seed: best `quota` refinements first, then best remaining of any kind.
  std::vector<size_t> selected;
  selected.reserve(k);
  if (quota > 0) {
    for (size_t i : order) {
      if (selected.size() >= quota) break;
      if (is_refinement[i]) selected.push_back(i);
    }
  }
  for (size_t i : order) {
    if (selected.size() >= k) break;
    if (std::find(selected.begin(), selected.end(), i) == selected.end()) {
      selected.push_back(i);
    }
  }
  // A record that holds every prior also holds the selection its complete
  // passes reached from this same seed: continue from there.
  if (result.resumed && !record->selected.empty()) {
    selected.assign(record->selected.begin(), record->selected.end());
    result.swaps = record->swaps;
  }

  index::PairwiseSimCache sims(store_, &pool);
  SwapObjective eval(store_, &pool, anchor_members, &affinity,
                     {options.lambda, options.feedback_weight}, &sims);
  eval.Reset(selected);
  ++result.evaluations;
  setup_span.Close();
  result.seed_millis.setup = phase.ElapsedMillis();
  seed_span.Close();

  // ---- Anytime best-improving swap loop. ----
  std::vector<bool> in_selection(pool.size(), false);
  for (size_t i : selected) in_selection[i] = true;

  // With every candidate already selected there is no swap to try: the
  // selection is trivially a local optimum, whatever the clock says.
  bool converged = selected.size() >= pool.size();

  while (!converged && !deadline.Expired()) {
    ++result.passes;
    // Chaos site: a fire expires the deadline here (after its sleep, if
    // any), so the scan stops at its first check and the pass applies
    // nothing: deadline_hit with the last complete pass's screen.
    if (VEXUS_FAILPOINT_FIRES("greedy.pass")) deadline.Expire();
    TraceSpan pass_span = greedy.Child("pass");
    Stopwatch pass_watch;
    size_t refinement_count = 0;
    for (size_t i : selected) refinement_count += is_refinement[i];

    const ScanBest best =
        options.remote_scatter != nullptr
            ? RemoteScan(eval, options.remote_scatter, pool, anchor, selected,
                         in_selection, is_refinement, refinement_count, quota,
                         deadline, &result.covered_fraction)
            : ScanRange(eval, selected, in_selection, is_refinement,
                        refinement_count, quota, deadline);
    result.evaluations += best.evaluations;
    pass_span.AddCount(best.evaluations);

    // A pass completes or changes nothing: a deadline-cut scan applies no
    // swap, so the clock never picks the screen (DESIGN.md §9.3).
    const bool apply = best.complete && best.cand != SIZE_MAX;
    if (apply) {
      in_selection[selected[best.pos]] = false;
      in_selection[best.cand] = true;
      selected[best.pos] = best.cand;
      eval.ApplySwap(best.pos, best.cand);
      ++result.swaps;
    }
    result.pass_millis.push_back(pass_watch.ElapsedMillis());
    if (!best.complete) break;
    converged = !apply;  // full scan, nothing improves: local optimum
  }
  result.deadline_hit = result.seed_truncated || !converged;
  greedy.AddCount(result.evaluations);
  greedy.Close();
  if (record != nullptr && !result.seed_truncated) {
    record->selected.assign(selected.begin(), selected.end());
    record->swaps = result.swaps;
  }

  // ---- Report. ----
  result.groups.reserve(selected.size());
  for (size_t i : selected) result.groups.push_back(pool[i]);
  std::sort(result.groups.begin(), result.groups.end());
  result.quality = Evaluate(*store_, result.groups, anchor, options.lambda);
  double aff = 0;
  for (size_t i : selected) aff += affinity[i];
  result.weighted_affinity =
      selected.empty() ? 0 : aff / static_cast<double>(selected.size());
  if (record != nullptr) record->affinity = std::move(affinity);
  result.elapsed_ms = watch.ElapsedMillis();
  return result;
}

}  // namespace vexus::core
