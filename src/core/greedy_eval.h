// SwapObjective — incremental (delta) evaluation of the greedy objective
//
//     f(S) = λ·coverage(S|anchor) + (1−λ)·diversity(S) + μ·affinity(S)
//
// for the anytime best-improving swap loop (paper §II.B: the greedy is "the
// bottleneck of the framework"; every cycle saved per trial swap buys more
// refinement passes inside the 100 ms continuity budget, hence higher
// coverage/diversity at the same deadline — experiment E1).
//
// The from-scratch evaluator costs O(k·U/64 + k²) per *trial*: it rebuilds
// the full coverage union over all users and re-sums the pairwise diversity
// term. This class makes a trial swap (replace S[pos] by candidate c) cost
//
//     one word-parallel bitset pass  (|c ∩ anchor ∩ ¬rest(pos)|)  +  O(1)
//
// by maintaining, per *pass* (i.e. once per applied swap, not per trial):
//
//   · rest(pos)        = anchor-masked union of the selection minus slot
//                        `pos`, built from prefix/suffix union tables in
//                        O(k·U/64) with Bitset::AssignUnion and
//                        the fused AssignUnion(Masked)Count (no
//                        temporaries);
//   · rest_count(pos)  = |rest(pos)| — the coverage a trial at `pos` keeps;
//   · simrow[c][j]     = Jaccard(c, S[j]) — a dense candidate×selected
//                        similarity row matrix filled through the memoized
//                        PairwiseSimCache (only columns whose selected
//                        member changed are refilled);
//   · candrow_total[c] = Σ_j simrow[c][j] and selrow_sum[pos], so the
//                        diversity delta of a trial is O(1) float math;
//   · aff_sum          = Σ affinity(S) for an O(1) affinity delta.
//
// Threading contract: Reset/ApplySwap mutate and must run on the owning
// thread; Trial() is a pure read of pass-frozen state.
//
// The from-scratch evaluator lives on only as a test oracle
// (tests/core/greedy_eval_test.cc): Current() and Trial() track it within
// 1e-9 over random swap sequences.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "index/similarity.h"
#include "mining/group.h"

namespace vexus::core {

class SwapObjective {
 public:
  struct Config {
    /// Coverage weight λ (1−λ weighs diversity).
    double lambda = 0.5;
    /// μ: weight of the feedback-affinity term.
    double feedback_weight = 0.2;
  };

  /// All pointers must outlive the evaluator. `anchor_members` is null for
  /// the initial screen (coverage over the whole universe). `affinity` is
  /// indexed by pool position. `sims` is shared with the caller so pair
  /// similarities memoized here are reusable (and vice versa).
  SwapObjective(const mining::GroupStore* store,
                const std::vector<mining::GroupId>* pool,
                const Bitset* anchor_members,
                const std::vector<double>* affinity, Config config,
                index::PairwiseSimCache* sims);

  /// Binds the evaluator to `selected` (pool positions) and (re)builds all
  /// per-pass structures. O(k·U/64 + |pool|·k) on first use; later calls
  /// only refill similarity columns whose member changed.
  void Reset(const std::vector<size_t>& selected);

  /// Objective of the currently bound selection.
  double Current() const { return current_; }

  /// Objective if selected[pos] were replaced by pool candidate `cand`
  /// (which must not be in the selection). Thread-safe between Reset /
  /// ApplySwap calls: touches only pass-frozen state.
  double Trial(size_t pos, size_t cand) const;

  /// The trial objective given an already-summed newly-covered count — the
  /// fold step of a remote scatter, whose shard backends return integer
  /// partials over their own user ranges (core/partial_eval.h). Trial(pos,
  /// cand) == TrialFromCovered(pos, cand, Σ_s partial_s) bit for bit: the
  /// count is an integer however the universe was partitioned.
  double TrialFromCovered(size_t pos, size_t cand,
                          size_t newly_covered) const;

  /// Applies the swap selected[pos] ← cand and rebuilds pass structures in
  /// O(k·U/64 + |pool|) — per *applied* swap, not per trial. Current() is
  /// recomputed from the rebuilt structures (no additive drift).
  void ApplySwap(size_t pos, size_t cand);

  const std::vector<size_t>& selected() const { return selected_; }

 private:
  void Rebuild();

  const mining::GroupStore* store_;
  const std::vector<mining::GroupId>* pool_;
  const Bitset* anchor_;  // null → universe coverage
  const std::vector<double>* affinity_;
  Config cfg_;
  index::PairwiseSimCache* sims_;

  double cov_denom_ = 0;
  std::vector<size_t> selected_;

  // ---- Pass-frozen state (rebuilt by Reset/ApplySwap, read by Trial). ----
  /// prefix_[i] = ∪ members(selected_[0..i)); suffix_[i] = ∪ members(
  /// selected_[i..k)). Scratch tables for building rest_.
  std::vector<Bitset> prefix_, suffix_;
  /// rest_[pos] = anchor-masked union of the selection without slot pos.
  std::vector<Bitset> rest_;
  std::vector<size_t> rest_count_;
  /// cand_anchor_[c] = members(pool[c]) ∩ anchor — built once per binding
  /// (first Reset) so a trial's coverage pass reads two operands, not
  /// three. Empty when anchor_ is null.
  std::vector<Bitset> cand_anchor_;
  /// simrow_[c * k + j] = Sim(pool c, selected_[j]).
  std::vector<float> simrow_;
  /// Which pool member currently owns simrow column j (SIZE_MAX = unfilled).
  std::vector<size_t> simrow_owner_;
  /// candrow_total_[c] = Σ_j simrow_[c*k + j].
  std::vector<double> candrow_total_;
  /// selrow_sum_[pos] = Σ_{j≠pos} Sim(S[pos], S[j]).
  std::vector<double> selrow_sum_;
  double sim_sum_ = 0;   // Σ_{i<j} Sim(S[i], S[j])
  double aff_sum_ = 0;   // Σ affinity(S)
  double current_ = 0;
};

}  // namespace vexus::core
