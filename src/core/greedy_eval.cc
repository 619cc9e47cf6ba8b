#include "core/greedy_eval.h"

#include "common/logging.h"

namespace vexus::core {

SwapObjective::SwapObjective(const mining::GroupStore* store,
                             const std::vector<mining::GroupId>* pool,
                             const Bitset* anchor_members,
                             const std::vector<double>* affinity,
                             Config config, index::PairwiseSimCache* sims)
    : store_(store),
      pool_(pool),
      anchor_(anchor_members),
      affinity_(affinity),
      cfg_(config),
      sims_(sims) {
  VEXUS_CHECK(store != nullptr && pool != nullptr && affinity != nullptr &&
              sims != nullptr);
  VEXUS_DCHECK(affinity->size() == pool->size());
  cov_denom_ = anchor_ != nullptr
                   ? static_cast<double>(anchor_->Count())
                   : static_cast<double>(store_->num_users());
}

void SwapObjective::Reset(const std::vector<size_t>& selected) {
  if (selected.size() != selected_.size()) {
    // k changed: the dense row matrix is keyed by column position.
    simrow_.assign(pool_->size() * selected.size(), 0.0f);
    simrow_owner_.assign(selected.size(), SIZE_MAX);
  }
  // Pre-mask every candidate by the anchor once per binding: a trial's
  // coverage pass then reads TWO bitsets (masked candidate, rest) instead
  // of three. The mask pays |pool| AND-passes up front and each candidate
  // is typically trialed k times per pass, so it amortizes within the
  // first pass. (Universe coverage needs no mask — CountAndNot already
  // reads just two operands.)
  if (anchor_ != nullptr && cand_anchor_.size() != pool_->size()) {
    cand_anchor_.resize(pool_->size());
    for (size_t c = 0; c < pool_->size(); ++c) {
      cand_anchor_[c] = store_->group((*pool_)[c]).members() & *anchor_;
    }
  }
  selected_ = selected;
  Rebuild();
}

void SwapObjective::ApplySwap(size_t pos, size_t cand) {
  VEXUS_DCHECK(pos < selected_.size());
  VEXUS_DCHECK(cand < pool_->size());
  selected_[pos] = cand;
  Rebuild();
}

void SwapObjective::Rebuild() {
  const size_t k = selected_.size();
  const size_t n_users = store_->num_users();
  auto members = [&](size_t pool_idx) -> const Bitset& {
    return store_->group((*pool_)[pool_idx]).members();
  };

  // ---- Coverage: prefix/suffix union tables → rest(pos). O(k·U/64). ----
  prefix_.resize(k + 1);
  suffix_.resize(k + 1);
  rest_.resize(k);
  rest_count_.resize(k);
  prefix_[0].Resize(n_users);
  prefix_[0].ClearAll();
  for (size_t i = 0; i < k; ++i) {
    prefix_[i + 1].AssignUnion(prefix_[i], members(selected_[i]));
  }
  suffix_[k].Resize(n_users);
  suffix_[k].ClearAll();
  for (size_t i = k; i-- > 0;) {
    suffix_[i].AssignUnion(suffix_[i + 1], members(selected_[i]));
  }
  for (size_t pos = 0; pos < k; ++pos) {
    // Union, anchor mask, and popcount fused into one kernel sweep
    // (three passes before the fused OrAndCountInto/OrCountInto kernels).
    rest_count_[pos] =
        anchor_ != nullptr
            ? rest_[pos].AssignUnionMaskedCount(prefix_[pos],
                                                suffix_[pos + 1], *anchor_)
            : rest_[pos].AssignUnionCount(prefix_[pos], suffix_[pos + 1]);
  }
  const size_t covered = anchor_ != nullptr
                             ? prefix_[k].IntersectCount(*anchor_)
                             : prefix_[k].Count();

  // ---- Diversity rows: refill only columns whose member changed. ----
  for (size_t j = 0; j < k; ++j) {
    if (simrow_owner_[j] == selected_[j]) continue;
    for (size_t c = 0; c < pool_->size(); ++c) {
      simrow_[c * k + j] = sims_->Sim(c, selected_[j]);
    }
    simrow_owner_[j] = selected_[j];
  }
  candrow_total_.assign(pool_->size(), 0.0);
  for (size_t c = 0; c < pool_->size(); ++c) {
    double t = 0;
    for (size_t j = 0; j < k; ++j) t += simrow_[c * k + j];
    candrow_total_[c] = t;
  }
  selrow_sum_.assign(k, 0.0);
  sim_sum_ = 0;
  for (size_t i = 0; i < k; ++i) {
    double row = 0;
    for (size_t j = 0; j < k; ++j) {
      if (j == i) continue;
      row += simrow_[selected_[i] * k + j];
    }
    selrow_sum_[i] = row;
    for (size_t j = i + 1; j < k; ++j) {
      sim_sum_ += simrow_[selected_[i] * k + j];
    }
  }

  // ---- Affinity + composed objective. ----
  aff_sum_ = 0;
  for (size_t i : selected_) aff_sum_ += (*affinity_)[i];

  double cov =
      cov_denom_ == 0 ? 0.0 : static_cast<double>(covered) / cov_denom_;
  double div = 1.0;
  if (k >= 2) {
    div = 1.0 - sim_sum_ / (static_cast<double>(k) * (k - 1) / 2);
  }
  double aff = k == 0 ? 0.0 : aff_sum_ / static_cast<double>(k);
  current_ =
      cfg_.lambda * cov + (1 - cfg_.lambda) * div + cfg_.feedback_weight * aff;
}

double SwapObjective::Trial(size_t pos, size_t cand) const {
  // Coverage: what the candidate newly covers beyond rest(pos). One
  // word-parallel pass over two operands (the candidate side is pre-masked
  // by the anchor at Reset time).
  size_t newly =
      anchor_ != nullptr
          ? cand_anchor_[cand].CountAndNot(rest_[pos])
          : store_->group((*pool_)[cand]).members().CountAndNot(rest_[pos]);
  return TrialFromCovered(pos, cand, newly);
}

double SwapObjective::TrialFromCovered(size_t pos, size_t cand,
                                       size_t newly_covered) const {
  const size_t k = selected_.size();
  VEXUS_DCHECK(pos < k);
  VEXUS_DCHECK(cand < pool_->size());
  size_t covered = rest_count_[pos] + newly_covered;
  double cov =
      cov_denom_ == 0 ? 0.0 : static_cast<double>(covered) / cov_denom_;

  // Diversity: O(1) from the row sums.
  double div = 1.0;
  if (k >= 2) {
    double cand_row = candrow_total_[cand] - simrow_[cand * k + pos];
    double sim_sum = sim_sum_ - selrow_sum_[pos] + cand_row;
    div = 1.0 - sim_sum / (static_cast<double>(k) * (k - 1) / 2);
  }

  // Affinity: O(1).
  double aff = (aff_sum_ - (*affinity_)[selected_[pos]] +
                (*affinity_)[cand]) /
               static_cast<double>(k);

  return cfg_.lambda * cov + (1 - cfg_.lambda) * div +
         cfg_.feedback_weight * aff;
}

}  // namespace vexus::core
