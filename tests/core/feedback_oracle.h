// The hash-map feedback vector that core/feedback.cc replaced, kept as the
// oracle of feedback_property_test.cc. Its arithmetic is the old one token
// for token; only its sums run in hash order, so it agrees with
// FeedbackVector to rounding, not bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "core/feedback.h"

namespace vexus::core {

class MapFeedbackOracle {
 public:
  explicit MapFeedbackOracle(const TokenSpace* tokens) : tokens_(tokens) {}

  void Learn(const mining::UserGroup& g, double eta = 0.5) {
    if (!std::isfinite(eta) || eta <= 0) return;
    size_t n_members = g.size();
    size_t n_desc = g.description().size();
    if (n_members == 0 && n_desc == 0) return;
    double member_mass = n_desc == 0 ? eta : eta / 2;
    double desc_mass = n_members == 0 ? eta : eta / 2;
    double member_add =
        n_members > 0 ? member_mass / static_cast<double>(n_members) : 0.0;
    double desc_add =
        n_desc > 0 ? desc_mass / static_cast<double>(n_desc) : 0.0;
    if (member_add <= 0 && desc_add <= 0) return;
    if (member_add > 0) {
      g.members().ForEach(
          [&](uint32_t u) { scores_[tokens_->UserToken(u)] += member_add; });
    }
    if (desc_add > 0) {
      for (const mining::Descriptor& d : g.description()) {
        scores_[tokens_->DescriptorToken(d)] += desc_add;
      }
    }
    Normalize();
  }

  void Unlearn(Token t) {
    if (scores_.erase(t) == 0) return;
    Normalize();
  }

  double Score(Token t) const {
    auto it = scores_.find(t);
    return it == scores_.end() ? 0.0 : it->second;
  }

  size_t nonzero_count() const { return scores_.size(); }

  std::vector<double> UserWeights() const {
    size_t n = tokens_->num_users();
    double floor = 1.0 / static_cast<double>(std::max<size_t>(n, 1));
    std::vector<double> w(n, floor);
    const data::Dataset& ds = tokens_->dataset();
    for (const auto& [t, s] : scores_) {
      if (tokens_->IsUserToken(t)) {
        w[t] += s;
      } else {
        uint32_t carriers = tokens_->CarrierCount(t);
        if (carriers == 0) continue;
        auto [a, v] = tokens_->DecodeValueToken(t);
        double share = s / static_cast<double>(carriers);
        for (data::UserId u = 0; u < n; ++u) {
          if (ds.users().Value(u, a) == v) w[u] += share;
        }
      }
    }
    return w;
  }

  double GroupPrior(const mining::UserGroup& g, double boost = 4.0) const {
    if (scores_.empty()) return 1.0;
    double sum = 0;
    for (const auto& [t, s] : scores_) {
      if (tokens_->IsUserToken(t) && g.ContainsUser(t)) sum += s;
    }
    for (const mining::Descriptor& d : g.description()) {
      sum += Score(tokens_->DescriptorToken(d));
    }
    return 1.0 + boost * sum;
  }

  /// Every scored token by (score descending, token ascending).
  std::vector<FeedbackVector::TokenScore> Ranked() const {
    std::vector<FeedbackVector::TokenScore> all;
    for (const auto& [t, s] : scores_) all.push_back({t, s});
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      if (a.score != b.score) return a.score > b.score;
      return a.token < b.token;
    });
    return all;
  }

 private:
  void Normalize() {
    double total = 0;
    for (const auto& [t, s] : scores_) total += s;
    if (total <= 0) {
      scores_.clear();
      return;
    }
    for (auto& [t, s] : scores_) s /= total;
  }

  const TokenSpace* tokens_;
  std::unordered_map<Token, double> scores_;
};

}  // namespace vexus::core
