#include "core/feedback.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace vexus::core {

TokenSpace::TokenSpace(const data::Dataset& dataset) : dataset_(&dataset) {
  num_users_ = static_cast<uint32_t>(dataset.num_users());
  uint32_t offset = num_users_;
  const data::Schema& schema = dataset.schema();
  attr_offsets_.reserve(schema.num_attributes());
  for (data::AttributeId a = 0; a < schema.num_attributes(); ++a) {
    attr_offsets_.push_back(offset);
    offset += static_cast<uint32_t>(schema.attribute(a).values().size());
  }
  num_tokens_ = offset;

  // Carriers per demographic value token (one column scan per attribute).
  carrier_count_.assign(num_tokens_ - num_users_, 0);
  for (data::AttributeId a = 0; a < schema.num_attributes(); ++a) {
    for (data::UserId u = 0; u < num_users_; ++u) {
      data::ValueId v = dataset.users().Value(u, a);
      if (v != data::kNullValue) {
        ++carrier_count_[attr_offsets_[a] - num_users_ + v];
      }
    }
  }
}

uint32_t TokenSpace::CarrierCount(Token t) const {
  if (IsUserToken(t)) return 0;
  VEXUS_DCHECK(t - num_users_ < carrier_count_.size());
  return carrier_count_[t - num_users_];
}

std::pair<data::AttributeId, data::ValueId> TokenSpace::DecodeValueToken(
    Token t) const {
  VEXUS_DCHECK(!IsUserToken(t));
  size_t a = attr_offsets_.size();
  while (a > 0 && attr_offsets_[a - 1] > t) --a;
  VEXUS_DCHECK(a > 0);
  --a;
  return {static_cast<data::AttributeId>(a), t - attr_offsets_[a]};
}

Token TokenSpace::ValueToken(data::AttributeId a, data::ValueId v) const {
  VEXUS_DCHECK(a < attr_offsets_.size());
  Token t = attr_offsets_[a] + v;
  VEXUS_DCHECK(t < num_tokens_);
  return t;
}

std::string TokenSpace::Label(Token t, const data::Dataset& dataset) const {
  if (IsUserToken(t)) {
    return "user:" + dataset.users().ExternalId(t);
  }
  auto [a, v] = DecodeValueToken(t);
  const data::Attribute& attr = dataset.schema().attribute(a);
  return attr.name() + "=" + attr.ValueName(v);
}

FeedbackVector::FeedbackVector(const TokenSpace* tokens) : tokens_(tokens) {
  VEXUS_CHECK(tokens != nullptr);
}

void FeedbackVector::Learn(const mining::UserGroup& g, double eta) {
  *this = Learned(g, eta);
}

FeedbackVector FeedbackVector::Learned(const mining::UserGroup& g,
                                       double eta) const {
  // Degenerate observations are defined as fixed points: an update that
  // carries no usable reward mass returns the vector exactly as it was.
  // This covers
  //   * eta <= 0 or non-finite eta (a config error must not abort the
  //     process — the old VEXUS_CHECK did — and eta = +inf used to poison
  //     every score to NaN via inf/inf inside Normalize());
  //   * an empty observation (no members, no description);
  //   * an eta so small the per-token share underflows to zero — adding
  //     literal zeros would create 0-valued entries whose sum contributes
  //     nothing, and on a previously-empty vector Normalize() would face a
  //     0/0; skipping the update keeps "all-zero observation ⇒ no-op" exact.
  if (!std::isfinite(eta) || eta <= 0) return *this;
  // Half of the reward mass goes to the members, half to the description
  // tokens ("their common activities described in g"). An even split across
  // *all* tokens would drown the handful of demographic values under
  // hundreds of member tokens, making CONTEXT unlearning (paper §II.B /
  // Scenario 1's gender rebalance) a no-op.
  size_t n_members = g.size();
  size_t n_desc = g.description().size();
  if (n_members == 0 && n_desc == 0) return *this;
  double member_mass = n_desc == 0 ? eta : eta / 2;
  double desc_mass = n_members == 0 ? eta : eta / 2;
  double member_add =
      n_members > 0 ? member_mass / static_cast<double>(n_members) : 0.0;
  double desc_add =
      n_desc > 0 ? desc_mass / static_cast<double>(n_desc) : 0.0;
  if (member_add <= 0 && desc_add <= 0) return *this;  // underflowed to 0

  // One merge of the sorted arrays with the rewarded tokens, which arrive
  // ascending too: the members in bitset order, then the description's
  // value tokens (a description is sorted and unique, ValueToken keeps its
  // order, and every user token sorts before every value token). The merge
  // writes by index into arrays sized for the worst case and trims them
  // after: a push_back per token took about a third longer, and a
  // backtrack replays one merge per click (core/session.h).
  const size_t rewarded =
      (member_add > 0 ? n_members : 0) + (desc_add > 0 ? n_desc : 0);
  FeedbackVector next(tokens_);
  const size_t n = ids_.size();
  next.ids_.resize(n + rewarded);
  next.scores_.resize(n + rewarded);
  Token* ids = next.ids_.data();
  double* scores = next.scores_.data();
  size_t i = 0, o = 0;
  auto reward = [&](Token t, double add) {
    VEXUS_DCHECK(o == 0 || ids[o - 1] < t);
    for (; i < n && ids_[i] < t; ++i, ++o) {
      ids[o] = ids_[i];
      scores[o] = scores_[i];
    }
    ids[o] = t;
    scores[o++] = i < n && ids_[i] == t ? scores_[i++] + add : add;
  };
  if (member_add > 0) {
    g.members().ForEach(
        [&](uint32_t u) { reward(tokens_->UserToken(u), member_add); });
  }
  if (desc_add > 0) {
    for (const mining::Descriptor& d : g.description()) {
      reward(tokens_->DescriptorToken(d), desc_add);
    }
  }
  for (; i < n; ++i, ++o) {
    ids[o] = ids_[i];
    scores[o] = scores_[i];
  }
  next.ids_.resize(o);
  next.scores_.resize(o);
  next.Normalize();
  return next;
}

bool FeedbackVector::Unlearn(Token t) {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), t);
  if (it == ids_.end() || *it != t) return false;
  scores_.erase(scores_.begin() + (it - ids_.begin()));
  ids_.erase(it);
  Normalize();
  return true;
}

void FeedbackVector::Normalize() {
  double total = 0;
  for (double s : scores_) total += s;
  if (total <= 0) {
    ids_.clear();
    scores_.clear();
    return;
  }
  for (double& s : scores_) s /= total;
}

double FeedbackVector::Score(Token t) const {
  auto it = std::lower_bound(ids_.begin(), ids_.end(), t);
  if (it == ids_.end() || *it != t) return 0.0;
  return scores_[static_cast<size_t>(it - ids_.begin())];
}

std::vector<double> FeedbackVector::UserWeights() const {
  size_t n = tokens_->num_users();
  // Floor such that with no feedback all users weigh equally, and a fully
  // rewarded user can weigh up to (1 + n·score)× the floor.
  double floor = 1.0 / static_cast<double>(std::max<size_t>(n, 1));
  std::vector<double> w(n, floor);
  const data::Dataset& ds = tokens_->dataset();
  for (size_t i = 0; i < ids_.size(); ++i) {
    const Token t = ids_[i];
    const double s = scores_[i];
    if (tokens_->IsUserToken(t)) {
      w[t] += s;
    } else {
      // Spread the demographic token's mass over its carriers.
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

double FeedbackVector::GroupPrior(const mining::UserGroup& g,
                                  double boost) const {
  if (ids_.empty()) return 1.0;
  double sum = 0;
  // One forward scan of the user-token prefix, testing each token's bit in
  // g's member words (a token past g's universe is no member). At paper
  // scale the prefix holds 95k-177k tokens after a click, so a prior is the
  // greedy seed's dearest step, and the seed computes priors in affinity
  // order under the deadline (core/greedy.cc).
  const Bitset& members = g.members();
  const uint64_t* words = members.words().data();
  const size_t users = std::min<size_t>(tokens_->num_users(), members.size());
  for (size_t i = 0; i < ids_.size() && ids_[i] < users; ++i) {
    const Token t = ids_[i];
    if ((words[t / 64] >> (t % 64)) & 1u) sum += scores_[i];
  }
  for (const mining::Descriptor& d : g.description()) {
    sum += Score(tokens_->DescriptorToken(d));
  }
  return 1.0 + boost * sum;
}

std::vector<FeedbackVector::TokenScore> FeedbackVector::TopTokens(
    size_t k) const {
  std::vector<TokenScore> all;
  all.reserve(ids_.size());
  for (size_t i = 0; i < ids_.size(); ++i) {
    all.push_back(TokenScore{ids_[i], scores_[i]});
  }
  // Score descending, token ascending: a total order (tokens are unique),
  // so the first k are the same whichever sort produces them. Selecting
  // only those k costs O(n log k) instead of O(n log n) over a vector that
  // holds 100k+ tokens after a few clicks, for a k of about 8.
  const size_t top = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(top),
                    all.end(), [](const TokenScore& a, const TokenScore& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.token < b.token;
                    });
  all.resize(top);
  return all;
}

}  // namespace vexus::core
