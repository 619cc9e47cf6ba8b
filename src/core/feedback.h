// Feedback learning (paper §II.B, "Feedback Learning"):
//
//   "Feedback is considered as a probability vector over all users and
//    demographic values. Once the explorer decides to explore a group g,
//    VEXUS interprets this choice as a positive feedback and increases the
//    score of g's members and their common activities described in g inside
//    the feedback vector. The vector is always kept normalized … users and
//    demographics that do not get rewarded will gradually end up with a
//    lower score tending to zero. … She can easily unlearn by deleting it
//    from CONTEXT."
//
// TokenSpace maps the two token families — users and attribute=value pairs —
// into one dense id space; FeedbackVector keeps a sparse normalized score
// map over it and exposes the three consumers: user weights for weighted
// Jaccard, a description prior for ranking, and the CONTEXT top-token view.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/dataset.h"
#include "mining/group.h"

namespace vexus::core {

using Token = uint32_t;

/// Dense token ids: [0, num_users) are user tokens; demographic value tokens
/// follow, one per (attribute, value) pair in schema order.
class TokenSpace {
 public:
  /// The dataset must outlive the token space (it is consulted to map
  /// demographic-token mass onto the users carrying the value).
  explicit TokenSpace(const data::Dataset& dataset);

  uint32_t num_tokens() const { return num_tokens_; }
  uint32_t num_users() const { return num_users_; }
  const data::Dataset& dataset() const { return *dataset_; }

  /// Number of users carrying the value of a demographic token (0 for user
  /// tokens or values no user carries).
  uint32_t CarrierCount(Token t) const;

  /// Decodes a value token into its (attribute, value) pair; t must not be
  /// a user token.
  std::pair<data::AttributeId, data::ValueId> DecodeValueToken(
      Token t) const;

  Token UserToken(data::UserId u) const { return u; }
  Token ValueToken(data::AttributeId a, data::ValueId v) const;
  Token DescriptorToken(const mining::Descriptor& d) const {
    return ValueToken(d.attribute, d.value);
  }

  bool IsUserToken(Token t) const { return t < num_users_; }

  /// "user:<external-id>" or "<attr>=<value>".
  std::string Label(Token t, const data::Dataset& dataset) const;

 private:
  const data::Dataset* dataset_ = nullptr;
  uint32_t num_users_ = 0;
  uint32_t num_tokens_ = 0;
  std::vector<uint32_t> attr_offsets_;   // token base per attribute
  std::vector<uint32_t> carrier_count_;  // users per value token
};

/// HISTORY snapshots are plain copies. Declare no copy or move members
/// (rule of zero): a step pushed into HISTORY must move its vector, not copy
/// the map again.
class FeedbackVector {
 public:
  explicit FeedbackVector(const TokenSpace* tokens);

  /// Positive feedback for selecting `g`: distributes `eta` of probability
  /// mass uniformly over g's members and description tokens, then
  /// renormalizes (old mass scales by 1/(1+eta) — unrewarded tokens decay
  /// toward zero, as the paper specifies).
  void Learn(const mining::UserGroup& g, double eta = 0.5);

  /// CONTEXT deletion: removes the token's mass entirely and renormalizes.
  void Unlearn(Token t);

  /// Current normalized score (0 when never rewarded).
  double Score(Token t) const;

  /// True before any feedback (or after everything was unlearned).
  bool Empty() const { return scores_.empty(); }

  /// Per-user weights for weighted Jaccard:
  ///   w(u) = floor + score(u) + Σ_attr score(value-token of u) / carriers.
  /// The floor (1/num_users) keeps a no-feedback session identical to
  /// unweighted similarity. Each demographic token's mass is spread evenly
  /// over the users carrying the value, so deleting e.g. "male" from
  /// CONTEXT demonstrably de-biases the weighted similarity (paper's
  /// Scenario-1 gender rebalance, experiment E10).
  std::vector<double> UserWeights() const;

  /// Ranking prior for a group: 1 + boost · Σ score(member/description
  /// tokens of g), so rewarded groups rank higher in recommendation seeding.
  double GroupPrior(const mining::UserGroup& g, double boost = 4.0) const;

  /// CONTEXT view: top-k tokens by score, descending.
  struct TokenScore {
    Token token;
    double score;
  };
  std::vector<TokenScore> TopTokens(size_t k) const;

  size_t nonzero_count() const { return scores_.size(); }

 private:
  void Normalize();

  const TokenSpace* tokens_;
  std::unordered_map<Token, double> scores_;
};

}  // namespace vexus::core
