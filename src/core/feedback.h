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
// into one dense id space; FeedbackVector keeps sparse normalized scores
// over it and exposes the three consumers: user weights for weighted
// Jaccard, a description prior for ranking, and the CONTEXT top-token view.
#pragma once

#include <cstdint>
#include <string>
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

/// The scores are two arrays sorted by token: `ids_` and, index for index,
/// `scores_`. User tokens sort before value tokens, so the user part is a
/// prefix. The mix of operations is a few writes per session (one merge per
/// click) and a full scan per ranked candidate (GroupPrior), which a sorted
/// array serves best. A click is one merge (Learned) into a new vector that
/// the session moves in as its live one; keep the rule of zero so that move
/// takes the arrays. Every sum runs in ascending token order, so a copy, a
/// replay (a backtrack) and a recompute of the same clicks agree bit for
/// bit.
class FeedbackVector {
 public:
  explicit FeedbackVector(const TokenSpace* tokens);

  /// Positive feedback for selecting `g`: distributes `eta` of probability
  /// mass uniformly over g's members and description tokens, then
  /// renormalizes (old mass scales by 1/(1+eta) — unrewarded tokens decay
  /// toward zero, as the paper specifies). Same as `*this = Learned(g, eta)`.
  void Learn(const mining::UserGroup& g, double eta = 0.5);

  /// This vector after Learn(g, eta), built by one merge of these arrays
  /// into arrays sized once; this vector is unchanged. A click builds
  /// the session's next vector this way, so no copy of the parent precedes
  /// the merge. A degenerate update (see Learn) returns an exact copy.
  FeedbackVector Learned(const mining::UserGroup& g, double eta = 0.5) const;

  /// CONTEXT deletion: removes the token's mass entirely and renormalizes.
  /// Returns whether the vector held the token (if not, nothing changes).
  bool Unlearn(Token t);

  /// Current normalized score (0 when never rewarded).
  double Score(Token t) const;

  /// True before any feedback (or after everything was unlearned).
  bool Empty() const { return ids_.empty(); }

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

  size_t nonzero_count() const { return ids_.size(); }

 private:
  void Normalize();

  const TokenSpace* tokens_;
  std::vector<Token> ids_;      // ascending, unique
  std::vector<double> scores_;  // scores_[i] is the score of ids_[i]
};

}  // namespace vexus::core
