// ExplorationSession — the interactive state machine of paper §II.A:
//
//   "In GROUPVIZ, an explorer examines a limited number of groups … She can
//    then ask to navigate to other groups which are similar to what she has
//    already liked. The explorer preference, captured in the form of
//    feedback, is illustrated in CONTEXT. The sequence of selected groups is
//    visualized in HISTORY. The explorer can backtrack to any previous step
//    in HISTORY. … At any stage the explorer can bookmark a group or a user
//    in MEMO. The analysis ends when the explorer is satisfied with her
//    collection in MEMO."
//
// Each step records the shown selection and a feedback snapshot, so
// Backtrack(i) restores both the view and the learning state at step i.
#pragma once

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "core/feedback.h"
#include "core/first_screen_memo.h"
#include "core/greedy.h"
#include "index/inverted_index.h"
#include "mining/group.h"

namespace vexus::core {

struct SessionOptions {
  GreedyOptions greedy;
  /// Learning rate η of the feedback update on each selection.
  double learning_rate = 0.5;
};

/// One HISTORY entry: what was clicked and what was shown in response.
struct ExplorationStep {
  /// The group the explorer selected to get here (nullopt for step 0).
  std::optional<mining::GroupId> selected;
  /// The k groups GROUPVIZ showed at this step.
  GreedySelection shown;
  /// Feedback state *after* this step's learning (snapshot for backtrack).
  FeedbackVector feedback_snapshot;
};

/// MEMO: bookmarked groups and users — "which serves as her analysis goal".
struct Memo {
  std::vector<mining::GroupId> groups;
  std::vector<data::UserId> users;
};

/// A constant-size summary of a session's state — what the serving layer
/// logs when it evicts an idle session and returns from end_session, without
/// cloning history or feedback (sessions can hold megabytes of snapshots).
struct SessionDigest {
  size_t num_steps = 0;
  size_t memo_groups = 0;
  size_t memo_users = 0;
  size_t feedback_nonzero = 0;
  /// The last clicked group, if any step selected one.
  std::optional<mining::GroupId> last_selected;
};

class ExplorationSession {
 public:
  /// All pointers must outlive the session. `tokens` is the token space
  /// over `dataset`, and `first_screens` the memo of first screens over
  /// `store`; both are shared by every session of one engine
  /// (VexusEngine::CreateSession passes its own).
  ExplorationSession(const data::Dataset* dataset,
                     const mining::GroupStore* store,
                     const index::InvertedIndex* index,
                     const TokenSpace* tokens, FirstScreenMemo* first_screens,
                     SessionOptions options);

  /// Step 0: the initial GROUPVIZ screen. Resets any previous state. The
  /// screen comes from the first-screen memo when it holds one for these
  /// greedy options; otherwise SelectInitial runs, and a run that reached
  /// its local optimum over the whole universe is stored for later starts.
  /// With a trace set, opens one `first_screen` span (count 1 on a hit).
  const GreedySelection& Start();

  /// The explorer clicks group g (implicit positive feedback, P-learning),
  /// and VEXUS answers with the next k groups. `g` need not be on the
  /// current screen (the paper's GROUPVIZ also allows hover-driven jumps);
  /// it must be a valid group id.
  ///
  /// Lifetime: history steps live in a deque, so references returned by
  /// Start()/SelectGroup()/Current() stay valid across later SelectGroup
  /// calls; only Start() (which resets) and Backtrack (which discards the
  /// later steps) invalidate them.
  const GreedySelection& SelectGroup(mining::GroupId g);

  /// HISTORY: number of steps so far (≥ 1 after Start).
  size_t NumSteps() const { return history_.size(); }
  const ExplorationStep& Step(size_t i) const;
  const std::deque<ExplorationStep>& History() const { return history_; }

  /// Backtrack to step `i` (0-based): discards later steps and restores the
  /// feedback snapshot of step i. Fails when i is out of range.
  Status Backtrack(size_t i);

  /// The currently shown groups (last step's selection).
  const GreedySelection& Current() const;

  /// CONTEXT: the explicit feedback state.
  const FeedbackVector& feedback() const { return feedback_; }
  std::vector<FeedbackVector::TokenScore> ContextTokens(size_t k) const {
    return feedback_.TopTokens(k);
  }
  /// CONTEXT deletion — unlearn a token ("make VEXUS forget").
  void Unlearn(Token t);

  /// MEMO.
  void BookmarkGroup(mining::GroupId g);
  void BookmarkUser(data::UserId u);
  const Memo& memo() const { return memo_; }

  /// Cheap state summary (see SessionDigest).
  SessionDigest Digest() const;

  const TokenSpace& tokens() const { return *tokens_; }
  const SessionOptions& options() const { return options_; }
  /// Serving-layer hook: the dispatcher clamps the greedy time budget to a
  /// request's *remaining* deadline before each Start/SelectGroup, so queue
  /// time spent before the worker picked the request up still counts against
  /// the paper's 100 ms end-to-end budget. Callers must hold the session's
  /// exclusive lease (see server::SessionManager).
  SessionOptions& mutable_options() { return options_; }
  const mining::GroupStore& store() const { return *store_; }
  const data::Dataset& dataset() const { return *dataset_; }

 private:
  /// Step 0's screen: a memo hit, or a fresh SelectInitial (see Start).
  GreedySelection FirstScreen() const;

  const data::Dataset* dataset_;
  const mining::GroupStore* store_;
  const index::InvertedIndex* index_;
  const TokenSpace* tokens_;
  FirstScreenMemo* first_screens_;
  SessionOptions options_;
  FeedbackVector feedback_;
  GreedySelector selector_;
  std::deque<ExplorationStep> history_;
  Memo memo_;
};

}  // namespace vexus::core
