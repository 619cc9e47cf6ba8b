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
// A session is its HISTORY. Each step records the click and the screen
// shown, plus the CONTEXT tokens deleted while it was current; the one live
// feedback vector is a fold over those steps, so Backtrack(i) keeps the view
// of step i and replays the path to restore its learning state.
#pragma once

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "core/feedback.h"
#include "core/greedy.h"
#include "core/screen_memo.h"
#include "index/inverted_index.h"
#include "mining/group.h"

namespace vexus::core {

struct SessionOptions {
  GreedyOptions greedy;
  /// Learning rate η of the feedback update on each selection.
  double learning_rate = 0.5;
};

/// One HISTORY entry: what was clicked, what was shown in response, and
/// which CONTEXT tokens the explorer deleted before clicking on.
struct ExplorationStep {
  /// The group the explorer selected to get here (nullopt for step 0).
  std::optional<mining::GroupId> selected;
  /// The k groups GROUPVIZ showed at this step.
  GreedySelection shown;
  /// The tokens Unlearn removed while this step was current, in order
  /// (only those the vector held, so at most one entry per token).
  std::vector<Token> unlearned;
};

/// MEMO: bookmarked groups and users — "which serves as her analysis goal".
struct Memo {
  std::vector<mining::GroupId> groups;
  std::vector<data::UserId> users;
};

/// A constant-size summary of a session's state — what the serving layer
/// logs when it evicts an idle session and returns from end_session, without
/// cloning history or the feedback vector (megabytes at paper scale).
struct SessionDigest {
  size_t num_steps = 0;
  size_t memo_groups = 0;
  size_t memo_users = 0;
  /// The last clicked group, if any step selected one.
  std::optional<mining::GroupId> last_selected;
};

class ExplorationSession {
 public:
  /// All pointers must outlive the session. `tokens` is the token space
  /// over `dataset`, and `screens` the screen memo over `store`; both are
  /// shared by every session of one engine (VexusEngine::CreateSession
  /// passes its own).
  ExplorationSession(const data::Dataset* dataset,
                     const mining::GroupStore* store,
                     const index::InvertedIndex* index,
                     const TokenSpace* tokens, ScreenMemo* screens,
                     SessionOptions options);

  /// Step 0: the initial GROUPVIZ screen. Resets any previous state. The
  /// screen comes from the screen memo when it holds one for these greedy
  /// options; otherwise SelectInitial runs, and a run that reached its
  /// local optimum over the whole universe is stored for later starts.
  /// With a trace set, opens one `screen_memo` span (count 1 on a hit).
  const GreedySelection& Start();

  /// The explorer clicks group g (implicit positive feedback, P-learning),
  /// and VEXUS answers with the next k groups. `g` need not be on the
  /// current screen (the paper's GROUPVIZ also allows hover-driven jumps);
  /// it must be a valid group id.
  ///
  /// The screen memo is keyed by the clicks and the deletions read from
  /// HISTORY, g included: a converged screen is a hit, and a stored work
  /// record is continued. A run that did real work leaves an entry for the
  /// next visit (core/screen_memo.h): one the deadline cut leaves its
  /// record, and a local run that converged after counted work of at least
  /// ScreenMemo::kAdmitWork leaves its screen. The new live feedback is
  /// one merge of the old one with g's reward (FeedbackVector::Learned).
  /// With a trace set, the lookup opens one `screen_memo` span (count 1 on
  /// a hit).
  ///
  /// Lifetime: history steps live in a deque, so references returned by
  /// Start()/SelectGroup()/Current() stay valid across later SelectGroup
  /// calls; only Start() (which resets) and Backtrack (which discards the
  /// later steps) invalidate them.
  const GreedySelection& SelectGroup(mining::GroupId g);

  /// HISTORY: number of steps so far (≥ 1 after Start).
  size_t NumSteps() const { return history_.size(); }
  const ExplorationStep& Step(size_t i) const;

  /// Backtrack to step `i` (0-based): discards the later steps and step i's
  /// deletions, and rebuilds the feedback by the fold over steps 1..i (see
  /// feedback()), which repeats the first visit's operations bit for bit.
  /// Fails when i is out of range.
  Status Backtrack(size_t i);

  /// The currently shown groups (last step's selection).
  const GreedySelection& Current() const;

  /// CONTEXT: the explicit feedback state. It is the fold over HISTORY:
  /// start empty, then for each step s ≥ 1 unlearn step s−1's deletions and
  /// learn step s's click; then unlearn the last step's deletions.
  const FeedbackVector& feedback() const { return live_; }
  std::vector<FeedbackVector::TokenScore> ContextTokens(size_t k) const {
    return feedback().TopTokens(k);
  }
  /// CONTEXT deletion — unlearn a token ("make VEXUS forget"). A token the
  /// vector held is recorded on the current step, and the screen memo keys
  /// it with the clicks before it; any other token changes nothing.
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
  /// the paper's 100 ms end-to-end budget. Only the greedy options are
  /// exposed: the fold behind feedback() needs one learning rate per session.
  /// Callers must hold the session's exclusive lease (see
  /// server::SessionManager).
  GreedyOptions& mutable_greedy() { return options_.greedy; }
  const mining::GroupStore& store() const { return *store_; }
  const data::Dataset& dataset() const { return *dataset_; }

 private:
  /// The screen after `click` (nullopt: step 0's) on `feedback`: a memo
  /// hit, or a greedy run that resumes and feeds the memo.
  GreedySelection Screen(std::optional<mining::GroupId> click,
                         const FeedbackVector& feedback) const;

  const data::Dataset* dataset_;
  const mining::GroupStore* store_;
  const TokenSpace* tokens_;
  ScreenMemo* screens_;
  SessionOptions options_;
  /// feedback(): empty before the first click.
  FeedbackVector live_;
  GreedySelector selector_;
  std::deque<ExplorationStep> history_;
  Memo memo_;
};

}  // namespace vexus::core
