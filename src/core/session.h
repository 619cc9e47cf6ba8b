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

/// One HISTORY entry: what was clicked and what was shown in response.
struct ExplorationStep {
  /// The group the explorer selected to get here (nullopt for step 0).
  std::optional<mining::GroupId> selected;
  /// The k groups GROUPVIZ showed at this step.
  GreedySelection shown;
  /// Feedback state *after* this step's learning (snapshot for backtrack).
  /// The last step's is the session's live CONTEXT (see feedback()).
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
  /// The screen memo is keyed by the click path read from HISTORY, g
  /// included: a converged screen is a hit, and a stored work record is
  /// continued. A run that did real work leaves an entry for the next
  /// visit (core/screen_memo.h): one the deadline cut leaves its record, and
  /// a local run that converged after its own work (CPU time) took at least
  /// ScreenMemo::kAdmitShare of its time limit leaves its screen. The new
  /// HISTORY step's feedback is one merge of the live vector with g's
  /// reward (FeedbackVector::Learned). With a trace set,
  /// the lookup opens one `screen_memo` span (count 1 on a hit). After
  /// Unlearn the feedback is no longer a function of the path, so the
  /// session bypasses the memo, and opens no span, until Start.
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

  /// CONTEXT: the explicit feedback state. It is the last HISTORY step's
  /// snapshot, unless Unlearn has edited it since.
  const FeedbackVector& feedback() const;
  std::vector<FeedbackVector::TokenScore> ContextTokens(size_t k) const {
    return feedback().TopTokens(k);
  }
  /// CONTEXT deletion — unlearn a token ("make VEXUS forget"). The session
  /// then bypasses the screen memo until the next Start.
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
  /// The screen after `click` (nullopt: step 0's) on `feedback`: a memo
  /// hit, or a greedy run that resumes and feeds the memo.
  GreedySelection Screen(std::optional<mining::GroupId> click,
                         const FeedbackVector& feedback) const;

  const data::Dataset* dataset_;
  const mining::GroupStore* store_;
  const index::InvertedIndex* index_;
  const TokenSpace* tokens_;
  ScreenMemo* screens_;
  SessionOptions options_;
  /// feedback() before Start.
  FeedbackVector empty_feedback_;
  /// The feedback after Unlearn calls since the last step; until the next
  /// step or backtrack it differs from HISTORY's last snapshot.
  std::optional<FeedbackVector> edited_;
  /// Set by Unlearn, cleared by Start: the memo is bypassed.
  bool unlearned_ = false;
  GreedySelector selector_;
  std::deque<ExplorationStep> history_;
  Memo memo_;
};

}  // namespace vexus::core
