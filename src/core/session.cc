#include "core/session.h"

#include <algorithm>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/trace.h"

namespace vexus::core {

// Two steps fill one 512-byte HISTORY deque block (libstdc++); a larger step
// gets a block of its own, which reads slower on small worlds (EXPERIMENTS
// E20). A new GreedySelection field goes into padding or replaces one.
static_assert(sizeof(void*) != 8 || sizeof(ExplorationStep) <= 256,
              "ExplorationStep outgrew half a HISTORY deque block");

ExplorationSession::ExplorationSession(const data::Dataset* dataset,
                                       const mining::GroupStore* store,
                                       const index::InvertedIndex* index,
                                       const TokenSpace* tokens,
                                       ScreenMemo* screens,
                                       SessionOptions options)
    : dataset_(dataset),
      store_(store),
      index_(index),
      tokens_(tokens),
      screens_(screens),
      options_(options),
      empty_feedback_(tokens),
      selector_(store, index) {
  VEXUS_CHECK(dataset != nullptr && store != nullptr && index != nullptr &&
              screens != nullptr);
  VEXUS_CHECK(store->num_users() == dataset->num_users())
      << "group store universe does not match the dataset";
  VEXUS_CHECK(&tokens->dataset() == dataset)
      << "token space is over a different dataset";
}

const GreedySelection& ExplorationSession::Start() {
  history_.clear();
  memo_ = Memo{};
  edited_.reset();
  unlearned_ = false;

  FeedbackVector empty(tokens_);
  GreedySelection shown = Screen(std::nullopt, empty);
  history_.push_back(ExplorationStep{std::nullopt, std::move(shown),
                                     std::move(empty)});
  return history_.back().shown;
}

const FeedbackVector& ExplorationSession::feedback() const {
  if (edited_.has_value()) return *edited_;
  return history_.empty() ? empty_feedback_
                          : history_.back().feedback_snapshot;
}

GreedySelection ExplorationSession::Screen(
    std::optional<mining::GroupId> click,
    const FeedbackVector& feedback) const {
  const GreedyOptions& greedy = options_.greedy;
  auto run = [&](WorkRecord* record) {
    return click.has_value()
               ? selector_.SelectNext(*click, feedback, greedy, record)
               : selector_.SelectInitial(feedback, greedy);
  };
  if (unlearned_) return run(nullptr);
  Stopwatch watch;
  TraceSpan lookup = greedy.trace != nullptr
                         ? greedy.trace->Child("screen_memo")
                         : TraceSpan();
  std::vector<mining::GroupId> path;
  if (click.has_value()) {
    for (size_t i = 1; i < history_.size(); ++i) {
      path.push_back(*history_[i].selected);
    }
    path.push_back(*click);
  }
  const ScreenMemo::Key key =
      ScreenMemo::KeyOf(greedy, options_.learning_rate, std::move(path));
  ScreenMemo::Lookup found = screens_->Find(key);
  if (found.screen.has_value()) {
    lookup.AddCount(1);
    found.screen->elapsed_ms = watch.ElapsedMillis();
    return std::move(*found.screen);
  }
  lookup.Close();
  GreedySelection shown = run(&found.record);
  screens_->Store(key, shown, std::move(found.record),
                  greedy.remote_scatter != nullptr);
  return shown;
}

const GreedySelection& ExplorationSession::SelectGroup(mining::GroupId g) {
  VEXUS_CHECK(g < store_->size()) << "unknown group " << g;
  VEXUS_CHECK(!history_.empty()) << "call Start() before SelectGroup()";

  const TraceSpan* trace = options_.greedy.trace;
  // Implicit positive feedback for the clicked group. The new HISTORY
  // snapshot is one merge of the live vector with g's reward, so a click
  // allocates the step's 1-2 MB of arrays once: a copy and then a merge,
  // at the memo's hit rate, fragments the heap at paper scale.
  TraceSpan learn = trace != nullptr ? trace->Child("learn") : TraceSpan();
  FeedbackVector next =
      feedback().Learned(store_->group(g), options_.learning_rate);
  learn.Close();

  GreedySelection shown = Screen(g, next);
  history_.push_back(ExplorationStep{g, std::move(shown), std::move(next)});
  edited_.reset();
  return history_.back().shown;
}

const ExplorationStep& ExplorationSession::Step(size_t i) const {
  VEXUS_CHECK(i < history_.size());
  return history_[i];
}

Status ExplorationSession::Backtrack(size_t i) {
  if (i >= history_.size()) {
    return Status::OutOfRange("backtrack to step " + std::to_string(i) +
                              " but history has " +
                              std::to_string(history_.size()) + " steps");
  }
  history_.erase(history_.begin() + static_cast<ptrdiff_t>(i) + 1,
                 history_.end());
  edited_.reset();
  return Status::OK();
}

const GreedySelection& ExplorationSession::Current() const {
  VEXUS_CHECK(!history_.empty()) << "session not started";
  return history_.back().shown;
}

void ExplorationSession::Unlearn(Token t) {
  if (!edited_.has_value()) edited_ = feedback();
  edited_->Unlearn(t);
  unlearned_ = true;
}

void ExplorationSession::BookmarkGroup(mining::GroupId g) {
  VEXUS_CHECK(g < store_->size());
  if (std::find(memo_.groups.begin(), memo_.groups.end(), g) ==
      memo_.groups.end()) {
    memo_.groups.push_back(g);
  }
}

SessionDigest ExplorationSession::Digest() const {
  SessionDigest d;
  d.num_steps = history_.size();
  d.memo_groups = memo_.groups.size();
  d.memo_users = memo_.users.size();
  for (auto it = history_.rbegin(); it != history_.rend(); ++it) {
    if (it->selected.has_value()) {
      d.last_selected = it->selected;
      break;
    }
  }
  return d;
}

void ExplorationSession::BookmarkUser(data::UserId u) {
  VEXUS_CHECK(u < dataset_->num_users());
  if (std::find(memo_.users.begin(), memo_.users.end(), u) ==
      memo_.users.end()) {
    memo_.users.push_back(u);
  }
}

}  // namespace vexus::core
