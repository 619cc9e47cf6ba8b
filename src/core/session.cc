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
      tokens_(tokens),
      screens_(screens),
      options_(options),
      live_(tokens),
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
  live_ = FeedbackVector(tokens_);

  GreedySelection shown = Screen(std::nullopt, live_);
  history_.push_back(ExplorationStep{std::nullopt, std::move(shown), {}});
  return history_.back().shown;
}

GreedySelection ExplorationSession::Screen(
    std::optional<mining::GroupId> click,
    const FeedbackVector& feedback) const {
  const GreedyOptions& greedy = options_.greedy;
  Stopwatch watch;
  TraceSpan lookup = greedy.trace != nullptr
                         ? greedy.trace->Child("screen_memo")
                         : TraceSpan();
  std::vector<mining::GroupId> path;
  std::vector<ScreenMemo::Deletion> deleted;
  if (click.has_value()) {
    // The click that creates step n follows step n-1's deletions.
    for (uint32_t n = 1; n <= history_.size(); ++n) {
      for (Token t : history_[n - 1].unlearned) deleted.emplace_back(n - 1, t);
      path.push_back(n < history_.size() ? *history_[n].selected : *click);
    }
  }
  const ScreenMemo::Key key = ScreenMemo::KeyOf(
      greedy, options_.learning_rate, std::move(path), std::move(deleted));
  ScreenMemo::Lookup found = screens_->Find(key);
  if (found.screen.has_value()) {
    lookup.AddCount(1);
    found.screen->elapsed_ms = watch.ElapsedMillis();
    return std::move(*found.screen);
  }
  lookup.Close();
  GreedySelection shown =
      click.has_value()
          ? selector_.SelectNext(*click, feedback, greedy, &found.record)
          : selector_.SelectInitial(feedback, greedy);
  screens_->Store(key, shown, std::move(found.record),
                  greedy.remote_scatter != nullptr);
  return shown;
}

const GreedySelection& ExplorationSession::SelectGroup(mining::GroupId g) {
  VEXUS_CHECK(g < store_->size()) << "unknown group " << g;
  VEXUS_CHECK(!history_.empty()) << "call Start() before SelectGroup()";

  const TraceSpan* trace = options_.greedy.trace;
  // Implicit positive feedback for the clicked group. The new vector is one
  // merge of the live one with g's reward, so a click allocates its 1-2 MB
  // of arrays once: a copy and then a merge, at the memo's hit rate,
  // fragments the heap at paper scale.
  TraceSpan learn = trace != nullptr ? trace->Child("learn") : TraceSpan();
  FeedbackVector next =
      live_.Learned(store_->group(g), options_.learning_rate);
  learn.Close();

  GreedySelection shown = Screen(g, next);
  history_.push_back(ExplorationStep{g, std::move(shown), {}});
  live_ = std::move(next);
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
  history_[i].unlearned.clear();
  // The fold of feedback(), in the order the first visit ran it.
  FeedbackVector fold(tokens_);
  for (size_t s = 1; s <= i; ++s) {
    for (Token t : history_[s - 1].unlearned) fold.Unlearn(t);
    fold.Learn(store_->group(*history_[s].selected), options_.learning_rate);
  }
  live_ = std::move(fold);
  return Status::OK();
}

const GreedySelection& ExplorationSession::Current() const {
  VEXUS_CHECK(!history_.empty()) << "session not started";
  return history_.back().shown;
}

void ExplorationSession::Unlearn(Token t) {
  // The vector is empty until the first click, so before Start (or after a
  // start that never ran) nothing is removed and nothing recorded.
  if (live_.Unlearn(t)) history_.back().unlearned.push_back(t);
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
