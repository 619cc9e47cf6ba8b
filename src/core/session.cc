#include "core/session.h"

#include <algorithm>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/trace.h"

namespace vexus::core {

ExplorationSession::ExplorationSession(const data::Dataset* dataset,
                                       const mining::GroupStore* store,
                                       const index::InvertedIndex* index,
                                       const TokenSpace* tokens,
                                       FirstScreenMemo* first_screens,
                                       SessionOptions options)
    : dataset_(dataset),
      store_(store),
      index_(index),
      tokens_(tokens),
      first_screens_(first_screens),
      options_(options),
      feedback_(tokens),
      selector_(store, index) {
  VEXUS_CHECK(dataset != nullptr && store != nullptr && index != nullptr &&
              first_screens != nullptr);
  VEXUS_CHECK(store->num_users() == dataset->num_users())
      << "group store universe does not match the dataset";
  VEXUS_CHECK(&tokens->dataset() == dataset)
      << "token space is over a different dataset";
}

const GreedySelection& ExplorationSession::Start() {
  history_.clear();
  memo_ = Memo{};
  feedback_ = FeedbackVector(tokens_);

  ExplorationStep step{std::nullopt, FirstScreen(), feedback_};
  history_.push_back(std::move(step));
  return history_.back().shown;
}

GreedySelection ExplorationSession::FirstScreen() const {
  Stopwatch watch;
  const GreedyOptions& greedy = options_.greedy;
  TraceSpan lookup = greedy.trace != nullptr
                         ? greedy.trace->Child("first_screen")
                         : TraceSpan();
  std::optional<GreedySelection> hit = first_screens_->Find(greedy);
  if (hit.has_value()) {
    lookup.AddCount(1);
    hit->elapsed_ms = watch.ElapsedMillis();
    return std::move(*hit);
  }
  lookup.Close();
  GreedySelection computed = selector_.SelectInitial(feedback_, greedy);
  first_screens_->Store(greedy, computed);
  return computed;
}

const GreedySelection& ExplorationSession::SelectGroup(mining::GroupId g) {
  VEXUS_CHECK(g < store_->size()) << "unknown group " << g;
  VEXUS_CHECK(!history_.empty()) << "call Start() before SelectGroup()";

  const TraceSpan* trace = options_.greedy.trace;
  // Implicit positive feedback for the clicked group.
  TraceSpan learn = trace != nullptr ? trace->Child("learn") : TraceSpan();
  feedback_.Learn(store_->group(g), options_.learning_rate);
  learn.Close();

  GreedySelection shown = selector_.SelectNext(g, feedback_, options_.greedy);
  // The HISTORY snapshot: copies of the whole feedback map.
  TraceSpan snapshot = trace != nullptr ? trace->Child("history") : TraceSpan();
  ExplorationStep step{g, std::move(shown), feedback_};
  history_.push_back(std::move(step));
  snapshot.Close();
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
  feedback_ = history_[i].feedback_snapshot;
  return Status::OK();
}

const GreedySelection& ExplorationSession::Current() const {
  VEXUS_CHECK(!history_.empty()) << "session not started";
  return history_.back().shown;
}

void ExplorationSession::Unlearn(Token t) { feedback_.Unlearn(t); }

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
  d.feedback_nonzero = feedback_.nonzero_count();
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
