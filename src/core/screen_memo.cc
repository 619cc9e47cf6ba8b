#include "core/screen_memo.h"

#include <cstring>
#include <utility>

namespace vexus::core {

namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Work order of two records of one key: both are prefixes of the same
/// run, so more priors, then more complete passes, is further along.
bool Longer(const WorkRecord& a, const WorkRecord& b) {
  return std::make_pair(a.priors.size(), a.swaps) >
         std::make_pair(b.priors.size(), b.swaps);
}

}  // namespace

// A new GreedyOptions field changes this size. Decide whether the field
// changes what a complete run returns; if it does, add it to KeyOf, then
// update the size here.
static_assert(sizeof(void*) != 8 || sizeof(GreedyOptions) == 72,
              "GreedyOptions changed: decide whether the new field belongs "
              "in the screen key (ScreenMemo::KeyOf)");

ScreenMemo::Key ScreenMemo::KeyOf(const GreedyOptions& options,
                                  double learning_rate,
                                  std::vector<mining::GroupId> path) {
  Key key;
  const bool anchored = !path.empty();
  key.options = {options.k,
                 Bits(options.lambda),
                 Bits(options.feedback_weight),
                 anchored ? Bits(options.min_similarity) : 0,
                 anchored ? Bits(options.refinement_quota) : 0,
                 anchored ? Bits(learning_rate) : 0,
                 anchored ? 0 : options.initial_candidate_cap};
  key.path = std::move(path);
  return key;
}

ScreenMemo::Lookup ScreenMemo::Find(const Key& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return {};
  return Lookup{it->second.screen, it->second.record};
}

bool ScreenMemo::Store(const Key& key, const GreedySelection& run,
                       WorkRecord record) {
  if (key.path.size() > kMaxPathLength || run.covered_fraction != 1.0) {
    return false;
  }
  const bool converged = !run.deadline_hit;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    // The empty path is admitted when it converges; any other path only
    // when the deadline cut it.
    if (converged != key.path.empty() || entries_.size() >= kMaxEntries) {
      return false;
    }
    it = entries_.emplace(key, Entry{}).first;
  } else if (it->second.screen.has_value()) {
    return false;  // the first converged screen wins
  } else if (!converged && !Longer(record, it->second.record)) {
    return false;
  }
  Entry& entry = it->second;
  if (converged) {
    GreedySelection screen = run;
    screen.passes = 0;
    screen.swaps = 0;
    screen.evaluations = 0;
    screen.seed_scored = 0;
    screen.seed_millis = {};
    screen.pass_millis.clear();
    screen.elapsed_ms = 0;
    screen.memoized = true;
    screen.resumed = false;
    entry.screen = std::move(screen);
    entry.record = WorkRecord{};
    return true;
  }
  record.priors.shrink_to_fit();
  entry.record = std::move(record);
  return true;
}

size_t ScreenMemo::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::vector<size_t> ScreenMemo::EntriesByPathLength() const {
  std::vector<size_t> counts(kMaxPathLength + 1, 0);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, entry] : entries_) ++counts[key.path.size()];
  return counts;
}

}  // namespace vexus::core
