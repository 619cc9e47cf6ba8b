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

/// The admission rule for a path with no entry (header comment).
bool Admits(const std::vector<mining::GroupId>& path,
            const GreedySelection& run, bool remote) {
  if (run.deadline_hit) return !path.empty();
  if (path.empty()) return true;
  return !remote && run.work >= ScreenMemo::kAdmitWork;
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
static_assert(sizeof(void*) != 8 || sizeof(GreedyOptions) == 64,
              "GreedyOptions changed: decide whether the new field belongs "
              "in the screen key (ScreenMemo::KeyOf)");

ScreenMemo::Key ScreenMemo::KeyOf(const GreedyOptions& options,
                                  double learning_rate,
                                  std::vector<mining::GroupId> path,
                                  std::vector<Deletion> unlearned) {
  Key key;
  const bool anchored = !path.empty();
  key.options = {options.k,
                 Bits(options.lambda),
                 Bits(options.feedback_weight),
                 anchored ? Bits(options.min_similarity) : 0,
                 anchored ? Bits(options.refinement_quota) : 0,
                 anchored ? Bits(learning_rate) : 0};
  key.path = std::move(path);
  key.unlearned = std::move(unlearned);
  return key;
}

ScreenMemo::Lookup ScreenMemo::Find(const Key& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return {};
  return Lookup{it->second.screen, it->second.record};
}

bool ScreenMemo::Store(const Key& key, const GreedySelection& run,
                       WorkRecord record, bool remote) {
  if (key.path.size() + key.unlearned.size() > kMaxPathLength ||
      run.covered_fraction != 1.0) {
    return false;
  }
  const bool converged = !run.deadline_hit;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    if (!Admits(key.path, run, remote)) return false;
    if (entries_.size() >= kMaxEntries) {
      ++refused_full_;
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
    screen.pass_millis.clear();
    screen.elapsed_ms = 0;
    screen.work = 0;
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

ScreenMemo::Stats ScreenMemo::stats() const {
  Stats stats;
  stats.by_path_length.assign(kMaxPathLength + 1, 0);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [key, entry] : entries_) {
    ++(entry.screen.has_value() ? stats.screens : stats.records);
    ++stats.by_path_length[key.path.size()];
  }
  stats.refused_full = refused_full_;
  return stats;
}

}  // namespace vexus::core
