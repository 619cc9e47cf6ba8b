#include "core/first_screen_memo.h"

#include <cstring>

namespace vexus::core {

namespace {

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

// A new GreedyOptions field changes this size. Decide whether the field
// changes what a complete SelectInitial returns; if it does, add it to
// KeyOf, then update the size here.
static_assert(sizeof(void*) != 8 || sizeof(GreedyOptions) == 72,
              "GreedyOptions changed: decide whether the new field belongs "
              "in the first-screen key (FirstScreenMemo::KeyOf)");

FirstScreenMemo::Key FirstScreenMemo::KeyOf(const GreedyOptions& options) {
  return Key{options.k, Bits(options.lambda), Bits(options.feedback_weight),
             options.initial_candidate_cap};
}

std::optional<GreedySelection> FirstScreenMemo::Find(
    const GreedyOptions& options) const {
  const Key key = KeyOf(options);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = screens_.find(key);
  if (it == screens_.end()) return std::nullopt;
  return it->second;
}

bool FirstScreenMemo::Store(const GreedyOptions& options,
                            const GreedySelection& selection) {
  if (selection.deadline_hit || selection.covered_fraction != 1.0) {
    return false;
  }
  GreedySelection stored = selection;
  stored.passes = 0;
  stored.swaps = 0;
  stored.evaluations = 0;
  stored.seed_scored = 0;
  stored.seed_millis = {};
  stored.pass_millis.clear();
  stored.elapsed_ms = 0;
  stored.memoized = true;
  const Key key = KeyOf(options);
  std::lock_guard<std::mutex> lock(mu_);
  if (screens_.size() >= kMaxEntries) return false;
  return screens_.emplace(key, std::move(stored)).second;
}

size_t FirstScreenMemo::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return screens_.size();
}

}  // namespace vexus::core
