// FirstScreenMemo — the engine's cache of first GROUPVIZ screens.
//
// The first screen (paper §II.A) is chosen before any feedback exists: the
// prior is 1 for every group, so SelectInitial ranks the whole store by
// size and runs the swap loop over the same pool for every explorer. For a
// given set of greedy options the answer is therefore a constant of the
// engine. The memo computes it once — lazily, on the first start that runs
// to completion — and serves every later start_session from here.
//
// Only a run that equals an unbounded SelectInitial is stored: the swap
// loop converged (no deadline hit) and every pass scored the whole user
// universe (covered_fraction == 1). Such a run makes the same passes as an
// unbounded one, and an all-healthy gather fold is identity-tested against
// the local scan, so the stored screen is the same bytes whichever session
// computed it.
//
// Not to be confused with the session's MEMO (the explorer's bookmarks).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>

#include "core/greedy.h"

namespace vexus::core {

class FirstScreenMemo {
 public:
  /// Entries held at most: every k the service admits (1..64) at both
  /// candidate caps it runs (the configured pool and the effort rung's
  /// reduced one). A full memo stops storing; lookups still hit.
  static constexpr size_t kMaxEntries = 128;

  /// The stored screen for `options`, or nullopt. A hit carries zero
  /// passes, swaps and evaluations, no pass timings, `memoized` set and
  /// `elapsed_ms` 0 (the caller stamps its own). Thread-safe.
  std::optional<GreedySelection> Find(const GreedyOptions& options) const;

  /// Stores `selection` as the screen for `options` when it equals an
  /// unbounded run (see the file comment); returns whether it was stored.
  /// The first store for a key wins. Thread-safe.
  bool Store(const GreedyOptions& options, const GreedySelection& selection);

  size_t size() const;

 private:
  /// The options that decide a first screen: k, λ, μ and the candidate
  /// cap. Without an anchor, min_similarity and the refinement quota are
  /// unused; the time limit, remote scatterer and trace change
  /// how a run executes, not what a complete run returns. The doubles are
  /// keyed by their bits, so NaN cannot break the map's ordering.
  using Key = std::tuple<size_t, uint64_t, uint64_t, size_t>;
  static Key KeyOf(const GreedyOptions& options);

  mutable std::mutex mu_;
  std::map<Key, GreedySelection> screens_;  // guarded by mu_
};

}  // namespace vexus::core
