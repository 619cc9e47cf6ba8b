// ScreenMemo — the engine's cache of GROUPVIZ screens, keyed by HISTORY.
//
// A session's feedback state is a function of its HISTORY: Start()
// empties the vector, each SelectGroup(g) runs Learn(g) before the greedy
// (paper §II.B), and each Unlearn(t) removes a token the vector held. So
// for fixed options a screen is a function of the clicks and of the
// deletions between them, and every session that repeats them asks for the
// same screen. The memo keeps, per (options, clicks, deletions):
//
//   * a converged screen, served as a hit with no greedy run; or
//   * the work record (greedy.h) of runs the deadline cut, which the next
//     select on the path continues instead of redoing. A path converges
//     after a few visits and is then a hit.
//
// Admission follows cost, with no option. The empty path (the first
// screen) is stored when its run converges. Any other path is stored when
// a run for it did real work: the deadline cut it, which stores its work
// record, or it converged after counted work (GreedySelection::work, the
// words and tokens it read) of at least kAdmitWork, which stores it as a
// hit. The count is a function of the path, not of the clock, the machine,
// its load or the time limit, so which paths get cached does not depend on
// the moment, and a run with no finite limit qualifies as a bounded one
// does. A fleet run (one whose passes go to remote shards,
// GreedyOptions::remote_scatter) never qualifies by cost: a fleet's cost
// is its gather laps, which the count does not see, and ROADMAP item 8
// retires the fleet (DESIGN.md §8.5). A stored screen equals an unbounded
// run on a fresh fold of the path's clicks and deletions: a converged run
// makes the same passes as an unbounded one, and a run that resumed a
// record continued the same deterministic work. A run scored over a
// partial remote fold (covered_fraction < 1) is never stored.
//
// Not to be confused with the session's MEMO (the explorer's bookmarks).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "core/greedy.h"

namespace vexus::core {

class ScreenMemo {
 public:
  /// Entries held at most. A full memo stops admitting new paths (counted
  /// in Stats::refused_full); lookups still hit, and stored records still
  /// advance.
  static constexpr size_t kMaxEntries = 1024;
  /// Clicks plus deletions in the longest path the memo stores. A longer
  /// path misses in Find and Store refuses it, so no stored key is long.
  static constexpr size_t kMaxPathLength = 8;
  /// The counted work (GreedySelection::work) a converged run on a
  /// non-empty path must reach for its path to be stored (file comment):
  /// 2^20 words and tokens. Paper-scale selects count 0.9M-36M (1.4M at
  /// the first percentile) and repeat across sessions, so nearly all of
  /// them qualify; selects on a 1,500-user world count under 0.06M and
  /// never do, which keeps its memo at one screen (DESIGN.md §8.5).
  static constexpr uint64_t kAdmitWork = uint64_t{1} << 20;

  /// A CONTEXT deletion on a path: the clicks before it, and the token.
  using Deletion = std::pair<uint32_t, Token>;

  /// The options that decide a screen, plus the path. Built by KeyOf.
  struct Key {
    /// k, λ, μ, σ, the refinement quota and the learning rate η. The
    /// doubles are keyed by their bits, so NaN cannot break the map's
    /// ordering.
    std::tuple<size_t, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t>
        options;
    std::vector<mining::GroupId> path;
    /// In the order they were recorded; empty for a path without any.
    std::vector<Deletion> unlearned;
    auto operator<=>(const Key&) const = default;
  };

  /// The key of the screen a session with these options shows after the
  /// clicks in `path` (empty: the first screen) and the deletions in
  /// `unlearned`. Only what changes a complete run's answer is keyed: σ,
  /// the quota and η only with an anchor. The time limit, remote scatterer
  /// and trace change how a run executes, not what it returns.
  static Key KeyOf(const GreedyOptions& options, double learning_rate,
                   std::vector<mining::GroupId> path,
                   std::vector<Deletion> unlearned = {});

  /// What a lookup found: a converged screen (a hit, with `memoized` set,
  /// zero work counters and `elapsed_ms` 0 for the caller to stamp), or
  /// else the record to resume from, empty on a miss.
  struct Lookup {
    std::optional<GreedySelection> screen;
    WorkRecord record;
  };
  /// Thread-safe.
  Lookup Find(const Key& key) const;

  /// Offers the outcome of a run on `key` that started from the record
  /// Find returned, and `record`, the work it holds now. `remote` says the
  /// run was a fleet run (GreedyOptions::remote_scatter set), which never
  /// qualifies by cost. Applies the admission rule (file comment); an
  /// existing entry keeps the longer record, and its first converged
  /// screen. A converged entry keeps only its screen. Returns whether the
  /// memo changed. Thread-safe.
  bool Store(const Key& key, const GreedySelection& run, WorkRecord record,
             bool remote = false);

  size_t size() const;

  /// What the memo holds, read under one lock.
  struct Stats {
    /// Converged screens, served as hits, and work records of cut runs.
    size_t screens = 0;
    size_t records = 0;
    /// Runs the admission rule accepted for a new path that were refused
    /// because the memo held kMaxEntries.
    uint64_t refused_full = 0;
    /// Entries by clicks on their path, index 0 through kMaxPathLength.
    std::vector<size_t> by_path_length;
  };
  Stats stats() const;

 private:
  struct Entry {
    std::optional<GreedySelection> screen;  // set once a run converged
    WorkRecord record;                      // empty once converged
  };

  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;  // guarded by mu_
  uint64_t refused_full_ = 0;     // guarded by mu_
};

}  // namespace vexus::core
