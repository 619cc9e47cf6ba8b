// ScreenMemo — the engine's cache of GROUPVIZ screens, keyed by click path.
//
// A session's feedback state is a function of its click path: Start()
// empties the vector, and each SelectGroup(g) runs Learn(g) before the
// greedy (paper §II.B). So for fixed options a screen is a function of the
// path, and every session that repeats a path asks for the same screen. The
// memo keeps, per (options, path):
//
//   * a converged screen, served as a hit with no greedy run; or
//   * the work record (greedy.h) of runs the deadline cut, which the next
//     select on the path continues instead of redoing. A path converges
//     after a few visits and is then a hit.
//
// Admission follows cost, with no option. The empty path (the first
// screen) is stored when its run converges. Any other path is stored when
// a run for it was expensive: the deadline cut it, which stores its work
// record, or it converged after its own work took at least kEffortFactor
// of the time limit it ran under, which stores it as a hit. That is a run
// the overload ladder's first rung would have cut even on an idle machine.
// Work is the run's thread CPU time (GreedySelection::cpu_ms), not its
// wall-clock: time spent preempted or waiting on a gather lap depends on
// the moment, not the path, and admitting by it would make which paths get
// cached a matter of chance. A run with no finite limit
// (GreedySelection::time_limit_ms), such as an unbounded reference or a
// selection built by hand, never qualifies by cost, so a workload whose
// selects compute in under half their budget admits only its first
// screens. A
// stored screen equals an unbounded run on the replayed path: a converged
// run makes the same passes as an unbounded one, and a run that resumed a
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
#include <vector>

#include "core/greedy.h"

namespace vexus::core {

class ScreenMemo {
 public:
  /// Entries held at most. A full memo stops admitting new paths (counted
  /// in Stats::refused_full); lookups still hit, and stored records still
  /// advance.
  static constexpr size_t kMaxEntries = 1024;
  /// Clicks in the longest path the memo stores; longer paths are never
  /// admitted.
  static constexpr size_t kMaxPathLength = 8;

  /// The options that decide a screen, plus the click path. Built by KeyOf.
  struct Key {
    /// k, λ, μ, σ, the refinement quota, the learning rate η and the
    /// candidate cap. The doubles are keyed by their bits, so NaN cannot
    /// break the map's ordering.
    std::tuple<size_t, uint64_t, uint64_t, uint64_t, uint64_t, uint64_t,
               size_t>
        options;
    std::vector<mining::GroupId> path;
    bool operator<(const Key& other) const {
      return std::tie(options, path) < std::tie(other.options, other.path);
    }
  };

  /// The key of the screen a session with these options shows after the
  /// clicks in `path` (empty: the first screen). Only what changes a
  /// complete run's answer is keyed: σ, the quota and η only with an anchor,
  /// the candidate cap only without one. The time limit, remote scatterer
  /// and trace change how a run executes, not what it returns.
  static Key KeyOf(const GreedyOptions& options, double learning_rate,
                   std::vector<mining::GroupId> path);

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
  /// Find returned, and `record`, the work it holds now. Applies the
  /// admission rule (file comment); an existing entry keeps the longer
  /// record, and its first converged screen. A converged entry keeps only
  /// its screen. Returns whether the memo changed. Thread-safe.
  bool Store(const Key& key, const GreedySelection& run, WorkRecord record);

  size_t size() const;

  /// What the memo holds, read under one lock.
  struct Stats {
    /// Converged screens, served as hits, and work records of cut runs.
    size_t screens = 0;
    size_t records = 0;
    /// Runs the admission rule accepted for a new path that were refused
    /// because the memo held kMaxEntries.
    uint64_t refused_full = 0;
    /// Entries by path length, index 0 through kMaxPathLength.
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
