// SessionManager — many named ExplorationSessions behind one table.
//
// The serving substrate's stateful half: each concurrent explorer owns one
// named session; requests acquire an exclusive per-session lease for the
// duration of one op (the paper's navigation loop is inherently sequential
// per explorer — selection feeds learning feeds the next selection — so
// per-session serialization is semantics, not a bottleneck; throughput comes
// from running *different* explorers' ops in parallel). The table is one
// mutex and one map: a lookup holds the lock for one hash probe, and a
// session's op lock is taken only after the table lock is released.
//
// Life-cycle guarantees:
//   * Admission control: at most `max_sessions` live sessions; Create on a
//     full manager first tries to evict the least-recently-used *idle*
//     session, then fails with ResourceExhausted.
//   * TTL: sessions idle longer than `ttl` are evicted lazily or by an
//     explicit SweepExpired(). Create and Acquire sweep the whole table
//     once the clock reaches the earliest expiry the last sweep saw
//     (lowered by every Create), so under any traffic pattern — one hot
//     session included — an idle session expires at the first Create or
//     Acquire after its TTL, and no access before that time pays for a
//     sweep.
//   * Generations: every Create stamps a process-unique, monotonically
//     increasing generation. A client that cached a handle to a session
//     that was evicted and re-created under the same name observes NotFound
//     (stale generation) instead of silently mutating a stranger's session.
//   * Eviction vs. in-flight requests: leases pin the entry; eviction only
//     removes *idle* entries from the map and marks them dead, so a worker
//     mid-request never has its session deleted under it, and a lease
//     attempt racing eviction fails cleanly with NotFound. Evicted sessions
//     are destroyed after the table lock is released.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "core/engine.h"
#include "core/session.h"
#include "server/metrics.h"

namespace vexus::server {

struct SessionManagerOptions {
  /// Hard cap on live sessions (admission control).
  size_t max_sessions = 1024;
  /// Idle sessions older than this are evictable; <= 0 disables TTL.
  double ttl_seconds = 15 * 60.0;
};

class SessionManager {
 public:
  /// `engine` must outlive the manager; `metrics` may be null.
  SessionManager(const core::VexusEngine* engine, SessionManagerOptions options,
                 ServiceMetrics* metrics = nullptr);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Exclusive, RAII access to one session. Movable, not copyable. While a
  /// lease is held the session cannot be evicted or concurrently mutated.
  class Lease {
   public:
    Lease(Lease&&) noexcept = default;
    /// Move-assignment would have to drop an existing lease mid-expression;
    /// construct a fresh Lease instead.
    Lease& operator=(Lease&&) = delete;
    ~Lease();

    core::ExplorationSession* operator->() { return session_; }
    core::ExplorationSession& operator*() { return *session_; }
    core::ExplorationSession* session() { return session_; }
    uint64_t generation() const { return generation_; }

   private:
    friend class SessionManager;
    struct Entry;
    Lease(std::shared_ptr<Entry> entry, core::ExplorationSession* session,
          uint64_t generation);

    std::shared_ptr<Entry> entry_;
    core::ExplorationSession* session_ = nullptr;
    uint64_t generation_ = 0;
  };

  /// Creates a named session. Fails with AlreadyExists when the name is
  /// live, ResourceExhausted when the manager is full and nothing is
  /// evictable. Returns the new session's generation (for stale-handle
  /// fencing).
  Result<uint64_t> Create(const std::string& id,
                          core::SessionOptions session_options);

  /// Acquires the exclusive lease on a live session. `expected_generation`
  /// of 0 skips the fence; a non-zero mismatch fails with NotFound, as does
  /// an unknown or evicted id. Blocks while another lease is outstanding.
  Result<Lease> Acquire(const std::string& id, uint64_t expected_generation = 0);

  /// Explicit termination (the end_session op). Returns the digest of the
  /// removed session, NotFound if unknown (or when a non-zero
  /// `expected_generation` does not match — same fence as Acquire). Blocks
  /// until in-flight leases on the session drain.
  Result<core::SessionDigest> Remove(const std::string& id,
                                     uint64_t expected_generation = 0);

  /// Evicts every idle session past its TTL, whatever the expiry gate
  /// reads; returns how many.
  size_t SweepExpired();

  /// Live session count (gauge; racy by nature).
  size_t size() const { return count_.load(std::memory_order_relaxed); }

 private:
  using Table =
      std::unordered_map<std::string, std::shared_ptr<Lease::Entry>>;

  /// The live entry `id` names, its op lock held by the caller on
  /// success. NotFound for an unknown, evicted or (with a non-zero
  /// `expected_generation`) re-created session.
  Result<std::shared_ptr<Lease::Entry>> LockLive(const std::string& id,
                                                 uint64_t expected_generation);
  /// SweepExpired(), once the clock has reached next_expiry_us_.
  void SweepIfDue();
  /// Attempts one LRU eviction; true on success.
  bool EvictLruIdle();
  /// Unlinks `it` (the caller holds mu_ and the entry's op lock), marks
  /// it dead, releases its op lock and returns its session, for the caller
  /// to destroy once mu_ is released.
  std::unique_ptr<core::ExplorationSession> Retire(Table::iterator it);

  const core::VexusEngine* engine_;
  SessionManagerOptions options_;
  ServiceMetrics* metrics_;
  std::mutex mu_;
  Table table_;  // guarded by mu_
  /// No session expires before this time (steady-clock µs): the earliest
  /// last_used + ttl the last sweep saw, lowered by every Create. Written
  /// under mu_; Create and Acquire read it without the lock.
  std::atomic<int64_t> next_expiry_us_{INT64_MAX};
  std::atomic<uint64_t> next_generation_{1};
  std::atomic<size_t> count_{0};
};

}  // namespace vexus::server
