#include "server/session_manager.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"

namespace vexus::server {

namespace {

int64_t SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

/// One live (or dying) session slot. `mu` serializes ops on the session and
/// doubles as the idle/busy discriminator for eviction (try_lock fails ⇔
/// busy). `dead` flips exactly once, under `mu`, when the entry is evicted
/// or removed; a lease attempt that wins `mu` after that observes it and
/// reports NotFound. The shared_ptr keeps the storage alive for any thread
/// still blocked on `mu` when the map entry goes away.
struct SessionManager::Lease::Entry {
  std::mutex mu;
  std::unique_ptr<core::ExplorationSession> session;  // guarded by mu
  uint64_t generation = 0;                            // immutable
  bool dead = false;                                  // guarded by mu
  std::atomic<int64_t> last_used_us{0};
};

// ---------------------------------------------------------------------------
// Lease
// ---------------------------------------------------------------------------

SessionManager::Lease::Lease(std::shared_ptr<Entry> entry,
                             core::ExplorationSession* session,
                             uint64_t generation)
    : entry_(std::move(entry)), session_(session), generation_(generation) {}

SessionManager::Lease::~Lease() {
  if (entry_ == nullptr) return;  // moved-from
  entry_->last_used_us.store(SteadyNowMicros(), std::memory_order_relaxed);
  entry_->mu.unlock();
}

// ---------------------------------------------------------------------------
// SessionManager
// ---------------------------------------------------------------------------

SessionManager::SessionManager(const core::VexusEngine* engine,
                               SessionManagerOptions options,
                               ServiceMetrics* metrics)
    : engine_(engine), options_(options), metrics_(metrics) {
  VEXUS_CHECK(engine != nullptr);
  if (options_.max_sessions == 0) options_.max_sessions = 1;
}

SessionManager::~SessionManager() = default;

Result<uint64_t> SessionManager::Create(const std::string& id,
                                        core::SessionOptions session_options) {
  if (id.empty()) {
    return Status::InvalidArgument("session id must be non-empty");
  }
  // Chaos site: admission failing for reasons other than capacity (token
  // space allocation, a per-tenant quota layer).
  VEXUS_FAILPOINT("session_manager.create");
  // Lazy TTL pass: keeps long-idle sessions from blocking admissions even
  // when nobody calls SweepExpired().
  SweepIfDue();

  // Reserve a slot (CAS) so concurrent Creates cannot overshoot the cap.
  while (true) {
    size_t cur = count_.load(std::memory_order_relaxed);
    if (cur < options_.max_sessions) {
      if (count_.compare_exchange_weak(cur, cur + 1,
                                       std::memory_order_relaxed)) {
        break;
      }
      continue;
    }
    if (!EvictLruIdle()) {
      if (metrics_ != nullptr) metrics_->RecordAdmissionRejected();
      return Status::ResourceExhausted(
          "session limit reached (" + std::to_string(options_.max_sessions) +
          ") and no idle session is evictable");
    }
  }

  // Build the session outside the table lock. It is cheap (it points at
  // the engine's token space and screen memo), but its allocation has no
  // business under a lock every lookup takes.
  auto entry = std::make_shared<Lease::Entry>();
  entry->session = engine_->CreateSession(session_options);
  entry->generation =
      next_generation_.fetch_add(1, std::memory_order_relaxed);
  const int64_t now_us = SteadyNowMicros();
  entry->last_used_us.store(now_us, std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(mu_);
  if (!table_.emplace(id, entry).second) {
    count_.fetch_sub(1, std::memory_order_relaxed);  // release the slot
    return Status::AlreadyExists("session \"" + id + "\" is live");
  }
  if (options_.ttl_seconds > 0) {
    const int64_t expiry_us =
        now_us + static_cast<int64_t>(options_.ttl_seconds * 1e6);
    if (expiry_us < next_expiry_us_.load()) next_expiry_us_.store(expiry_us);
  }
  return entry->generation;
}

Result<std::shared_ptr<SessionManager::Lease::Entry>>
SessionManager::LockLive(const std::string& id, uint64_t expected_generation) {
  std::shared_ptr<Lease::Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = table_.find(id);
    if (it == table_.end()) {
      return Status::NotFound("session \"" + id + "\" does not exist");
    }
    entry = it->second;
  }
  // Block on the session's op lock *without* holding the table lock, so
  // one slow explorer never stalls lookups of the other sessions.
  entry->mu.lock();
  if (entry->dead) {
    entry->mu.unlock();
    return Status::NotFound("session \"" + id + "\" was evicted");
  }
  if (expected_generation != 0 &&
      expected_generation != entry->generation) {
    entry->mu.unlock();
    return Status::NotFound(
        "stale handle for session \"" + id + "\": generation " +
        std::to_string(expected_generation) + " != live generation " +
        std::to_string(entry->generation));
  }
  return entry;
}

Result<SessionManager::Lease> SessionManager::Acquire(
    const std::string& id, uint64_t expected_generation) {
  // Chaos site: lease acquisition failing/stalling (a sleep here simulates
  // a long-held lease; an error simulates lookup-layer trouble).
  VEXUS_FAILPOINT("session_manager.acquire");
  // TTL progress rides on every acquire, so a workload that only ever
  // touches a few hot sessions still expires the cold ones.
  SweepIfDue();
  VEXUS_ASSIGN_OR_RETURN(std::shared_ptr<Lease::Entry> entry,
                         LockLive(id, expected_generation));
  entry->last_used_us.store(SteadyNowMicros(), std::memory_order_relaxed);
  core::ExplorationSession* session = entry->session.get();
  uint64_t generation = entry->generation;
  return Lease(std::move(entry), session, generation);
}

Result<core::SessionDigest> SessionManager::Remove(
    const std::string& id, uint64_t expected_generation) {
  // Locking the entry drains an in-flight lease.
  VEXUS_ASSIGN_OR_RETURN(std::shared_ptr<Lease::Entry> entry,
                         LockLive(id, expected_generation));
  const core::SessionDigest digest = entry->session->Digest();
  std::unique_ptr<core::ExplorationSession> removed;
  {
    // Unlinked before the op lock is released, so a sweep never finds a
    // dead entry to evict (and count) a second time. A live entry whose
    // op lock is held cannot have left the table.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = table_.find(id);
    VEXUS_DCHECK(it != table_.end() && it->second == entry);
    removed = Retire(it);
  }
  return digest;
}

std::unique_ptr<core::ExplorationSession> SessionManager::Retire(
    Table::iterator it) {
  Lease::Entry& entry = *it->second;
  entry.dead = true;
  std::unique_ptr<core::ExplorationSession> session =
      std::move(entry.session);
  entry.mu.unlock();
  table_.erase(it);
  count_.fetch_sub(1, std::memory_order_relaxed);
  return session;
}

void SessionManager::SweepIfDue() {
  if (SteadyNowMicros() >= next_expiry_us_.load()) SweepExpired();
}

size_t SessionManager::SweepExpired() {
  if (options_.ttl_seconds <= 0) return 0;
  // Chaos site: a sleep here makes the TTL sweep slow, widening the race
  // between eviction and concurrent Acquire/Create.
  VEXUS_FAILPOINT_HIT("session_manager.evict");
  const int64_t ttl_us = static_cast<int64_t>(options_.ttl_seconds * 1e6);
  // Destroyed after the table lock is released: a session's feedback
  // vector is megabytes at paper scale.
  std::vector<std::unique_ptr<core::ExplorationSession>> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const int64_t now_us = SteadyNowMicros();
    int64_t next_expiry_us = INT64_MAX;
    for (auto it = table_.begin(); it != table_.end();) {
      const int64_t expiry_us =
          it->second->last_used_us.load(std::memory_order_relaxed) + ttl_us;
      if (expiry_us <= now_us && it->second->mu.try_lock()) {
        evicted.push_back(Retire(it++));
        continue;
      }
      // A leased entry is skipped, not waited for: its lease release
      // stamps last_used_us at about now, so it expires at now + ttl at
      // the earliest.
      next_expiry_us = std::min(
          next_expiry_us, expiry_us > now_us ? expiry_us : now_us + ttl_us);
      ++it;
    }
    next_expiry_us_.store(next_expiry_us);
  }
  if (metrics_ != nullptr) {
    for (size_t i = 0; i < evicted.size(); ++i) metrics_->RecordEvictionTtl();
  }
  return evicted.size();
}

bool SessionManager::EvictLruIdle() {
  std::unique_ptr<core::ExplorationSession> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // One pass: hold the op lock of the oldest idle entry seen so far.
    auto victim = table_.end();
    int64_t victim_used_us = 0;
    for (auto it = table_.begin(); it != table_.end(); ++it) {
      const int64_t last_used_us =
          it->second->last_used_us.load(std::memory_order_relaxed);
      if (victim != table_.end() && last_used_us >= victim_used_us) continue;
      if (!it->second->mu.try_lock()) continue;  // busy: never evict a lease
      if (victim != table_.end()) victim->second->mu.unlock();
      victim = it;
      victim_used_us = last_used_us;
    }
    if (victim == table_.end()) return false;
    evicted = Retire(victim);
  }
  if (metrics_ != nullptr) metrics_->RecordEvictionLru();
  return true;
}

}  // namespace vexus::server
