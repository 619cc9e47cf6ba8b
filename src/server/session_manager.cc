#include "server/session_manager.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <unordered_map>

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

struct SessionManager::Shard {
  std::mutex mu;
  std::unordered_map<std::string, std::shared_ptr<Lease::Entry>> map;
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
  if (options_.num_shards == 0) options_.num_shards = 1;
  if (options_.max_sessions == 0) options_.max_sessions = 1;
  shards_.reserve(options_.num_shards);
  for (size_t i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SessionManager::~SessionManager() = default;

SessionManager::Shard& SessionManager::ShardOf(const std::string& id) {
  size_t h = std::hash<std::string>{}(id);
  return *shards_[h % shards_.size()];
}

int64_t SessionManager::NowMicros() const { return SteadyNowMicros(); }

Result<uint64_t> SessionManager::Create(const std::string& id,
                                        core::SessionOptions session_options) {
  if (id.empty()) {
    return Status::InvalidArgument("session id must be non-empty");
  }
  // Chaos site: admission failing for reasons other than capacity (token
  // space allocation, a per-tenant quota layer).
  VEXUS_FAILPOINT("session_manager.create");
  Shard& shard = ShardOf(id);
  // Lazy TTL pass over the target shard keeps long-idle sessions from
  // blocking admissions even when nobody calls SweepExpired(); the
  // round-robin step extends that guarantee to shards no access hashes to.
  SweepShard(shard);
  SweepNextShard();

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

  // Build the session outside the shard lock. It is cheap (it points at
  // the engine's token space and screen memo), but its allocation
  // has no business under a lock every lookup of this shard takes.
  auto entry = std::make_shared<Lease::Entry>();
  entry->session = engine_->CreateSession(session_options);
  entry->generation =
      next_generation_.fetch_add(1, std::memory_order_relaxed);
  entry->last_used_us.store(NowMicros(), std::memory_order_relaxed);

  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.map.emplace(id, entry);
    if (!inserted) {
      count_.fetch_sub(1, std::memory_order_relaxed);  // release the slot
      return Status::AlreadyExists("session \"" + id + "\" is live");
    }
  }
  return entry->generation;
}

Result<SessionManager::Lease> SessionManager::Acquire(
    const std::string& id, uint64_t expected_generation) {
  // Chaos site: lease acquisition failing/stalling (a sleep here simulates
  // a long-held lease; an error simulates lookup-layer trouble).
  VEXUS_FAILPOINT("session_manager.acquire");
  // Cross-shard TTL progress rides on every acquire (cheap: one try-lock
  // walk of one shard), so a workload that only ever touches a few hot
  // sessions still expires the cold ones parked in other shards.
  SweepNextShard();
  Shard& shard = ShardOf(id);
  std::shared_ptr<Lease::Entry> entry;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(id);
    if (it == shard.map.end()) {
      return Status::NotFound("session \"" + id + "\" does not exist");
    }
    entry = it->second;
  }
  // Block on the session's op lock *without* holding the shard lock, so one
  // slow explorer never stalls the other sessions hashed to this shard.
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
  entry->last_used_us.store(NowMicros(), std::memory_order_relaxed);
  core::ExplorationSession* session = entry->session.get();
  uint64_t generation = entry->generation;
  return Lease(std::move(entry), session, generation);
}

Result<core::SessionDigest> SessionManager::Remove(
    const std::string& id, uint64_t expected_generation) {
  Shard& shard = ShardOf(id);
  std::shared_ptr<Lease::Entry> entry;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(id);
    if (it == shard.map.end()) {
      return Status::NotFound("session \"" + id + "\" does not exist");
    }
    entry = it->second;
  }
  core::SessionDigest digest;
  {
    std::lock_guard<std::mutex> lock(entry->mu);  // drain in-flight lease
    if (entry->dead) {
      return Status::NotFound("session \"" + id + "\" was evicted");
    }
    if (expected_generation != 0 &&
        expected_generation != entry->generation) {
      return Status::NotFound(
          "stale handle for session \"" + id + "\": generation " +
          std::to_string(expected_generation) + " != live generation " +
          std::to_string(entry->generation));
    }
    entry->dead = true;
    digest = entry->session->Digest();
    entry->session.reset();
  }
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(id);
    if (it != shard.map.end() && it->second == entry) shard.map.erase(it);
  }
  count_.fetch_sub(1, std::memory_order_relaxed);
  return digest;
}

size_t SessionManager::SweepShard(Shard& shard) {
  if (options_.ttl_seconds <= 0) return 0;
  // Chaos site: a sleep here makes the TTL sweep slow, widening the race
  // between eviction and concurrent Acquire/Create on the same shard.
  VEXUS_FAILPOINT_HIT("session_manager.evict");
  int64_t horizon_us =
      NowMicros() - static_cast<int64_t>(options_.ttl_seconds * 1e6);
  size_t evicted = 0;
  std::lock_guard<std::mutex> lock(shard.mu);
  for (auto it = shard.map.begin(); it != shard.map.end();) {
    auto& entry = it->second;
    if (entry->last_used_us.load(std::memory_order_relaxed) >= horizon_us) {
      ++it;
      continue;
    }
    // Busy entries are skipped, not waited for: their lease release bumps
    // last_used_us anyway.
    if (!entry->mu.try_lock()) {
      ++it;
      continue;
    }
    entry->dead = true;
    entry->session.reset();
    entry->mu.unlock();
    it = shard.map.erase(it);
    count_.fetch_sub(1, std::memory_order_relaxed);
    ++evicted;
    if (metrics_ != nullptr) metrics_->RecordEvictionTtl();
  }
  return evicted;
}

void SessionManager::SweepNextShard() {
  if (options_.ttl_seconds <= 0) return;
  size_t idx =
      sweep_cursor_.fetch_add(1, std::memory_order_relaxed) % shards_.size();
  SweepShard(*shards_[idx]);
}

size_t SessionManager::SweepExpired() {
  size_t evicted = 0;
  for (auto& shard : shards_) evicted += SweepShard(*shard);
  return evicted;
}

bool SessionManager::EvictLruIdle() {
  // Pass 1: rank all live entries by idle time (no entry locks taken).
  struct Candidate {
    int64_t last_used_us;
    size_t shard;
    std::string id;
  };
  std::vector<Candidate> candidates;
  for (size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> lock(shards_[s]->mu);
    for (const auto& [id, entry] : shards_[s]->map) {
      candidates.push_back(
          {entry->last_used_us.load(std::memory_order_relaxed), s, id});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.last_used_us < b.last_used_us;
            });
  // Pass 2: evict the oldest entry that is still present and idle.
  for (const Candidate& c : candidates) {
    Shard& shard = *shards_[c.shard];
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(c.id);
    if (it == shard.map.end()) continue;
    auto& entry = it->second;
    if (!entry->mu.try_lock()) continue;  // busy: never evict under a lease
    entry->dead = true;
    entry->session.reset();
    entry->mu.unlock();
    shard.map.erase(it);
    count_.fetch_sub(1, std::memory_order_relaxed);
    if (metrics_ != nullptr) metrics_->RecordEvictionLru();
    return true;
  }
  return false;
}

}  // namespace vexus::server
