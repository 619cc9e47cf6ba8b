// OverloadController — CoDel-style graceful-degradation ladder for the
// serving path.
//
// The paper's interactivity promise (100 ms per exploration step) has to
// survive sustained overload, and the fixed `max_queue_depth` shed of PR 1
// is a blunt instrument: it answers ResourceExhausted the moment a burst
// outruns the workers, even when shaving greedy effort would have kept
// everyone inside the budget. This controller replaces "shed first" with a
// ladder that trades *answer quality* for latency one rung at a time and
// only sheds when nothing cheaper is left:
//
//   rung 0  kNormal        full effort
//   rung 1  kShrinkEffort  greedy budget × kEffortFactor; only a screen
//                          that budget cut is flagged degraded:"effort"
//   rung 2  kStale         select_group answers the session's *cached*
//                          current screen (degraded:"stale"), skipping the
//                          greedy loop entirely
//   rung 3  kShed          admission control rejects (ResourceExhausted)
//
// The signal is CoDel's (Nichols & Jacobson, CACM 2012): the *minimum*
// queueing delay observed over a sliding window, and there is exactly one —
// the dispatcher's per-request delay between admission and worker pickup.
// Service time (gather laps) and transport stalls (a slow reader's write
// buffer) are not queueing and never feed the ladder: one slow shard or
// stalled reader would otherwise degrade every healthy screen. Minimum, not
// mean — under bursty-but-healthy load the queue drains at least once per
// window and the min is ~0; a min that stays above kTargetDelayMs for a
// whole window means a standing queue that no burst tolerance explains.
// Each window close moves the ladder at most one rung (up when min >
// target, down when min < target/2; the hysteresis band in between holds),
// so the ladder cannot flap screen-to-screen.
//
// Mechanics are lock-free: workers call OnQueueDelay(delay) at task pickup;
// the sample folds into an atomic min, and the thread that notices the
// window elapsed closes it with a CAS (losers simply keep sampling into the
// next window). Rung reads on the admission path are one relaxed load.
//
// Recovery from kShed needs care: a rung-3 controller that shed *all*
// admissions would starve itself of queue-delay samples and stick at 3
// forever. The dispatcher therefore keeps admitting while the standing
// queue is at or below `kShedKeepDepth` — those probe requests re-measure
// the queue and walk the ladder back down as the drain completes.
#pragma once

#include <atomic>
#include <cstdint>
#include <string_view>

namespace vexus::server {

struct OverloadOptions {
  /// Master switch. Disabled: rung stays kNormal forever and the dispatcher
  /// behaves exactly as in PR 1 (fixed-depth shedding only).
  bool enabled = true;
  /// Window length. 100 ms ≈ one request budget: the ladder reacts within
  /// a screen or two, but never mid-request.
  double window_ms = 100.0;
};

/// The ladder's rungs, in escalation order. Plain enum values double as the
/// JSON-visible integers in health probes and metrics.
enum class OverloadRung : int {
  kNormal = 0,
  kShrinkEffort = 1,
  kStale = 2,
  kShed = 3,
};
inline constexpr int kNumOverloadRungs = 4;

/// Stable lowercase name ("normal", "shrink_effort", ...) for health JSON.
std::string_view OverloadRungName(OverloadRung rung);

/// CoDel target: a window whose *minimum* queue delay exceeds this has a
/// standing queue → escalate one rung. 5 ms is 1/20 of the interactivity
/// budget — queueing beyond that eats into greedy time for every request.
inline constexpr double kTargetDelayMs = 5.0;
/// Rung >= kShrinkEffort: the greedy time budget is multiplied by this.
inline constexpr double kEffortFactor = 0.5;
/// Rung kShed: the dispatcher keeps admitting while the standing queue is
/// at or below this depth, so the controller still sees fresh delay samples
/// and can de-escalate once the drain completes.
inline constexpr size_t kShedKeepDepth = 4;

class OverloadController {
 public:
  explicit OverloadController(OverloadOptions options = {});

  OverloadController(const OverloadController&) = delete;
  OverloadController& operator=(const OverloadController&) = delete;

  /// One queue-delay sample (ms a request waited between admission and
  /// worker pickup). Called by the dispatcher for every executing task;
  /// lock-free.
  void OnQueueDelay(double delay_ms);

  /// Current rung; one relaxed load (the admission path reads this).
  OverloadRung rung() const {
    return static_cast<OverloadRung>(rung_.load(std::memory_order_relaxed));
  }

  /// Minimum queue delay of the last *closed* window, ms (0 before any
  /// window closed). Health probes report this.
  double last_window_min_delay_ms() const {
    return last_min_us_.load(std::memory_order_relaxed) / 1e3;
  }

  /// Cumulative rung escalations (up-moves), for health/metrics.
  uint64_t escalations() const {
    return escalations_.load(std::memory_order_relaxed);
  }

  const OverloadOptions& options() const { return options_; }

  /// Test hook: force a rung (bypasses the window state machine).
  void ForceRungForTesting(OverloadRung rung) {
    rung_.store(static_cast<int>(rung), std::memory_order_relaxed);
  }

 private:
  /// Monotonic clock, microseconds.
  static uint64_t NowMicros();

  OverloadOptions options_;
  std::atomic<int> rung_{0};
  std::atomic<uint64_t> window_start_us_;
  /// Min delay (us) seen in the open window; UINT64_MAX = no sample yet.
  std::atomic<uint64_t> window_min_us_{UINT64_MAX};
  std::atomic<uint64_t> last_min_us_{0};
  std::atomic<uint64_t> escalations_{0};
};

}  // namespace vexus::server
