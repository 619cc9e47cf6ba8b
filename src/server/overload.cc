#include "server/overload.h"

#include <algorithm>
#include <chrono>

#include "common/failpoint.h"

namespace vexus::server {

std::string_view OverloadRungName(OverloadRung rung) {
  switch (rung) {
    case OverloadRung::kNormal:
      return "normal";
    case OverloadRung::kShrinkEffort:
      return "shrink_effort";
    case OverloadRung::kStale:
      return "stale";
    case OverloadRung::kShed:
      return "shed";
  }
  return "unknown";
}

OverloadController::OverloadController(OverloadOptions options)
    : options_(options), window_start_us_(NowMicros()) {
  if (options_.window_ms <= 0) options_.window_ms = 100.0;
}

uint64_t OverloadController::NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void OverloadController::OnQueueDelay(double delay_ms) {
  if (!options_.enabled) return;
  const auto sample_us =
      static_cast<uint64_t>(std::max(0.0, delay_ms) * 1e3);

  // Fold the sample into the open-window min.
  uint64_t seen = window_min_us_.load(std::memory_order_relaxed);
  while (sample_us < seen &&
         !window_min_us_.compare_exchange_weak(seen, sample_us,
                                               std::memory_order_relaxed)) {
  }

  // Window close: first sampler past the boundary wins the CAS and applies
  // the ladder move; losers keep folding into the (now reset) next window.
  const uint64_t now = NowMicros();
  VEXUS_FAILPOINT_HIT("overload.window_close");  // test site: delays the load
  uint64_t start = window_start_us_.load(std::memory_order_relaxed);
  const auto window_us = static_cast<uint64_t>(options_.window_ms * 1e3);
  // By addition: another sampler may have closed the window after our clock
  // read, and unsigned `now - start` would then wrap and look elapsed.
  if (now < start + window_us) return;
  if (!window_start_us_.compare_exchange_strong(start, now,
                                                std::memory_order_relaxed)) {
    return;  // another thread is closing this window
  }

  // We own the close. Read-and-reset the window min. A sample racing in
  // between the exchange and the rung update lands in the next window —
  // fine, the controller is a trend follower, not an exact accountant.
  uint64_t min_us = window_min_us_.exchange(UINT64_MAX,
                                            std::memory_order_relaxed);
  if (min_us == UINT64_MAX) min_us = sample_us;  // we *are* a sample
  last_min_us_.store(min_us, std::memory_order_relaxed);

  const auto target_us = static_cast<uint64_t>(kTargetDelayMs * 1e3);
  int r = rung_.load(std::memory_order_relaxed);
  if (min_us > target_us) {
    // Standing queue: even the emptiest instant of the window was over
    // target. Degrade one rung.
    if (r < kNumOverloadRungs - 1) {
      rung_.store(r + 1, std::memory_order_relaxed);
      escalations_.fetch_add(1, std::memory_order_relaxed);
    }
  } else if (min_us * 2 < target_us && r > 0) {
    // Comfortably under target (hysteresis: < target/2): recover one rung.
    rung_.store(r - 1, std::memory_order_relaxed);
  }
}

}  // namespace vexus::server
