// Wall-clock stopwatch and deadline helpers used to enforce the paper's
// 100 ms "continuity preserving latency" budget in the anytime greedy
// optimizer (principle P3), and to time benchmark phases.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>

namespace vexus {

/// Monotonic stopwatch. Starts on construction; Restart() resets.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Elapsed time since construction/Restart.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }
  int64_t ElapsedMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                 start_)
        .count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A point in monotonic time after which anytime algorithms must stop.
///
/// Deadline::Infinite() never expires — used by benchmarks that measure the
/// unbounded optimum (experiment E1's denominator).
class Deadline {
 public:
  /// Expires `millis` from now.
  ///
  /// Budget clamping (the serving layer and the greedy loop both rely on
  /// this being uniform): zero, negative, or NaN budgets yield an
  /// *already-expired* deadline ("expire immediately"); +infinity and
  /// anything beyond ~30 years yield an infinite deadline. This keeps
  /// `Deadline::AfterMillis(remaining_budget)` safe no matter what arithmetic
  /// produced `remaining_budget`.
  static Deadline AfterMillis(double millis) {
    if (std::isnan(millis) || millis <= 0) {
      return Deadline(Clock::time_point::min());
    }
    if (millis >= kInfiniteBudgetMillis) return Infinite();
    return Deadline(Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(millis)));
  }

  /// Never expires.
  static Deadline Infinite() { return Deadline(Clock::time_point::max()); }

  /// Budgets at or above this many milliseconds (~30 years) are treated as
  /// infinite by AfterMillis. Callers that want "unbounded" should pass
  /// std::numeric_limits<double>::infinity().
  static constexpr double kInfiniteBudgetMillis = 1e12;

  bool Expired() const {
    return when_ != Clock::time_point::max() && Clock::now() >= when_;
  }

  bool IsInfinite() const { return when_ == Clock::time_point::max(); }

  /// Expires the deadline now, for good. The greedy's failpoint sites use
  /// it as a deterministic stand-in for the clock running out.
  void Expire() { when_ = Clock::time_point::min(); }

  /// Remaining budget in milliseconds (clamped at 0; huge when infinite).
  ///
  /// Unified with Expired(): for every non-infinite deadline,
  /// `Expired() == (RemainingMillis() == 0)`. The born-expired sentinel
  /// (time_point::min(), produced by AfterMillis for zero/negative/NaN
  /// budgets) is special-cased *before* any subtraction — computing
  /// `min() - now()` underflows the clock's integer representation (UB)
  /// and used to wrap to a huge *positive* remaining budget, handing an
  /// already-expired request an effectively unbounded greedy time limit.
  double RemainingMillis() const {
    if (IsInfinite()) return 1e18;
    if (when_ == Clock::time_point::min()) return 0;  // born expired
    auto now = Clock::now();
    if (now >= when_) return 0;
    return std::chrono::duration<double, std::milli>(when_ - now).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  explicit Deadline(Clock::time_point when) : when_(when) {}
  Clock::time_point when_;
};

}  // namespace vexus
