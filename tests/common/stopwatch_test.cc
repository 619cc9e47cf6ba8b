#include "common/stopwatch.h"

#include <limits>
#include <thread>

#include <gtest/gtest.h>

namespace vexus {
namespace {

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  double ms = w.ElapsedMillis();
  EXPECT_GE(ms, 15.0);
  EXPECT_LT(ms, 5000.0);
}

TEST(StopwatchTest, RestartResets) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  w.Restart();
  EXPECT_LT(w.ElapsedMillis(), 15.0);
}

TEST(StopwatchTest, UnitsAgree) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  double s = w.ElapsedSeconds();
  double ms = w.ElapsedMillis();
  EXPECT_NEAR(ms, s * 1000.0, 50.0);
  EXPECT_GT(w.ElapsedMicros(), 0);
}

TEST(DeadlineTest, ExpiresAfterBudget) {
  Deadline d = Deadline::AfterMillis(10);
  EXPECT_FALSE(d.IsInfinite());
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  EXPECT_TRUE(d.Expired());
  EXPECT_DOUBLE_EQ(d.RemainingMillis(), 0.0);
}

TEST(DeadlineTest, NotExpiredImmediately) {
  Deadline d = Deadline::AfterMillis(10000);
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingMillis(), 5000.0);
}

TEST(DeadlineTest, InfiniteNeverExpires) {
  Deadline d = Deadline::Infinite();
  EXPECT_TRUE(d.IsInfinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingMillis(), 1e12);
}

TEST(DeadlineTest, NegativeBudgetExpiresImmediately) {
  Deadline d = Deadline::AfterMillis(-5);
  EXPECT_TRUE(d.Expired());
}

TEST(DeadlineTest, ZeroBudgetExpiresImmediately) {
  Deadline d = Deadline::AfterMillis(0);
  EXPECT_TRUE(d.Expired());
}

TEST(DeadlineTest, BornExpiredReportsZeroRemaining) {
  // Regression: the born-expired sentinel is time_point::min(); computing
  // `min() - now()` underflowed the clock's integer representation and
  // wrapped to a huge *positive* remaining budget — an already-expired
  // request then handed the greedy loop an effectively unbounded time
  // limit. Expired() and RemainingMillis() must agree.
  for (double budget : {0.0, -1.0, -1e9,
                        std::numeric_limits<double>::quiet_NaN()}) {
    Deadline d = Deadline::AfterMillis(budget);
    EXPECT_TRUE(d.Expired()) << "budget=" << budget;
    EXPECT_DOUBLE_EQ(d.RemainingMillis(), 0.0) << "budget=" << budget;
  }
}

TEST(DeadlineTest, ExpiredAndRemainingAgreeForTinyBudgets) {
  // For any non-infinite deadline: Expired() == (RemainingMillis() == 0),
  // before and after the expiry instant.
  Deadline d = Deadline::AfterMillis(0.5);
  if (!d.Expired()) {
    EXPECT_GT(d.RemainingMillis(), 0.0);
  }
  while (!d.Expired()) {
  }
  EXPECT_DOUBLE_EQ(d.RemainingMillis(), 0.0);
}

TEST(DeadlineTest, HugeBudgetsBecomeInfinite) {
  EXPECT_TRUE(Deadline::AfterMillis(Deadline::kInfiniteBudgetMillis)
                  .IsInfinite());
  EXPECT_TRUE(
      Deadline::AfterMillis(std::numeric_limits<double>::infinity())
          .IsInfinite());
  EXPECT_FALSE(Deadline::AfterMillis(1e9).IsInfinite());
}

}  // namespace
}  // namespace vexus
