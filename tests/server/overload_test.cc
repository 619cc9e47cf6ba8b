#include "server/overload.h"

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "server/dispatcher.h"
#include "server/metrics.h"

namespace vexus::server {
namespace {

/// Controller tuned so tests can close windows quickly.
OverloadOptions FastOptions() {
  OverloadOptions o;
  o.window_ms = 10.0;
  return o;
}

void SleepMs(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

TEST(OverloadControllerTest, StartsAtNormal) {
  OverloadController c(FastOptions());
  EXPECT_EQ(c.rung(), OverloadRung::kNormal);
  EXPECT_EQ(c.escalations(), 0u);
}

TEST(OverloadControllerTest, RungNamesAreStable) {
  EXPECT_EQ(OverloadRungName(OverloadRung::kNormal), "normal");
  EXPECT_EQ(OverloadRungName(OverloadRung::kShrinkEffort), "shrink_effort");
  EXPECT_EQ(OverloadRungName(OverloadRung::kStale), "stale");
  EXPECT_EQ(OverloadRungName(OverloadRung::kShed), "shed");
}

TEST(OverloadControllerTest, SustainedHighDelayEscalatesOneRungPerWindow) {
  OverloadController c(FastOptions());
  // Feed samples all far above target; each closed window moves exactly one
  // rung, so the ladder climbs kNormal → kShed over >= 3 windows.
  int closed_before_shed = 0;
  while (c.rung() != OverloadRung::kShed && closed_before_shed < 100) {
    OverloadRung before = c.rung();
    c.OnQueueDelay(50.0);
    OverloadRung after = c.rung();
    // At most one rung per sample (and only when a window closed).
    EXPECT_LE(static_cast<int>(after), static_cast<int>(before) + 1);
    if (after != before) ++closed_before_shed;
    SleepMs(2.0);
  }
  EXPECT_EQ(c.rung(), OverloadRung::kShed);
  EXPECT_EQ(c.escalations(), 3u) << "one escalation per rung climbed";
  EXPECT_GT(c.last_window_min_delay_ms(), 5.0);
}

TEST(OverloadControllerTest, LowDelayRecoversOneRungPerWindow) {
  OverloadController c(FastOptions());
  c.ForceRungForTesting(OverloadRung::kShed);
  while (c.rung() != OverloadRung::kNormal) {
    c.OnQueueDelay(0.1);  // far under target/2
    SleepMs(2.0);
  }
  EXPECT_EQ(c.rung(), OverloadRung::kNormal);
  // Recovery is not an escalation.
  EXPECT_EQ(c.escalations(), 0u);
}

TEST(OverloadControllerTest, HysteresisBandHolds) {
  OverloadController c(FastOptions());
  c.ForceRungForTesting(OverloadRung::kShrinkEffort);
  // Samples between target/2 and target: neither escalate nor recover.
  for (int i = 0; i < 20; ++i) {
    c.OnQueueDelay(3.5);  // target 5, target/2 = 2.5
    SleepMs(1.5);
  }
  EXPECT_EQ(c.rung(), OverloadRung::kShrinkEffort);
}

TEST(OverloadControllerTest, MinOverWindowIgnoresBursts) {
  // CoDel's key property: a window with even one near-zero sample means the
  // queue fully drained — bursts within it must not escalate.
  OverloadController c(FastOptions());
  for (int w = 0; w < 8; ++w) {
    c.OnQueueDelay(80.0);  // burst
    c.OnQueueDelay(0.0);   // ...but the queue drained
    SleepMs(2.0);
  }
  EXPECT_EQ(c.rung(), OverloadRung::kNormal);
}

TEST(OverloadControllerTest, DisabledControllerNeverMoves) {
  OverloadOptions o = FastOptions();
  o.enabled = false;
  OverloadController c(o);
  for (int i = 0; i < 30; ++i) {
    c.OnQueueDelay(500.0);
    SleepMs(1.0);
  }
  EXPECT_EQ(c.rung(), OverloadRung::kNormal);
}

TEST(OverloadControllerTest, ConcurrentSamplersStayOnLadder) {
  // Many threads hammering OnQueueDelay must keep the rung in range and
  // close windows without tearing (TSan covers the data-race half).
  OverloadController c(FastOptions());
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, t] {
      for (int i = 0; i < 400; ++i) {
        c.OnQueueDelay(t % 2 == 0 ? 20.0 : 0.1);
        if (i % 50 == 0) SleepMs(1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  int rung = static_cast<int>(c.rung());
  EXPECT_GE(rung, 0);
  EXPECT_LT(rung, kNumOverloadRungs);
}

TEST(OverloadControllerTest, SamplerBehindAWindowCloseDoesNotCloseItAgain) {
  // A sampler reads the clock; before it loads the window start, another
  // sampler closes the window with a later reading. The first sampler's
  // window has not elapsed: the ladder moves one rung, not two, and the
  // window start never goes backwards. The failpoint holds the first
  // sampler between its two reads.
  OverloadController c(FastOptions());
  SleepMs(12.0);  // the first 10 ms window has elapsed
  failpoint::Policy hold;
  hold.mode = failpoint::Policy::Mode::kOnce;
  hold.code = StatusCode::kOk;
  hold.sleep_ms = 200.0;
  failpoint::ScopedFailpoint fp("overload.window_close", hold);
  std::thread held([&c] { c.OnQueueDelay(50.0); });
  while (fp.hits() == 0) SleepMs(0.1);
  SleepMs(1.0);           // a clock reading later than the held sampler's
  c.OnQueueDelay(50.0);   // closes the window
  EXPECT_EQ(c.escalations(), 1u);
  held.join();
  EXPECT_EQ(fp.fires(), 1u);
  EXPECT_EQ(c.escalations(), 1u) << "the held sampler closed the window again";
  EXPECT_EQ(c.rung(), OverloadRung::kShrinkEffort);
}

// ---------------------------------------------------------------------------
// Dispatcher integration
// ---------------------------------------------------------------------------

Request MakeRequest(std::optional<double> budget_ms = std::nullopt) {
  Request req;
  req.type = RequestType::kGetStats;
  req.budget_ms = budget_ms;
  return req;
}

TEST(DispatcherOverloadTest, ShedRungRejectsAtAdmission) {
  ThreadPool pool(2);
  ServiceMetrics metrics;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  DispatcherOptions opts;
  Dispatcher d(
      &pool,
      [gate](const Request&, const Deadline&, TraceSpan&) {
        gate.wait();
        return Response{};
      },
      opts, &metrics);
  d.overload().ForceRungForTesting(OverloadRung::kShed);

  // Fill the queue past the probe floor so the shed rung actually rejects.
  double inf = std::numeric_limits<double>::infinity();
  std::vector<std::future<Response>> held;
  for (size_t i = 0; i <= kShedKeepDepth; ++i) {
    held.push_back(d.Submit(MakeRequest(inf)));
  }

  Response shed = d.Call(MakeRequest(inf));
  EXPECT_EQ(shed.status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.status.message().find("overload"), std::string::npos);

  release.set_value();
  for (auto& f : held) f.get();
  MetricsSnapshot snap = metrics.Snapshot(0);
  EXPECT_EQ(snap.overload_sheds, 1u);
  EXPECT_EQ(snap.shed, 1u) << "ladder sheds land in the shed outcome too";
  // Conservation: every submitted request completed and was accounted.
  EXPECT_EQ(snap.TotalRequests(), held.size() + 1);
  EXPECT_EQ(d.queue_depth(), 0u);
  pool.Shutdown();
}

TEST(DispatcherOverloadTest, ShedRungStillAdmitsProbesWhenQueueDrained) {
  // Recovery path: at rung kShed with an (almost) empty queue, requests are
  // admitted so the controller keeps measuring and can de-escalate.
  ThreadPool pool(2);
  ServiceMetrics metrics;
  Dispatcher d(
      &pool,
      [](const Request&, const Deadline&, TraceSpan&) { return Response{}; },
      DispatcherOptions{}, &metrics);
  d.overload().ForceRungForTesting(OverloadRung::kShed);
  Response resp = d.Call(MakeRequest());
  EXPECT_TRUE(resp.status.ok()) << "empty queue: probe must be admitted";
  pool.Shutdown();
}

TEST(DispatcherOverloadTest, QueueDelaySamplesDriveTheLadder) {
  // End-to-end: a slow single worker + a pile of requests = real standing
  // queue; the dispatcher's own OnQueueDelay feed must escalate the ladder
  // off kNormal without any test-side forcing.
  ThreadPool pool(1);
  ServiceMetrics metrics;
  DispatcherOptions opts;
  opts.overload.window_ms = 5.0;
  // Each request holds the only worker past kTargetDelayMs, so every
  // request behind it waits longer than the target.
  Dispatcher d(
      &pool,
      [](const Request&, const Deadline&, TraceSpan&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(6));
        return Response{};
      },
      opts, &metrics);
  double inf = std::numeric_limits<double>::infinity();
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 40; ++i) futures.push_back(d.Submit(MakeRequest(inf)));
  for (auto& f : futures) f.get();
  EXPECT_GT(d.overload().escalations(), 0u)
      << "a 6 ms/request worker with 40 queued requests must escalate";
  pool.Shutdown();
}

TEST(DispatcherOverloadTest, AdmitFailpointInjectsAndAccounts) {
  ThreadPool pool(1);
  ServiceMetrics metrics;
  Dispatcher d(
      &pool,
      [](const Request&, const Deadline&, TraceSpan&) { return Response{}; },
      DispatcherOptions{}, &metrics);
  failpoint::Policy p;
  p.mode = failpoint::Policy::Mode::kOnce;
  p.code = StatusCode::kUnknown;
  failpoint::ScopedFailpoint fp("dispatcher.admit", p);
  Response injected = d.Call(MakeRequest());
  EXPECT_EQ(injected.status.code(), StatusCode::kUnknown);
  Response ok = d.Call(MakeRequest());
  EXPECT_TRUE(ok.status.ok());
  EXPECT_EQ(fp.fires(), 1u);
  MetricsSnapshot snap = metrics.Snapshot(0);
  EXPECT_EQ(snap.TotalRequests(), 2u);
  EXPECT_EQ(d.queue_depth(), 0u) << "injected admission failure leaked gauge";
  pool.Shutdown();
}

TEST(DispatcherOverloadTest, ExecuteFailpointRetiresTheRequestExactlyOnce) {
  ThreadPool pool(1);
  ServiceMetrics metrics;
  std::atomic<int> handler_runs{0};
  Dispatcher d(
      &pool,
      [&handler_runs](const Request&, const Deadline&, TraceSpan&) {
        ++handler_runs;
        return Response{};
      },
      DispatcherOptions{}, &metrics);
  failpoint::Policy p;
  p.mode = failpoint::Policy::Mode::kEveryNth;
  p.nth = 2;
  p.code = StatusCode::kAborted;
  failpoint::ScopedFailpoint fp("dispatcher.execute", p);
  int aborted = 0;
  for (int i = 0; i < 6; ++i) {
    aborted += d.Call(MakeRequest()).status.code() == StatusCode::kAborted;
  }
  EXPECT_EQ(aborted, 3);
  EXPECT_EQ(handler_runs.load(), 3) << "fired reaches must skip the handler";
  MetricsSnapshot snap = metrics.Snapshot(0);
  EXPECT_EQ(snap.TotalRequests(), 6u);
  EXPECT_EQ(d.queue_depth(), 0u);
  pool.Shutdown();
}

}  // namespace
}  // namespace vexus::server
