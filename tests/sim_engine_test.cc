// Unit tests for the discrete-event engine primitives: deterministic queue
// ordering and tie-breaking, grid-clock arithmetic, recurring-timer
// semantics (including the interval-shorter-than-tick lag), and
// progress-integral completion solving.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/engine/event_queue.h"
#include "sim/engine/progress_integrator.h"
#include "sim/engine/sim_clock.h"
#include "sim/engine/timers.h"
#include "workload/model_profile.h"

namespace pollux {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue<int> queue;
  queue.Push(5.0, 0, 1);
  queue.Push(1.0, 0, 2);
  queue.Push(3.0, 0, 3);
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.Pop().payload, 2);
  EXPECT_EQ(queue.Pop().payload, 3);
  EXPECT_EQ(queue.Pop().payload, 1);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, SameTimeBreaksTiesByPriorityThenSequence) {
  EventQueue<std::string> queue;
  queue.Push(2.0, 3, "sched");
  queue.Push(2.0, 0, "submit");
  queue.Push(2.0, 1, "fault");
  queue.Push(2.0, 1, "fault2");  // Same priority: insertion order wins.
  queue.Push(1.0, 9, "earlier");
  EXPECT_EQ(queue.Pop().payload, "earlier");
  EXPECT_EQ(queue.Pop().payload, "submit");
  EXPECT_EQ(queue.Pop().payload, "fault");
  EXPECT_EQ(queue.Pop().payload, "fault2");
  EXPECT_EQ(queue.Pop().payload, "sched");
}

TEST(EventQueueTest, PopOrderIsAPureFunctionOfPushes) {
  // Two queues fed the same pushes pop identically — determinism does not
  // depend on heap internals.
  EventQueue<int> a;
  EventQueue<int> b;
  for (int i = 0; i < 100; ++i) {
    const double time = (i * 37) % 10;
    a.Push(time, i % 3, i);
    b.Push(time, i % 3, i);
  }
  while (!a.empty()) {
    ASSERT_FALSE(b.empty());
    EXPECT_EQ(a.Pop().payload, b.Pop().payload);
  }
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(a.pushes(), 100u);
}

TEST(SimClockTest, GridCeilLandsOnTickBoundaries) {
  const SimClock clock(1.0);
  EXPECT_EQ(clock.GridCeil(0.0), 0.0);
  EXPECT_EQ(clock.GridCeil(-5.0), 0.0);
  EXPECT_EQ(clock.GridCeil(12.3), 13.0);
  EXPECT_EQ(clock.GridCeil(13.0), 13.0);
  const SimClock coarse(7.0);
  EXPECT_EQ(coarse.GridCeil(30.0), 35.0);
  EXPECT_EQ(coarse.GridCeil(35.0), 35.0);
  EXPECT_EQ(coarse.GridCeil(35.5), 42.0);
}

TEST(SimClockTest, GridCeilSlackReplicatesTickedThresholdTest) {
  // A handler fires at the first tick where now + 1e-9 >= threshold; a
  // threshold epsilon-above a boundary still fires on that boundary.
  const SimClock clock(1.0);
  EXPECT_EQ(clock.GridCeilSlack(13.0), 13.0);
  EXPECT_EQ(clock.GridCeilSlack(13.0 + 5e-10), 13.0);
  EXPECT_EQ(clock.GridCeilSlack(13.0 + 1e-8), 14.0);
}

TEST(RecurringTimerTest, FiresOnGridAtOrAfterThreshold) {
  // interval=30, tick=7: thresholds 30, 60, 90 fire at grid points 35, 63,
  // 91 — the first boundaries where `now + 1e-9 >= threshold`.
  const SimClock clock(7.0);
  RecurringTimer timer(30.0, 30.0);
  EXPECT_EQ(timer.NextFireTime(clock), 35.0);
  timer.Fired(35.0);
  EXPECT_EQ(timer.NextFireTime(clock), 63.0);
  timer.Fired(63.0);
  EXPECT_EQ(timer.NextFireTime(clock), 91.0);
}

TEST(RecurringTimerTest, IntervalShorterThanTickFiresOncePerTick) {
  // A timer fires at most once per tick boundary, so a 10 s interval under
  // a 30 s tick fires every tick while the threshold lags behind.
  const SimClock clock(30.0);
  RecurringTimer timer(0.0, 10.0);
  EXPECT_EQ(timer.NextFireTime(clock), 0.0);
  timer.Fired(0.0);
  // Threshold is 10 -> grid 30, but never the boundary it just fired on.
  EXPECT_EQ(timer.NextFireTime(clock), 30.0);
  timer.Fired(30.0);
  EXPECT_EQ(timer.NextFireTime(clock), 60.0);
}

TEST(ProgressIntegratorTest, NoBreakpointMatchesEulerStepExactly) {
  const ModelProfile& profile = GetModelProfile(ModelKind::kNeuMFMovieLens);
  const long batch = profile.base_batch_size;
  const double throughput = 5000.0;
  // Start far from any decay point with little remaining work.
  const double progress = profile.TotalExamples() - 500.0;
  const double fraction = progress / profile.TotalExamples();
  for (double point : profile.gns.decay_points) {
    ASSERT_TRUE(point <= fraction || point > 1.0)
        << "test assumes no breakpoint between start and finish";
  }
  const double rate = throughput * profile.TrueEfficiency(batch, fraction);
  const double euler = (profile.TotalExamples() - progress) / rate;
  const double solved = SolveCompletionTime(profile, batch, throughput, progress, 1.0);
  EXPECT_EQ(solved, euler);  // Bitwise: same arithmetic, no sub-stepping.
}

TEST(ProgressIntegratorTest, CrossingABreakpointRefinesCompletion) {
  // A decay point just before the finish line boosts phi, which RAISES
  // statistical efficiency at batch > m0 (EFFICIENCY = (phi+m0)/(phi+m)),
  // so the piecewise solution finishes sooner than the single Euler step
  // that freezes pre-jump efficiency.
  ModelProfile profile = GetModelProfile(ModelKind::kNeuMFMovieLens);
  profile.gns.decay_points = {0.999};
  profile.gns.decay_boost = 50.0;
  const long batch = profile.base_batch_size * 16;
  const double throughput = 50000.0;
  const double progress = profile.TotalExamples() * 0.998;
  const double fraction = progress / profile.TotalExamples();
  const double rate = throughput * profile.TrueEfficiency(batch, fraction);
  const double euler = (profile.TotalExamples() - progress) / rate;
  const double max_step = euler * 10.0;
  const double solved = SolveCompletionTime(profile, batch, throughput, progress, max_step);
  EXPECT_LT(solved, euler);
  EXPECT_GT(solved, 0.0);
}

TEST(ProgressIntegratorTest, ResultIsClampedToMaxStep) {
  // A phi *collapse* at the breakpoint (boost < 1) tanks efficiency at
  // batch > m0; the tail crawls and the result clamps to the step bound.
  ModelProfile profile = GetModelProfile(ModelKind::kNeuMFMovieLens);
  profile.gns.decay_points = {0.999};
  profile.gns.decay_boost = 1e-9;
  const long batch = profile.base_batch_size * 16;
  const double progress = profile.TotalExamples() * 0.998;
  const double solved = SolveCompletionTime(profile, batch, 50000.0, progress, 1.0);
  EXPECT_LE(solved, 1.0);
  EXPECT_GT(solved, 0.0);
}

TEST(ProgressIntegratorTest, DegenerateInputsReturnZero) {
  const ModelProfile& profile = GetModelProfile(ModelKind::kNeuMFMovieLens);
  EXPECT_EQ(SolveCompletionTime(profile, 256, 0.0, 0.0, 1.0), 0.0);
  EXPECT_EQ(SolveCompletionTime(profile, 256, 100.0, profile.TotalExamples(), 1.0), 0.0);
  EXPECT_EQ(SolveCompletionTime(profile, 256, 100.0, 0.0, 0.0), 0.0);
}

}  // namespace
}  // namespace pollux
