#include "obs/trace.h"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "sim/pollux_policy.h"
#include "sim/simulator.h"

namespace pollux {
namespace obs {
namespace {

TEST(TraceTest, DisabledRecorderEmitsNothing) {
  TraceRecorder recorder;
  ASSERT_FALSE(recorder.enabled());
  recorder.EmitComplete("span", 0.0, 10.0);
  recorder.EmitSimSpan("job", 3, 0.0, 5.0);
  recorder.EmitSimInstant("fault", 1, 2.0);
  recorder.SetTrackName(TraceRecorder::kSimPid, 3, "job 3");
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST(TraceTest, SpansNestAndCarryThreadTrack) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Clear();
  recorder.SetEnabled(true);
  {
    TRACE_SCOPE("outer");
    { TRACE_SCOPE("inner"); }
  }
  recorder.SetEnabled(false);
  const std::vector<TraceRecorder::Event> events = recorder.Snapshot();
  recorder.Clear();
  ASSERT_EQ(events.size(), 2u);
  // Inner closes (and is pushed) first; both land on the same thread track.
  const TraceRecorder::Event& inner = events[0];
  const TraceRecorder::Event& outer = events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.pid, TraceRecorder::kWallPid);
  EXPECT_EQ(inner.tid, outer.tid);
  // Proper nesting: outer starts no later and ends no earlier than inner.
  EXPECT_LE(outer.ts_us, inner.ts_us);
  EXPECT_GE(outer.ts_us + outer.dur_us, inner.ts_us + inner.dur_us);
}

TEST(TraceTest, BufferIsBoundedAndDropsAreCounted) {
  TraceRecorder recorder;
  recorder.SetEnabled(true);
  recorder.SetMaxEvents(4);
  for (int i = 0; i < 10; ++i) {
    recorder.EmitSimInstant("e", 0, static_cast<double>(i));
  }
  EXPECT_EQ(recorder.Snapshot().size(), 4u);
  EXPECT_EQ(recorder.dropped(), 6u);
  recorder.Clear();
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(TraceTest, JsonExportParsesAndNamesTracks) {
  TraceRecorder recorder;
  recorder.SetEnabled(true);
  recorder.EmitComplete("ga_round \"quoted\"\n", 1.0, 2.0);
  recorder.EmitSimSpan("job span", 7, 0.5, 3.0);
  recorder.EmitSimInstant("node_fail", 1, 2.0);
  recorder.SetTrackName(TraceRecorder::kSimPid, 7, "job 7");
  std::ostringstream out;
  recorder.WriteJson(out);
  const std::string json = out.str();
  std::string error;
  EXPECT_TRUE(JsonParseOk(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("pollux (wall clock)"), std::string::npos);
  EXPECT_NE(json.find("cluster (simulated time)"), std::string::npos);
  EXPECT_NE(json.find("job 7"), std::string::npos);
  // Sim seconds scale to microseconds, instants carry thread scope.
  EXPECT_NE(json.find("\"ts\": 500000"), std::string::npos) << json;
  EXPECT_NE(json.find("\"s\": \"t\""), std::string::npos);
  // Escaping kept the JSON well-formed.
  EXPECT_NE(json.find("ga_round \\\"quoted\\\"\\n"), std::string::npos);
}

// The observability contract: instruments observe, never steer. A simulation
// with metrics + tracing enabled must produce results identical to a
// zero-knob run, field for field.
TEST(TraceTest, GoldenRunIsIdenticalWithObservabilityEnabled) {
  JobSpec job0;
  job0.job_id = 0;
  job0.model = ModelKind::kResNet18Cifar10;
  job0.submit_time = 0.0;
  job0.requested_gpus = 4;
  job0.batch_size = 512;
  JobSpec job1 = job0;
  job1.job_id = 1;
  job1.model = ModelKind::kNeuMFMovieLens;
  job1.submit_time = 100.0;
  job1.requested_gpus = 2;
  job1.batch_size = 1024;
  const std::vector<JobSpec> trace = {job0, job1};

  const auto run = [&trace] {
    SimOptions options;
    options.cluster = ClusterSpec::Homogeneous(2, 4);
    options.seed = 11;
    options.tick = 1.0;
    SchedConfig config;
    config.ga.population_size = 16;
    config.ga.generations = 8;
    config.ga.seed = 11;
    PolluxPolicy policy(options.cluster, config);
    return Simulator(options, trace, &policy).Run();
  };

  const SimResult plain = run();

  MetricsRegistry::Global().SetEnabled(true);
  TraceRecorder::Global().SetEnabled(true);
  const SimResult observed = run();
  MetricsRegistry::Global().SetEnabled(false);
  TraceRecorder::Global().SetEnabled(false);

  // The observed run actually recorded something (the event loop counts
  // dispatched events)...
  EXPECT_GT(MetricsRegistry::Global().GetCounter("sim.engine.events")->value(), 0u);
  EXPECT_FALSE(TraceRecorder::Global().Snapshot().empty());
  MetricsRegistry::Global().Reset();
  TraceRecorder::Global().Clear();

  // ...and changed nothing. Exact double equality is intentional.
  EXPECT_EQ(plain.makespan, observed.makespan);
  EXPECT_EQ(plain.node_seconds, observed.node_seconds);
  EXPECT_EQ(plain.timed_out, observed.timed_out);
  ASSERT_EQ(plain.events.size(), observed.events.size());
  for (size_t i = 0; i < plain.events.size(); ++i) {
    EXPECT_EQ(plain.events[i].time, observed.events[i].time);
    EXPECT_EQ(plain.events[i].kind, observed.events[i].kind);
    EXPECT_EQ(plain.events[i].job_id, observed.events[i].job_id);
    EXPECT_EQ(plain.events[i].gpus, observed.events[i].gpus);
  }
  ASSERT_EQ(plain.jobs.size(), observed.jobs.size());
  for (size_t i = 0; i < plain.jobs.size(); ++i) {
    EXPECT_EQ(plain.jobs[i].start_time, observed.jobs[i].start_time);
    EXPECT_EQ(plain.jobs[i].finish_time, observed.jobs[i].finish_time);
    EXPECT_EQ(plain.jobs[i].gpu_time, observed.jobs[i].gpu_time);
    EXPECT_EQ(plain.jobs[i].num_restarts, observed.jobs[i].num_restarts);
    EXPECT_EQ(plain.jobs[i].completed, observed.jobs[i].completed);
    EXPECT_EQ(plain.jobs[i].avg_goodput, observed.jobs[i].avg_goodput);
    EXPECT_EQ(plain.jobs[i].avg_throughput, observed.jobs[i].avg_throughput);
    EXPECT_EQ(plain.jobs[i].avg_efficiency, observed.jobs[i].avg_efficiency);
  }
}

}  // namespace
}  // namespace obs
}  // namespace pollux
