// Golden reference for the event engine (seeds x fault profiles x all five
// policies, plus interference runs): each case's rendered jobs and events
// CSVs must hash to the digests recorded below, and every run must be
// seed-deterministic, independent of the scheduler thread count, and log its
// events in time order.
//
// The digests were recorded when a second, fixed-tick engine still existed
// and agreed with this one, so they pin the decisions that both engines
// made. A digest may only change with an intentional behavior change.
// Interference runs (interference_slowdown > 0, avoidance off) are the only
// path into the tick-interleaved job advance, so they are pinned here too.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "baselines/fifo.h"
#include "baselines/fixed_batch_policy.h"
#include "baselines/optimus.h"
#include "baselines/tiresias.h"
#include "sim/pollux_policy.h"
#include "sim/simulator.h"
#include "tests/sim_result_csv.h"
#include "workload/trace_gen.h"

namespace pollux {
namespace {

struct EquivalenceCase {
  const char* policy;
  const char* fault_profile;  // "none" | "light" | "heavy"
  uint64_t seed;
};

std::vector<JobSpec> SmallTrace(uint64_t seed) {
  TraceOptions options;
  options.num_jobs = 10;
  options.duration = 1800.0;
  options.max_gpus = 8;
  options.seed = seed;
  auto jobs = GenerateTrace(options);
  for (auto& job : jobs) {
    // Keep the sweep fast: long-running models become small ones.
    if (job.model != ModelKind::kResNet18Cifar10 && job.model != ModelKind::kNeuMFMovieLens) {
      job.model = ModelKind::kNeuMFMovieLens;
      job.batch_size = 2048;
      job.requested_gpus = std::min(job.requested_gpus, 4);
    }
  }
  return jobs;
}

// `interference` injects Fig. 9 network interference; `avoidance` is Pollux's
// constraint that keeps distributed jobs from sharing a node.
SimResult RunCase(const EquivalenceCase& c, int sched_threads = 1, double interference = 0.0,
                  bool avoidance = true) {
  SimOptions options;
  options.cluster = ClusterSpec::Homogeneous(2, 4);
  options.seed = c.seed;
  options.sched_threads = sched_threads;
  options.check_invariants = true;
  options.interference_slowdown = interference;
  EXPECT_TRUE(FaultProfileByName(c.fault_profile, &options.faults));
  if (options.faults.enabled()) {
    // The profiles' day-scale MTBFs never fire inside a short trace; shrink
    // them so the sweep actually exercises crash/repair.
    options.faults.mtbf_node = 1800.0;
    options.faults.repair_time = 120.0;
  }
  const auto trace = SmallTrace(c.seed);
  SchedConfig sched_config;
  sched_config.ga.population_size = 12;
  sched_config.ga.generations = 6;
  sched_config.ga.seed = c.seed;
  sched_config.ga.threads = sched_threads;
  sched_config.ga.interference_avoidance = avoidance;
  const std::string policy = c.policy;
  if (policy == "pollux") {
    PolluxPolicy p(options.cluster, sched_config);
    return Simulator(options, trace, &p).Run();
  }
  if (policy == "pollux-fixed-batch") {
    FixedBatchPolluxPolicy p(options.cluster, sched_config);
    return Simulator(options, trace, &p).Run();
  }
  if (policy == "optimus") {
    OptimusPolicy p;
    return Simulator(options, trace, &p).Run();
  }
  if (policy == "fifo") {
    FifoPolicy p;
    return Simulator(options, trace, &p).Run();
  }
  TiresiasPolicy p;
  return Simulator(options, trace, &p).Run();
}

std::string CaseName(const EquivalenceCase& c) {
  std::string name = c.policy;
  for (char& ch : name) {
    if (ch == '-') {
      ch = '_';
    }
  }
  return name + "_" + c.fault_profile + "_seed" + std::to_string(c.seed);
}

// (jobs CSV digest, events CSV digest) per case name.
using Digests = std::pair<std::string, std::string>;

const std::map<std::string, Digests>& SweepDigests() {
  static const std::map<std::string, Digests> digests = {
      {"pollux_none_seed1", {"d5427ecc2e0068d7", "1b5cdc1b2daa77df"}},
      {"pollux_none_seed2", {"2c255a503bceec0e", "89d478a9cd6d5ea4"}},
      {"pollux_fixed_batch_none_seed1", {"e0750fdb2a119ec7", "16cb04f1711b2646"}},
      {"pollux_fixed_batch_none_seed2", {"3956ecd7f99a2436", "cb04e67aa15c258d"}},
      {"optimus_none_seed1", {"ac427fbe6a78456d", "e996e151e7204dbe"}},
      {"optimus_none_seed2", {"d9215957d4e3f1ba", "db590fa63281637a"}},
      {"fifo_none_seed1", {"2012c68f8e3f9908", "d7529cb52deebbab"}},
      {"fifo_none_seed2", {"d0576751af72c887", "f4295317f5b073a8"}},
      {"tiresias_none_seed1", {"2012c68f8e3f9908", "d7529cb52deebbab"}},
      {"tiresias_none_seed2", {"a2eaf83c8e7ff77a", "6a9cfaa3633ee56c"}},
      {"fifo_light_seed1", {"5ecaa0f09d56204b", "d201c69f0565f2fc"}},
      {"tiresias_light_seed2", {"6f9f205a98771c7a", "c3d2a485449891ca"}},
      {"pollux_light_seed3", {"929990e289831f8d", "95378217ddb05493"}},
      {"fifo_heavy_seed1", {"ec0c623808afa027", "1233c90210734c2c"}},
      {"tiresias_heavy_seed2", {"525c25fdf1e9c76c", "ab3a53ffe7eca245"}},
      {"pollux_heavy_seed3", {"e9f5b952fd84f0a2", "b0b5b652d5aba254"}},
  };
  return digests;
}

void ExpectDigests(const SimResult& result, const std::string& name, const Digests& expected) {
  EXPECT_EQ(DigestHex(RenderJobsCsv(result)), expected.first) << name << " jobs CSV";
  EXPECT_EQ(DigestHex(RenderEventsCsv(result)), expected.second) << name << " events CSV";
}

class EngineEquivalence : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(EngineEquivalence, MatchesGoldenDigest) {
  const EquivalenceCase c = GetParam();
  const auto it = SweepDigests().find(CaseName(c));
  ASSERT_NE(it, SweepDigests().end()) << "no recorded digest for " << CaseName(c);
  ExpectDigests(RunCase(c), CaseName(c), it->second);
}

TEST_P(EngineEquivalence, EventEngineIsDeterministicAndThreadIndependent) {
  const EquivalenceCase c = GetParam();
  const SimResult a = RunCase(c, /*sched_threads=*/1);
  const SimResult b = RunCase(c, /*sched_threads=*/1);
  const SimResult threaded = RunCase(c, /*sched_threads=*/4);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  ASSERT_EQ(a.jobs.size(), threaded.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].finish_time, b.jobs[i].finish_time) << "rerun job " << i;
    EXPECT_EQ(a.jobs[i].gpu_time, b.jobs[i].gpu_time) << "rerun job " << i;
    EXPECT_EQ(a.jobs[i].finish_time, threaded.jobs[i].finish_time) << "threads job " << i;
    EXPECT_EQ(a.jobs[i].gpu_time, threaded.jobs[i].gpu_time) << "threads job " << i;
  }
  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_EQ(a.events.size(), threaded.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time, b.events[i].time) << "rerun event " << i;
    EXPECT_EQ(a.events[i].kind, b.events[i].kind) << "rerun event " << i;
    EXPECT_EQ(a.events[i].time, threaded.events[i].time) << "threads event " << i;
    EXPECT_EQ(a.events[i].kind, threaded.events[i].kind) << "threads event " << i;
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.makespan, threaded.makespan);
}

// The event log is strictly monotone in time (the run above already aborts
// via check_invariants if not); spot-check it end to end here too so the
// property is asserted even in non-invariant builds.
TEST_P(EngineEquivalence, EventEngineLogIsMonotone) {
  const SimResult event = RunCase(GetParam());
  double last = 0.0;
  for (const auto& e : event.events) {
    EXPECT_GE(e.time + 1e-9, last) << SimEventKindName(e.kind);
    last = std::max(last, e.time);
  }
}

std::vector<EquivalenceCase> SweepCases() {
  std::vector<EquivalenceCase> cases;
  const char* policies[] = {"pollux", "pollux-fixed-batch", "optimus", "fifo", "tiresias"};
  // Every policy runs fault-free on two seeds; the fault profiles ride on
  // the two cheapest policies to keep the sweep fast.
  for (const char* policy : policies) {
    cases.push_back(EquivalenceCase{policy, "none", 1});
    cases.push_back(EquivalenceCase{policy, "none", 2});
  }
  for (const char* profile : {"light", "heavy"}) {
    cases.push_back(EquivalenceCase{"fifo", profile, 1});
    cases.push_back(EquivalenceCase{"tiresias", profile, 2});
    cases.push_back(EquivalenceCase{"pollux", profile, 3});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineEquivalence, ::testing::ValuesIn(SweepCases()),
                         [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
                           return CaseName(info.param);
                         });

// Interference couples jobs within a tick, so these runs take the
// tick-interleaved advance instead of the per-job span advance.
struct InterferenceCase {
  EquivalenceCase run;
  double slowdown;
  Digests digests;
};

std::vector<InterferenceCase> InterferenceCases() {
  return {
      {{"pollux", "none", 1}, 0.25, {"6d8a74b84e414086", "39e643d9cb15acfd"}},
      {{"pollux", "none", 2}, 0.5, {"1ea08bd1d80cdc72", "99cba476fd3817c8"}},
      {{"pollux", "light", 3}, 0.5, {"e2b60bf2afc8a1db", "83358de225ab079c"}},
      {{"tiresias", "none", 2}, 0.25, {"dcfd9f3b59565582", "927cb9bf3fbbfc4e"}},
      {{"fifo", "none", 2}, 0.5, {"08ff9069dac460b1", "0869043a5212538d"}},
  };
}

TEST(EngineInterferenceGolden, MatchesGoldenDigestsAndIsDeterministic) {
  for (const InterferenceCase& c : InterferenceCases()) {
    const std::string name = CaseName(c.run) + " interference " + std::to_string(c.slowdown);
    const SimResult result = RunCase(c.run, /*sched_threads=*/1, c.slowdown, false);
    ExpectDigests(result, name, c.digests);
    // The slowdown must actually bite: distributed jobs share a node.
    EXPECT_NE(RenderJobsCsv(result), RenderJobsCsv(RunCase(c.run, 1, 0.0, false))) << name;
    const SimResult threaded = RunCase(c.run, /*sched_threads=*/4, c.slowdown, false);
    EXPECT_EQ(RenderJobsCsv(result), RenderJobsCsv(threaded)) << name;
    EXPECT_EQ(RenderEventsCsv(result), RenderEventsCsv(threaded)) << name;
  }
}

}  // namespace
}  // namespace pollux
