// Crash-consistent checkpoint/restore and scheduler-failover recovery:
// warm resumes are byte-identical to uninterrupted runs across every
// (policy x fault-profile x seed) combination, snapshots round-trip through
// save -> load -> save bit-exactly, torn/corrupt/future-version snapshots
// are detected with clear errors and fall back to the previous snapshot,
// snapshots in a pre-v4 loop layout are refused, a recorded digest pins the
// byte format, CRC-valid hostile payloads (huge counts, NaN topology) fail
// cleanly, cold scheduler recovery completes every job, and the bench-config
// codec embedded in each snapshot round-trips every run-defining knob.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "obs/metrics.h"
#include "sim/checkpoint.h"
#include "sim/pollux_policy.h"
#include "sim/simulator.h"
#include "workload/trace_gen.h"

namespace pollux {
namespace {

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

BenchSimConfig SmallConfig(const char* fault_profile, uint64_t seed) {
  BenchSimConfig config;
  config.nodes = 2;
  config.gpus_per_node = 4;
  config.ga_population = 12;
  config.ga_generations = 6;
  config.seed = seed;
  config.check_invariants = true;
  EXPECT_TRUE(FaultProfileByName(fault_profile, &config.faults));
  if (config.faults.enabled()) {
    // The profiles' day-scale MTBFs never fire inside a short trace; shrink
    // them so the sweep actually exercises crash/repair around resumes.
    config.faults.mtbf_node = 1800.0;
    config.faults.repair_time = 120.0;
  }
  return config;
}

// Exact textual fingerprint of a run: every job field, every event, every
// timeline sample, and the summary scalars at full double precision. Two
// runs with equal fingerprints are byte-identical for every exported CSV.
std::string FormatResult(const SimResult& result, bool skip_sched_crash_events = false) {
  std::ostringstream out;
  out.precision(17);
  out << "makespan=" << result.makespan << " node_seconds=" << result.node_seconds
      << " timed_out=" << result.timed_out << '\n';
  for (const auto& job : result.jobs) {
    out << job.job_id << ' ' << ModelKindName(job.model) << ' ' << JobCategoryName(job.category)
        << ' ' << job.submit_time << ' ' << job.start_time << ' ' << job.finish_time << ' '
        << job.gpu_time << ' ' << job.num_restarts << ' ' << job.num_evictions << ' '
        << job.num_restart_failures << ' ' << job.backoff_seconds << ' ' << job.avg_efficiency
        << ' ' << job.avg_throughput << ' ' << job.avg_goodput << ' ' << job.completed << '\n';
  }
  for (const auto& event : result.events) {
    if (skip_sched_crash_events && event.kind == SimEventKind::kSchedCrash) {
      continue;
    }
    out << event.time << ' ' << SimEventKindName(event.kind) << ' ' << event.job_id << ' '
        << event.gpus << ' ' << event.nodes << '\n';
  }
  for (const auto& sample : result.timeline) {
    out << sample.time << ' ' << sample.nodes << ' ' << sample.total_gpus << ' '
        << sample.gpus_in_use << ' ' << sample.running_jobs << ' ' << sample.mean_efficiency
        << ' ' << sample.utility << ' ' << sample.max_batch_size << '\n';
  }
  return out.str();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/pollux_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Warm-resume determinism sweep.
// ---------------------------------------------------------------------------

struct CheckpointCase {
  const char* policy;
  const char* faults;  // "none" | "light"
  uint64_t seed;
};

// Prints the case's fields so --gtest_list_tests does not dump the struct's
// pointer bytes, which change from run to run under ASLR.
void PrintTo(const CheckpointCase& c, std::ostream* os) {
  *os << c.policy << " " << c.faults << " seed " << c.seed;
}

class CheckpointResumeSweep : public ::testing::TestWithParam<CheckpointCase> {};

TEST_P(CheckpointResumeSweep, ResumeIsByteIdenticalToUninterruptedRun) {
  const CheckpointCase c = GetParam();
  const BenchSimConfig config = SmallConfig(c.faults, c.seed);
  const std::vector<JobSpec> trace = SmallTrace(c.seed);

  const SimResult full = RunImportedTrace(c.policy, config, trace);
  ASSERT_FALSE(full.timed_out);
  ASSERT_FALSE(full.halted);

  const std::string dir = FreshDir(std::string("ckpt_") + c.policy + "_" + c.faults + "_" +
                                   std::to_string(c.seed));
  BenchSimConfig halted_config = config;
  halted_config.checkpoint_every = 300.0;
  halted_config.checkpoint_dir = dir;
  halted_config.halt_after_checkpoint = 600.0;
  const SimResult halted = RunImportedTrace(c.policy, halted_config, trace);
  ASSERT_TRUE(halted.halted);
  ASSERT_FALSE(ListSnapshotFiles(dir).empty());

  SimResult resumed;
  std::string policy;
  std::string error;
  ASSERT_TRUE(ResumeBenchFromSnapshot(dir, BenchSimConfig{}, &resumed, &policy, &error)) << error;
  EXPECT_EQ(policy, c.policy);
  EXPECT_FALSE(resumed.halted);
  EXPECT_EQ(FormatResult(resumed), FormatResult(full));
  std::filesystem::remove_all(dir);
}

// Names keep an "_event_" infix from when cases also varied the control
// loop, so each case's history stays comparable.
std::string CaseName(const ::testing::TestParamInfo<CheckpointCase>& info) {
  std::string name = std::string(info.param.policy) + "_event_" + info.param.faults +
                     "_seed" + std::to_string(info.param.seed);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(PolicyEngineFaultSeed, CheckpointResumeSweep,
                         ::testing::Values(CheckpointCase{"pollux", "none", 1},
                                           CheckpointCase{"pollux", "light", 2},
                                           CheckpointCase{"pollux-fixed-batch", "none", 3},
                                           CheckpointCase{"tiresias", "light", 1},
                                           CheckpointCase{"tiresias", "none", 2},
                                           CheckpointCase{"fifo", "none", 2},
                                           CheckpointCase{"optimus", "light", 3},
                                           CheckpointCase{"optimus", "none", 1}),
                         CaseName);

// ---------------------------------------------------------------------------
// Snapshot format round trip.
// ---------------------------------------------------------------------------

SchedConfig SmallSchedConfig(uint64_t seed) {
  SchedConfig sched_config;
  sched_config.ga.population_size = 12;
  sched_config.ga.generations = 6;
  sched_config.ga.seed = seed;
  return sched_config;
}

TEST(SnapshotRoundTripTest, SaveLoadSaveIsByteIdentical) {
  const uint64_t seed = 5;
  const std::vector<JobSpec> trace = SmallTrace(seed);
  const std::string dir = FreshDir("ckpt_roundtrip");
  std::filesystem::create_directories(dir);
  SimOptions options;
  options.cluster = ClusterSpec::Homogeneous(2, 4);
  options.seed = seed;
  ASSERT_TRUE(FaultProfileByName("light", &options.faults));
  options.faults.mtbf_node = 1800.0;
  options.faults.repair_time = 120.0;
  options.checkpoint_every = 600.0;
  options.checkpoint_dir = dir;
  options.halt_after_checkpoint = 600.0;
  {
    PolluxPolicy policy(options.cluster, SmallSchedConfig(seed));
    const SimResult halted = Simulator(options, trace, &policy).Run();
    ASSERT_TRUE(halted.halted);
  }
  std::string error;
  const std::string path = ResolveSnapshotPath(dir, &error);
  ASSERT_FALSE(path.empty()) << error;

  SimOptions resume_options = options;
  resume_options.checkpoint_every = 0.0;
  resume_options.checkpoint_dir.clear();
  resume_options.halt_after_checkpoint = 0.0;
  PolluxPolicy policy(options.cluster, SmallSchedConfig(seed));
  Simulator sim(resume_options, trace, &policy);
  ASSERT_TRUE(sim.LoadSnapshot(path, &error)) << error;
  const std::string resaved = dir + "/resaved.bin";
  ASSERT_TRUE(sim.SaveSnapshot(resaved, &error)) << error;
  EXPECT_EQ(ReadFileBytes(resaved), ReadFileBytes(path));
  std::filesystem::remove_all(dir);
}

TEST(SnapshotRoundTripTest, LoadRejectsMismatchedRunConfiguration) {
  const uint64_t seed = 6;
  const std::vector<JobSpec> trace = SmallTrace(seed);
  const std::string dir = FreshDir("ckpt_mismatch");
  std::filesystem::create_directories(dir);
  SimOptions options;
  options.cluster = ClusterSpec::Homogeneous(2, 4);
  options.seed = seed;
  options.checkpoint_every = 600.0;
  options.checkpoint_dir = dir;
  options.halt_after_checkpoint = 600.0;
  {
    PolluxPolicy policy(options.cluster, SmallSchedConfig(seed));
    ASSERT_TRUE(Simulator(options, trace, &policy).Run().halted);
  }
  std::string error;
  const std::string path = ResolveSnapshotPath(dir, &error);
  ASSERT_FALSE(path.empty()) << error;

  // A different seed is an incompatible run configuration.
  SimOptions other = options;
  other.seed = seed + 1;
  PolluxPolicy policy(options.cluster, SmallSchedConfig(seed));
  Simulator sim(other, trace, &policy);
  EXPECT_FALSE(sim.LoadSnapshot(path, &error));
  EXPECT_NE(error.find("incompatible run configuration"), std::string::npos) << error;
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Torn / corrupt / future-version snapshots.
// ---------------------------------------------------------------------------

// Produces a directory with two valid snapshots (t=300 and t=600) plus the
// uninterrupted reference result for the same run.
struct CorruptFixture {
  std::string dir;
  std::vector<std::string> snapshots;  // Sorted ascending by time.
  SimResult full;
};

CorruptFixture MakeCorruptFixture(const std::string& name) {
  CorruptFixture fixture;
  const uint64_t seed = 7;
  const BenchSimConfig config = SmallConfig("none", seed);
  const std::vector<JobSpec> trace = SmallTrace(seed);
  fixture.full = RunImportedTrace("pollux", config, trace);
  fixture.dir = FreshDir(name);
  BenchSimConfig halted_config = config;
  halted_config.checkpoint_every = 300.0;
  halted_config.checkpoint_dir = fixture.dir;
  halted_config.halt_after_checkpoint = 600.0;
  EXPECT_TRUE(RunImportedTrace("pollux", halted_config, trace).halted);
  fixture.snapshots = ListSnapshotFiles(fixture.dir);
  EXPECT_EQ(fixture.snapshots.size(), 2u);
  return fixture;
}

uint64_t CorruptCount() {
  return obs::MetricsRegistry::Global().GetCounter("sim.checkpoint.corrupt")->value();
}

TEST(CorruptSnapshotTest, TruncatedSnapshotFallsBackToPreviousOne) {
  const CorruptFixture fixture = MakeCorruptFixture("ckpt_truncated");
  const std::string& newest = fixture.snapshots.back();
  const std::string bytes = ReadFileBytes(newest);
  WriteFileBytes(newest, bytes.substr(0, bytes.size() / 2));

  obs::MetricsRegistry::Global().SetEnabled(true);
  const uint64_t corrupt_before = CorruptCount();
  SimResult resumed;
  std::string policy;
  std::string error;
  ASSERT_TRUE(ResumeBenchFromSnapshot(fixture.dir, BenchSimConfig{}, &resumed, &policy, &error))
      << error;
  EXPECT_GE(CorruptCount(), corrupt_before + 1);
  obs::MetricsRegistry::Global().SetEnabled(false);
  // The fallback snapshot still reproduces the uninterrupted run exactly.
  EXPECT_EQ(FormatResult(resumed), FormatResult(fixture.full));
  std::filesystem::remove_all(fixture.dir);
}

TEST(CorruptSnapshotTest, FlippedCrcByteIsDetectedAndFallsBack) {
  const CorruptFixture fixture = MakeCorruptFixture("ckpt_badcrc");
  const std::string& newest = fixture.snapshots.back();
  std::string bytes = ReadFileBytes(newest);
  ASSERT_GT(bytes.size(), 4u);
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0xFF);
  WriteFileBytes(newest, bytes);

  // Direct-file resume reports the CRC failure instead of loading garbage.
  SimResult resumed;
  std::string policy;
  std::string error;
  EXPECT_FALSE(ResumeBenchFromSnapshot(newest, BenchSimConfig{}, &resumed, &policy, &error));
  EXPECT_NE(error.find("CRC mismatch"), std::string::npos) << error;

  // Directory resume skips it and falls back to the previous snapshot.
  obs::MetricsRegistry::Global().SetEnabled(true);
  const uint64_t corrupt_before = CorruptCount();
  error.clear();
  ASSERT_TRUE(ResumeBenchFromSnapshot(fixture.dir, BenchSimConfig{}, &resumed, &policy, &error))
      << error;
  EXPECT_GE(CorruptCount(), corrupt_before + 1);
  obs::MetricsRegistry::Global().SetEnabled(false);
  EXPECT_EQ(FormatResult(resumed), FormatResult(fixture.full));
  std::filesystem::remove_all(fixture.dir);
}

TEST(CorruptSnapshotTest, AllSnapshotsCorruptIsAClearError) {
  const CorruptFixture fixture = MakeCorruptFixture("ckpt_allbad");
  for (const std::string& path : fixture.snapshots) {
    const std::string bytes = ReadFileBytes(path);
    WriteFileBytes(path, bytes.substr(0, 16));  // Keep the magic, lose the rest.
  }
  SimResult resumed;
  std::string policy;
  std::string error;
  EXPECT_FALSE(ResumeBenchFromSnapshot(fixture.dir, BenchSimConfig{}, &resumed, &policy, &error));
  EXPECT_NE(error.find("torn or corrupt"), std::string::npos) << error;
  std::filesystem::remove_all(fixture.dir);
}

// Rewrites a snapshot's version word (offset 8, little-endian) and re-seals
// the CRC, so the version check itself is what fires on load.
void RewriteSnapshotVersion(const std::string& path, uint8_t version) {
  std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 16u);
  bytes[8] = static_cast<char>(version);
  const uint32_t crc = Crc32(bytes.data() + 8, bytes.size() - 12);
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + static_cast<size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  WriteFileBytes(path, bytes);
}

TEST(CorruptSnapshotTest, FutureFormatVersionIsRejectedWithClearError) {
  const CorruptFixture fixture = MakeCorruptFixture("ckpt_future");
  const std::string& newest = fixture.snapshots.back();
  RewriteSnapshotVersion(newest, 99);
  SimResult resumed;
  std::string policy;
  std::string error;
  EXPECT_FALSE(ResumeBenchFromSnapshot(newest, BenchSimConfig{}, &resumed, &policy, &error));
  EXPECT_NE(error.find("newer than supported"), std::string::npos) << error;
  std::filesystem::remove_all(fixture.dir);
}

// Version 3 snapshots carry the two-loop layout (engine echo, fixed-tick
// thresholds). Resuming one must fail cleanly, never crash or diverge.
TEST(CorruptSnapshotTest, PreV4SimulatorSnapshotIsRejectedWithClearError) {
  const CorruptFixture fixture = MakeCorruptFixture("ckpt_v3");
  for (const std::string& path : fixture.snapshots) {
    RewriteSnapshotVersion(path, 3);
  }
  SimResult resumed;
  std::string policy;
  std::string error;
  EXPECT_FALSE(ResumeBenchFromSnapshot(fixture.snapshots.back(), BenchSimConfig{}, &resumed,
                                       &policy, &error));
  EXPECT_NE(error.find("version 3 predates"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(ResumeBenchFromSnapshot(fixture.dir, BenchSimConfig{}, &resumed, &policy, &error));
  EXPECT_NE(error.find("cannot be resumed"), std::string::npos) << error;

  // Direct simulator loads refuse it too.
  const BenchSimConfig config = SmallConfig("none", 7);
  PolluxPolicy scheduler(ClusterFromBenchConfig(config), SchedConfigFromBenchConfig(config));
  Simulator sim(SimOptionsFromBenchConfig(config), SmallTrace(7), &scheduler);
  error.clear();
  EXPECT_FALSE(sim.LoadSnapshot(fixture.snapshots.front(), &error));
  EXPECT_NE(error.find("version 3 predates"), std::string::npos) << error;
  std::filesystem::remove_all(fixture.dir);
}

// ---------------------------------------------------------------------------
// Snapshot byte format: a recorded golden and CRC-valid hostile payloads.
// ---------------------------------------------------------------------------

// 64-bit FNV-1a of `bytes`, as 16 hex digits.
std::string Fnv1aHex(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    hash = (hash ^ c) * 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

// A run whose snapshot has every section non-empty: the pollux policy in
// incremental mode (GA state, cached reports, per-job snapshots), heavy
// faults, a flaky control-plane network, and two racks of four nodes with a
// GPU mix.
BenchSimConfig EverySectionConfig() {
  BenchSimConfig config;
  config.jobs = 20;
  config.duration_hours = 1.0;
  config.seed = 3;
  config.racks = 2;
  config.nodes = 8;
  config.gpu_mix = "a100:0.5,t4:0.5";
  config.sched_mode = SchedMode::kIncremental;
  config.ga_population = 12;
  config.ga_generations = 6;
  EXPECT_TRUE(FaultProfileByName("heavy", &config.faults));
  EXPECT_TRUE(NetProfileByName("flaky", &config.net));
  return config;
}

// Runs EverySectionConfig() to its t=600 snapshot in `dir` and returns the path.
std::string WriteEverySectionSnapshot(const std::string& dir) {
  BenchSimConfig config = EverySectionConfig();
  config.checkpoint_every = 600.0;
  config.checkpoint_dir = dir;
  config.halt_after_checkpoint = 600.0;
  EXPECT_TRUE(RunImportedTrace("pollux", config, MakeBenchTrace(config)).halted);
  const std::vector<std::string> files = ListSnapshotFiles(dir);
  EXPECT_EQ(files.size(), 1u);
  return files.empty() ? std::string() : files.front();
}

// Digest of that snapshot, recorded from the hand-written codecs the field
// lists replaced. A change here means the version 4 layout moved, and
// snapshots written by older builds no longer resume.
constexpr char kEverySectionSnapshotDigest[] = "b1764d79d80e63e0";

TEST(SnapshotGoldenTest, EverySectionSnapshotMatchesRecordedDigest) {
  const std::string dir = FreshDir("ckpt_golden");
  const std::string path = WriteEverySectionSnapshot(dir);
  ASSERT_FALSE(path.empty());
  std::map<uint32_t, std::string> sections;
  std::string error;
  ASSERT_TRUE(ReadSnapshotFile(path, &sections, &error)) << error;
  for (const auto& [tag, payload] : sections) {
    EXPECT_GT(payload.size(), 4u) << "section " << tag;
  }
  EXPECT_EQ(Fnv1aHex(ReadFileBytes(path)), kEverySectionSnapshotDigest);
  std::filesystem::remove_all(dir);
}

// Re-seals `sections` (CRC included) into `path` after a payload edit.
void RewriteSections(const std::string& path, const std::map<uint32_t, std::string>& sections) {
  std::string error;
  ASSERT_TRUE(WriteSnapshotFile(path, sections, SnapshotMeta{}, &error)) << error;
}

void OverwriteBytes(std::string* payload, size_t offset, const void* bytes, size_t size) {
  ASSERT_LE(offset + size, payload->size());
  std::memcpy(payload->data() + offset, bytes, size);
}

TEST(CorruptSnapshotTest, HugeAgentObservationCountIsRejected) {
  const std::string dir = FreshDir("ckpt_huge_count");
  const std::string path = WriteEverySectionSnapshot(dir);
  std::map<uint32_t, std::string> sections;
  std::string error;
  ASSERT_TRUE(ReadSnapshotFile(path, &sections, &error)) << error;
  // kTagJobs: u64 job count, u64 first job id, then the first agent's u64
  // observation count (little-endian).
  for (const uint64_t count : {uint64_t{1} << 62, uint64_t{1} << 40}) {
    std::map<uint32_t, std::string> hostile = sections;
    OverwriteBytes(&hostile[kTagJobs], 16, &count, sizeof(count));
    RewriteSections(path, hostile);
    SimResult resumed;
    std::string policy;
    error.clear();
    EXPECT_FALSE(ResumeBenchFromSnapshot(path, BenchSimConfig{}, &resumed, &policy, &error))
        << "count " << count;
    EXPECT_NE(error.find("malformed job section"), std::string::npos) << error;
  }
  std::filesystem::remove_all(dir);
}

TEST(CorruptSnapshotTest, NonFiniteTopologyScaleIsRejected) {
  const std::string dir = FreshDir("ckpt_nan_scale");
  const std::string path = WriteEverySectionSnapshot(dir);
  std::map<uint32_t, std::string> sections;
  std::string error;
  ASSERT_TRUE(ReadSnapshotFile(path, &sections, &error)) << error;
  const double nan = std::nan("");
  // kTagTopology, per cluster copy: bool annotated, f64 rack_link_factor,
  // IntVec rack_of_node, IntVec gpu_type_of_node, u64 n, n x f64 scale.
  const size_t nodes = 8;
  const size_t per_cluster = 4 + 8 + 2 * (8 + 8 * nodes) + 8 + 8 * nodes;
  ASSERT_EQ(sections[kTagTopology].size(), 2 * per_cluster);
  // The PolluxPolicy blob ends with the node scales and the rack link factor.
  const size_t blob_size = sections[kTagScheduler].size();
  const std::pair<uint32_t, size_t> targets[] = {
      {kTagTopology, per_cluster - 8},
      {kTagScheduler, blob_size - 16},
  };
  for (const auto& [tag, offset] : targets) {
    std::map<uint32_t, std::string> hostile = sections;
    OverwriteBytes(&hostile[tag], offset, &nan, sizeof(nan));
    RewriteSections(path, hostile);
    SimResult resumed;
    std::string policy;
    error.clear();
    EXPECT_FALSE(ResumeBenchFromSnapshot(path, BenchSimConfig{}, &resumed, &policy, &error))
        << "section " << tag;
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Scheduler-crash recovery.
// ---------------------------------------------------------------------------

TEST(SchedulerCrashRecoveryTest, WarmRecoveryIsByteInvisible) {
  const uint64_t seed = 4;
  const std::vector<JobSpec> trace = SmallTrace(seed);
  const BenchSimConfig base = SmallConfig("light", seed);
  BenchSimConfig crashing = base;
  crashing.faults.mtbf_sched = 600.0;
  crashing.faults.sched_recovery = SchedRecovery::kWarm;
  const SimResult without = RunImportedTrace("pollux", base, trace);
  const SimResult with = RunImportedTrace("pollux", crashing, trace);
  int crashes = 0;
  for (const auto& event : with.events) {
    crashes += event.kind == SimEventKind::kSchedCrash ? 1 : 0;
  }
  ASSERT_GT(crashes, 0);
  // Warm restores are lossless: apart from the sched_crash log entries the
  // crashing run is byte-identical to the crash-free one.
  EXPECT_EQ(FormatResult(with, /*skip_sched_crash_events=*/true), FormatResult(without));
}

TEST(SchedulerCrashRecoveryTest, ColdRecoveryCompletesAllJobsAndExportsMetrics) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  registry.SetEnabled(true);
  const uint64_t seed = 4;
  const std::vector<JobSpec> trace = SmallTrace(seed);
  SimOptions options;
  options.cluster = ClusterSpec::Homogeneous(2, 4);
  options.seed = seed;
  options.check_invariants = true;
  options.faults.mtbf_sched = 600.0;
  options.faults.sched_recovery = SchedRecovery::kCold;
  PolluxPolicy policy(options.cluster, SmallSchedConfig(seed));
  const SimResult result = Simulator(options, trace, &policy).Run();
  registry.SetEnabled(false);
  ASSERT_FALSE(result.timed_out);
  int crashes = 0;
  for (const auto& event : result.events) {
    crashes += event.kind == SimEventKind::kSchedCrash ? 1 : 0;
  }
  ASSERT_GT(crashes, 0);
  for (const auto& job : result.jobs) {
    EXPECT_TRUE(job.completed) << "job " << job.job_id;
    EXPECT_LE(job.num_restart_failures, 20) << "job " << job.job_id;
  }
  EXPECT_EQ(registry.GetCounter("sim.recovery.scheduler_crashes")->value(),
            static_cast<uint64_t>(crashes));
  EXPECT_EQ(registry.GetCounter("sim.recovery.cold_resets")->value(),
            static_cast<uint64_t>(crashes));
  EXPECT_EQ(registry.GetCounter("sim.recovery.warm_restores")->value(), 0u);
  EXPECT_GT(registry.GetCounter("sim.recovery.agents_reset")->value(), 0u);
  registry.Reset();
}

TEST(SchedulerCrashRecoveryTest, ColdRecoveryIsDeterministicPerSeed) {
  const uint64_t seed = 9;
  const std::vector<JobSpec> trace = SmallTrace(seed);
  BenchSimConfig config = SmallConfig("none", seed);
  config.faults.mtbf_sched = 700.0;
  config.faults.sched_recovery = SchedRecovery::kCold;
  const SimResult a = RunImportedTrace("pollux", config, trace);
  const SimResult b = RunImportedTrace("pollux", config, trace);
  EXPECT_EQ(FormatResult(a), FormatResult(b));
}

// ---------------------------------------------------------------------------
// Bench-config codec (the snapshot's embedded driver configuration).
// ---------------------------------------------------------------------------

TEST(BenchConfigCodecTest, RoundTripsEveryRunDefiningField) {
  BenchSimConfig config;
  config.nodes = 3;
  config.gpus_per_node = 2;
  config.jobs = 17;
  config.duration_hours = 1.25;
  config.load = 0.75;
  config.user_configured_fraction = 0.5;
  config.interference_slowdown = 0.33;
  config.interference_avoidance = false;
  config.weight_lambda = 0.125;
  config.ga_population = 9;
  config.ga_generations = 4;
  config.threads = 2;
  config.sched_interval = 45.0;
  config.restart_penalty = 0.1234567890123456;
  config.tick = 0.5;
  config.observation_noise = 0.01;
  config.gns_noise = 0.02;
  config.seed = 987654321;
  config.faults.mtbf_node = 1234.5;
  config.faults.repair_time = 77.7;
  config.faults.straggler_frac = 0.25;
  config.faults.straggler_slowdown = 1.75;
  config.faults.report_drop_rate = 0.05;
  config.faults.restart_fail_rate = 0.1;
  config.faults.restart_backoff_init = 10.0;
  config.faults.restart_backoff_cap = 300.0;
  config.faults.mtbf_sched = 900.0;
  config.faults.sched_recovery = SchedRecovery::kCold;
  config.check_invariants = true;
  config.round_time_budget = 0.25;

  BenchSimConfig decoded;
  ASSERT_TRUE(DecodeBenchSimConfig(EncodeBenchSimConfig(config), &decoded));
  EXPECT_EQ(decoded.nodes, config.nodes);
  EXPECT_EQ(decoded.gpus_per_node, config.gpus_per_node);
  EXPECT_EQ(decoded.jobs, config.jobs);
  EXPECT_EQ(decoded.duration_hours, config.duration_hours);
  EXPECT_EQ(decoded.load, config.load);
  EXPECT_EQ(decoded.user_configured_fraction, config.user_configured_fraction);
  EXPECT_EQ(decoded.interference_slowdown, config.interference_slowdown);
  EXPECT_EQ(decoded.interference_avoidance, config.interference_avoidance);
  EXPECT_EQ(decoded.weight_lambda, config.weight_lambda);
  EXPECT_EQ(decoded.ga_population, config.ga_population);
  EXPECT_EQ(decoded.ga_generations, config.ga_generations);
  EXPECT_EQ(decoded.threads, config.threads);
  EXPECT_EQ(decoded.sched_interval, config.sched_interval);
  EXPECT_EQ(decoded.restart_penalty, config.restart_penalty);
  EXPECT_EQ(decoded.tick, config.tick);
  EXPECT_EQ(decoded.observation_noise, config.observation_noise);
  EXPECT_EQ(decoded.gns_noise, config.gns_noise);
  EXPECT_EQ(decoded.seed, config.seed);
  EXPECT_EQ(decoded.faults.mtbf_node, config.faults.mtbf_node);
  EXPECT_EQ(decoded.faults.repair_time, config.faults.repair_time);
  EXPECT_EQ(decoded.faults.straggler_frac, config.faults.straggler_frac);
  EXPECT_EQ(decoded.faults.straggler_slowdown, config.faults.straggler_slowdown);
  EXPECT_EQ(decoded.faults.report_drop_rate, config.faults.report_drop_rate);
  EXPECT_EQ(decoded.faults.restart_fail_rate, config.faults.restart_fail_rate);
  EXPECT_EQ(decoded.faults.restart_backoff_init, config.faults.restart_backoff_init);
  EXPECT_EQ(decoded.faults.restart_backoff_cap, config.faults.restart_backoff_cap);
  EXPECT_EQ(decoded.faults.mtbf_sched, config.faults.mtbf_sched);
  EXPECT_EQ(decoded.faults.sched_recovery, config.faults.sched_recovery);
  EXPECT_EQ(decoded.check_invariants, config.check_invariants);
  EXPECT_EQ(decoded.round_time_budget, config.round_time_budget);
}

TEST(BenchConfigCodecTest, CheckpointKnobsAreRunLocalAndNotEncoded) {
  BenchSimConfig config;
  config.checkpoint_every = 300.0;
  config.checkpoint_dir = "/tmp/somewhere";
  config.halt_after_checkpoint = 600.0;
  const std::string encoded = EncodeBenchSimConfig(config);
  EXPECT_EQ(encoded.find("checkpoint"), std::string::npos);
  EXPECT_EQ(encoded.find("halt"), std::string::npos);
  BenchSimConfig decoded;
  ASSERT_TRUE(DecodeBenchSimConfig(encoded, &decoded));
  EXPECT_EQ(decoded.checkpoint_every, 0.0);
  EXPECT_TRUE(decoded.checkpoint_dir.empty());
  EXPECT_EQ(decoded.halt_after_checkpoint, 0.0);
}

TEST(BenchConfigCodecTest, RejectsGarbageAndUnknownKeys) {
  BenchSimConfig decoded;
  EXPECT_FALSE(DecodeBenchSimConfig("nodes=abc\n", &decoded));
  EXPECT_FALSE(DecodeBenchSimConfig("future_knob=1\n", &decoded));
  EXPECT_FALSE(DecodeBenchSimConfig("no_equals_sign\n", &decoded));
  EXPECT_TRUE(DecodeBenchSimConfig("", &decoded));  // Empty config = defaults.
}

// A new BenchSimConfig, FaultOptions or NetOptions field changes one of these
// sizes. Give the field a row in the config table in bench/common.cc (and a
// line in the goldens below if it is encoded), then update the size.
#if defined(__x86_64__) && defined(__GLIBCXX__)
static_assert(sizeof(BenchSimConfig) == 504, "new BenchSimConfig field: add a config table row");
static_assert(sizeof(FaultOptions) == 80, "new FaultOptions field: add a config table row");
static_assert(sizeof(NetOptions) == 152, "new NetOptions field: add a config table row");
#endif

// Recorded from the driver that wrote every snapshot so far: a resumed run
// depends on these bytes.
constexpr char kFlatDefaultEncoding[] =
    "nodes=16\ngpus_per_node=4\njobs=160\nduration_hours=8\nload=1\nuser_frac=0\n"
    "interference=0\navoidance=1\nweight_lambda=0.5\nga_pop=40\nga_gens=25\nthreads=1\n"
    "sched_interval=60\nreport_interval=30\nsched_mode=exact\nqueue_admission=0\n"
    "restart_penalty=0.25\ntick=1\nobs_noise=0.050000000000000003\n"
    "gns_noise=0.10000000000000001\nseed=1\nmtbf_node=0\nrepair_time=600\nstraggler_frac=0\n"
    "straggler_slowdown=1.5\nreport_drop_rate=0\nrestart_fail_rate=0\n"
    "restart_backoff_init=15\nrestart_backoff_cap=240\nmtbf_sched=0\nsched_recovery=warm\n"
    "net_latency=0\nnet_jitter=0\nnet_loss=0\nnet_burst_rate=0\nnet_burst_duration=240\n"
    "net_dup=0\nnet_reorder=0\nnet_reorder_extra=10\nnet_mtbf_partition=0\n"
    "net_partition_duration=240\nnet_mtbf_rack_partition=0\nnet_rack_partition_duration=360\n"
    "net_rack_size=4\nnet_retry_backoff_init=2\nnet_retry_backoff_cap=30\nnet_max_retries=6\n"
    "net_lease_intervals=3\nnet_lease_grace=300\nnet_degraded_coverage=0.40000000000000002\n"
    "net_naive_masking=0\ncheck_invariants=0\nsched_budget=0\n";

TEST(BenchConfigCodecTest, EncodingMatchesRecordedGoldens) {
  EXPECT_EQ(EncodeBenchSimConfig(BenchSimConfig{}), kFlatDefaultEncoding);

  BenchSimConfig topology;
  topology.racks = 2;
  topology.nodes = 8;
  topology.gpu_mix = "a100:0.25,t4:0.75";
  topology.rack_link_factor = 3.0;
  topology.sync_heavy_fraction = 0.5;
  const std::string flat_tail = std::string(kFlatDefaultEncoding).substr(9);  // Drop nodes=16.
  const std::string topology_keys =
      "racks=2\nrack_link_factor=3\ngpu_mix=a100:0.25,t4:0.75\ntopology_blind=0\n"
      "sync_heavy_fraction=0.5\n";
  EXPECT_EQ(EncodeBenchSimConfig(topology), "nodes=8\n" + flat_tail + topology_keys);
}

TEST(BenchConfigCodecTest, RejectsValuesOutsideTheFlagBounds) {
  for (const char* line :
       {"nodes=-3", "nodes=0", "nodes=4294967297", "gpus_per_node=0", "tick=0", "tick=-1",
        "ga_pop=0", "ga_pop=100001", "ga_gens=-1", "sched_interval=0", "report_interval=-30",
        "load=nan", "weight_lambda=inf", "restart_penalty=-inf", "seed=-1", "avoidance=2",
        "sched_mode=bogus", "sched_recovery=tepid", "gpu_mix=h100:1.0", "gpu_mix=t4:0.5",
        "rack_link_factor=0.5", "sync_heavy_fraction=1.5", "net_loss=1.5"}) {
    BenchSimConfig decoded;
    EXPECT_FALSE(DecodeBenchSimConfig(std::string(line) + "\n", &decoded)) << line;
  }
}

std::string FormatDouble17(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// Canonical encoding of a random value of `key` inside `range`. Enum and
// string keys draw from known-valid names; a numeric key is integral (int,
// seed or bool) when it refuses a fractional value.
std::string RandomValueText(const std::string& key, const KnobRange& range, std::mt19937_64& rng) {
  static const std::map<std::string, std::vector<std::string>> kNames = {
      {"sched_mode", {"exact", "incremental", "first-match"}},
      {"sched_recovery", {"warm", "cold"}},
      {"gpu_mix", {"", "t4:1", "a100:0.25,t4:0.75"}},
  };
  if (const auto it = kNames.find(key); it != kNames.end()) {
    return it->second[rng() % it->second.size()];
  }
  if (std::isinf(range.lo) && std::isinf(range.hi)) {
    ADD_FAILURE() << "no test values for unbounded key " << key;
    return "";
  }
  const double lo = std::max(range.lo, -1e6);
  const double hi = std::min(range.hi, 1e6);
  BenchSimConfig probe;
  if (!DecodeBenchSimConfig(key + "=" + FormatDouble17(lo + 0.5) + "\n", &probe)) {
    std::uniform_int_distribution<int64_t> dist(static_cast<int64_t>(std::ceil(lo)),
                                                static_cast<int64_t>(std::floor(hi)));
    int64_t value = dist(rng);
    while (!range.Contains(static_cast<double>(value))) {
      value = dist(rng);
    }
    return std::to_string(value);
  }
  std::uniform_real_distribution<double> dist(lo, hi);
  double value = dist(rng);
  while (!range.Contains(value)) {
    value = dist(rng);
  }
  return FormatDouble17(value);
}

TEST(BenchConfigCodecTest, RandomInBoundsValuesRoundTripForEveryKey) {
  std::mt19937_64 rng(20211104);
  const std::string flat = "\n" + EncodeBenchSimConfig(BenchSimConfig{});
  const auto keys = BenchConfigKeyRanges();
  ASSERT_EQ(keys.size(), 58u);
  for (const auto& [key, range] : keys) {
    // Keys missing from the flat encoding are topology keys, encoded only when
    // a topology knob is engaged.
    const bool topology = flat.find("\n" + key + "=") == std::string::npos;
    std::string engage;
    if (topology) {
      engage = key == "topology_blind" ? "racks=1\n" : "topology_blind=1\n";
    }
    for (int trial = 0; trial < 25; ++trial) {
      const std::string line = key + "=" + RandomValueText(key, range, rng) + "\n";
      BenchSimConfig decoded;
      ASSERT_TRUE(DecodeBenchSimConfig(engage + line, &decoded)) << line;
      const std::string encoded = EncodeBenchSimConfig(decoded);
      EXPECT_NE(("\n" + encoded).find("\n" + line), std::string::npos) << line;
      BenchSimConfig again;
      ASSERT_TRUE(DecodeBenchSimConfig(encoded, &again)) << line;
      EXPECT_EQ(EncodeBenchSimConfig(again), encoded) << line;
    }
  }
}

}  // namespace
}  // namespace pollux
