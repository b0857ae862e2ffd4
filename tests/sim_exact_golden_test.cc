// Golden-file guard for the --sched-mode ladder invariant (DESIGN.md §13):
// exact mode must stay byte-identical to the pre-ladder scheduler. The
// checked-in goldens under tests/golden/ were produced by
//
//   pollux_simulate --policy=pollux --jobs=20 --duration_hours=1 --seed=1 \
//       --jobs_csv=exact_mode_jobs.csv --events_csv=exact_mode_events.csv
//
// before the ladder landed. This test re-runs the same configuration
// in-process, renders the per-job results and event log with exactly the
// formatting pollux_simulate uses, and compares bytes. Any diff means exact
// mode stopped reproducing the paper-faithful scheduler — regenerating the
// goldens is only legitimate for an intentional behavior change.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "bench/common.h"
#include "sim/simulator.h"
#include "tests/sim_result_csv.h"

#ifndef POLLUX_TEST_DATA_DIR
#error "POLLUX_TEST_DATA_DIR must point at tests/golden (set in tests/CMakeLists.txt)"
#endif

namespace pollux {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open golden file " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

BenchSimConfig GoldenConfig() {
  // Matches `--policy=pollux --jobs=20 --duration_hours=1 --seed=1` with every
  // other flag at its default.
  BenchSimConfig config;
  config.jobs = 20;
  config.duration_hours = 1.0;
  config.seed = 1;
  return config;
}

TEST(ExactModeGoldenTest, JobsAndEventsAreByteIdentical) {
  BenchSimConfig config = GoldenConfig();
  ASSERT_EQ(config.sched_mode, SchedMode::kExact);
  const SimResult result = RunImportedTrace("pollux", config, MakeBenchTrace(config));

  const std::string golden_dir = POLLUX_TEST_DATA_DIR;
  EXPECT_EQ(RenderJobsCsv(result), ReadFileOrDie(golden_dir + "/exact_mode_jobs.csv"))
      << "exact-mode per-job results diverged from the pre-ladder golden";
  EXPECT_EQ(RenderEventsCsv(result), ReadFileOrDie(golden_dir + "/exact_mode_events.csv"))
      << "exact-mode event log diverged from the pre-ladder golden";
}

TEST(ExactModeGoldenTest, ThreadCountDoesNotChangeExactResults) {
  BenchSimConfig config = GoldenConfig();
  config.threads = 4;
  const SimResult result = RunImportedTrace("pollux", config, MakeBenchTrace(config));
  EXPECT_EQ(RenderJobsCsv(result),
            ReadFileOrDie(std::string(POLLUX_TEST_DATA_DIR) + "/exact_mode_jobs.csv"));
}

TEST(ExactModeGoldenTest, CheapModesStayDeterministicAcrossThreads) {
  // The ladder's cheap modes need not match exact, but each must be
  // seed-deterministic at any --threads (the CI double-run cmp contract).
  for (SchedMode mode : {SchedMode::kIncremental, SchedMode::kFirstMatch}) {
    BenchSimConfig config = GoldenConfig();
    config.sched_mode = mode;
    config.threads = 1;
    const SimResult serial = RunImportedTrace("pollux", config, MakeBenchTrace(config));
    config.threads = 4;
    const SimResult threaded = RunImportedTrace("pollux", config, MakeBenchTrace(config));
    EXPECT_EQ(RenderJobsCsv(serial), RenderJobsCsv(threaded))
        << "mode " << SchedModeName(mode);
    EXPECT_EQ(RenderEventsCsv(serial), RenderEventsCsv(threaded))
        << "mode " << SchedModeName(mode);
  }
}

}  // namespace
}  // namespace pollux
