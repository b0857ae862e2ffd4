// TenantDomain tests (service/tenant.h): snapshot byte-identity (the crash-
// tolerance keystone), round idempotency, checkpoint/restore with corrupt-
// file fallback, and hostile-input rejection of malformed snapshots/setups.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/goodput.h"
#include "service/tenant.h"
#include "service/wire.h"
#include "sim/checkpoint.h"

namespace pollux {
namespace service {
namespace {

AgentReport MakeAgent(uint64_t job_id, double phi = 1000.0) {
  ThroughputParams params;
  params.alpha_grad = 0.05;
  params.beta_grad = 2e-4;
  params.alpha_sync_local = 0.03;
  params.beta_sync_local = 0.002;
  params.alpha_sync_node = 0.1;
  params.beta_sync_node = 0.005;
  params.gamma = 2.0;
  AgentReport agent;
  agent.job_id = job_id;
  agent.model = GoodputModel(params, phi, 128);
  agent.limits.min_batch = 128;
  agent.limits.max_batch_total = 16384;
  agent.limits.max_batch_per_gpu = 1024;
  agent.max_gpus_cap = 8;
  return agent;
}

SchedJobReport MakeReport(uint64_t job_id, uint64_t seq, double phi = 1000.0) {
  SchedJobReport report;
  report.agent = MakeAgent(job_id, phi);
  report.gpu_time = static_cast<double>(seq) * 120.0;
  report.report_age = 0.0;
  report.seq = seq;
  return report;
}

TenantSetup MakeSetup(uint64_t tenant_id, SchedMode mode = SchedMode::kIncremental) {
  TenantSetup setup;
  setup.tenant_id = tenant_id;
  setup.cluster.gpus_per_node.assign(4, 4);
  setup.sched.ga.population_size = 16;
  setup.sched.ga.generations = 8;
  setup.sched.ga.seed = 7;
  setup.sched.mode = mode;
  return setup;
}

std::string TempDir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   (std::string("pollux_tenant_test_") + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// Drives `rounds` epochs of a deterministic little workload.
void Drive(TenantDomain& domain, int rounds, int jobs = 6) {
  for (int j = 0; j < jobs; ++j) {
    domain.SubmitJob(MakeAgent(static_cast<uint64_t>(j) + 1, 800.0 + 100.0 * j), 0.0);
  }
  for (int r = 0; r < rounds; ++r) {
    for (int j = 0; j < jobs; ++j) {
      domain.Ingest(MakeReport(static_cast<uint64_t>(j) + 1, static_cast<uint64_t>(r) + 1,
                               800.0 + 100.0 * j));
    }
    RoundDecisions decisions;
    ASSERT_EQ(domain.RunRound(static_cast<uint64_t>(r), &decisions),
              TenantDomain::RoundStatus::kExecuted);
    EXPECT_EQ(decisions.round, static_cast<uint64_t>(r));
    EXPECT_FALSE(decisions.cached);
  }
}

TEST(TenantSetupTest, CodecRoundTrip) {
  TenantSetup setup = MakeSetup(42, SchedMode::kFirstMatch);
  setup.cluster.rack_of_node = {0, 0, 1, 1};
  setup.cluster.node_gpu_scale = {1.0, 1.0, 0.5, 0.5};
  setup.sched.queue_admission = true;
  setup.sched.lease_intervals = 3;
  BinWriter out;
  PutTenantSetup(out, setup);
  BinReader in(out.str());
  TenantSetup parsed;
  parsed.tenant_id = 42;
  ASSERT_TRUE(GetTenantSetup(in, &parsed));
  EXPECT_TRUE(in.AtEnd());
  BinWriter again;
  PutTenantSetup(again, parsed);
  EXPECT_EQ(out.str(), again.str());
  EXPECT_EQ(parsed.sched.mode, SchedMode::kFirstMatch);
  EXPECT_TRUE(parsed.sched.queue_admission);
}

TEST(TenantSetupTest, RejectsMalformedShapes) {
  // Empty cluster.
  {
    TenantSetup setup = MakeSetup(1);
    setup.cluster.gpus_per_node.clear();
    BinWriter out;
    PutTenantSetup(out, setup);
    BinReader in(out.str());
    TenantSetup parsed;
    EXPECT_FALSE(GetTenantSetup(in, &parsed));
  }
  // Mismatched rack annotation length.
  {
    TenantSetup setup = MakeSetup(1);
    setup.cluster.rack_of_node = {0};
    BinWriter out;
    PutTenantSetup(out, setup);
    BinReader in(out.str());
    TenantSetup parsed;
    EXPECT_FALSE(GetTenantSetup(in, &parsed));
  }
  // Truncation at every prefix must fail cleanly, never crash.
  {
    BinWriter out;
    PutTenantSetup(out, MakeSetup(1));
    const std::string full = out.str();
    for (size_t len = 0; len < full.size(); len += 3) {
      const std::string prefix = full.substr(0, len);
      BinReader in(prefix);
      TenantSetup parsed;
      EXPECT_FALSE(GetTenantSetup(in, &parsed) && in.AtEnd()) << "prefix " << len;
    }
  }
}

TEST(TenantDomainTest, RoundIdempotency) {
  TenantDomain domain(MakeSetup(1));
  Drive(domain, 3);
  // Replay of the last executed round: cached, identical rows, no state step.
  RoundDecisions replay;
  ASSERT_EQ(domain.RunRound(2, &replay), TenantDomain::RoundStatus::kCached);
  EXPECT_TRUE(replay.cached);
  EXPECT_EQ(replay.round, 2u);
  EXPECT_EQ(domain.next_round(), 3u);
  EXPECT_EQ(domain.rounds(), 3u);
  // Too old or too new: refused.
  RoundDecisions decisions;
  EXPECT_EQ(domain.RunRound(1, &decisions), TenantDomain::RoundStatus::kBadRound);
  EXPECT_EQ(domain.RunRound(4, &decisions), TenantDomain::RoundStatus::kBadRound);
  // The next round proceeds normally afterwards.
  EXPECT_EQ(domain.RunRound(3, &decisions), TenantDomain::RoundStatus::kExecuted);
}

TEST(TenantDomainTest, IngestIsDaemonAuthoritativeForAllocations) {
  TenantDomain domain(MakeSetup(1));
  domain.SubmitJob(MakeAgent(1), 0.0);
  SchedJobReport hostile = MakeReport(1, 1);
  hostile.current_allocation = {4, 4, 4, 4};  // client claims the whole cluster
  ASSERT_TRUE(domain.Ingest(hostile));
  RoundDecisions decisions;
  ASSERT_EQ(domain.RunRound(0, &decisions), TenantDomain::RoundStatus::kExecuted);
  // The scheduler saw the job as queued (no allocation), not as owning 16
  // GPUs: whatever it decided fits the 4x4 cluster.
  EXPECT_TRUE(PolluxSched::AllocationsFeasible(domain.setup().cluster, decisions.rows));
  // Unknown jobs are rejected and counted.
  EXPECT_FALSE(domain.Ingest(MakeReport(99, 1)));
  EXPECT_EQ(domain.reports_rejected(), 1u);
}

TEST(TenantDomainTest, SnapshotRoundTripsByteIdentically) {
  for (SchedMode mode :
       {SchedMode::kExact, SchedMode::kIncremental, SchedMode::kFirstMatch}) {
    TenantDomain domain(MakeSetup(9, mode));
    Drive(domain, 3);
    const std::string snapshot = domain.EncodeSnapshot();
    std::string error;
    auto restored = TenantDomain::FromSnapshot(snapshot, &error);
    ASSERT_NE(restored, nullptr) << error;
    EXPECT_EQ(restored->EncodeSnapshot(), snapshot) << SchedModeName(mode);
    // The restored domain replays the cached round and then continues with
    // decisions identical to the original.
    RoundDecisions from_original, from_restored;
    ASSERT_EQ(restored->RunRound(2, &from_restored), TenantDomain::RoundStatus::kCached);
    ASSERT_EQ(domain.RunRound(2, &from_original), TenantDomain::RoundStatus::kCached);
    EXPECT_EQ(from_restored.rows, from_original.rows);
    for (int j = 0; j < 6; ++j) {
      domain.Ingest(MakeReport(static_cast<uint64_t>(j) + 1, 4, 800.0 + 100.0 * j));
      restored->Ingest(MakeReport(static_cast<uint64_t>(j) + 1, 4, 800.0 + 100.0 * j));
    }
    ASSERT_EQ(domain.RunRound(3, &from_original), TenantDomain::RoundStatus::kExecuted);
    ASSERT_EQ(restored->RunRound(3, &from_restored), TenantDomain::RoundStatus::kExecuted);
    EXPECT_EQ(from_restored.rows, from_original.rows) << SchedModeName(mode);
    EXPECT_EQ(restored->EncodeSnapshot(), domain.EncodeSnapshot());
  }
}

TEST(TenantDomainTest, MalformedSnapshotsRejectedCleanly) {
  TenantDomain domain(MakeSetup(2));
  Drive(domain, 2);
  const std::string snapshot = domain.EncodeSnapshot();
  std::string error;
  // Wrong version word.
  {
    std::string bytes = snapshot;
    bytes[0] = static_cast<char>(0x7f);
    EXPECT_EQ(TenantDomain::FromSnapshot(bytes, &error), nullptr);
  }
  // Truncations (every 97 bytes keeps the test fast) and trailing garbage.
  for (size_t len = 0; len < snapshot.size(); len += 97) {
    EXPECT_EQ(TenantDomain::FromSnapshot(snapshot.substr(0, len), &error), nullptr)
        << "prefix " << len;
  }
  EXPECT_EQ(TenantDomain::FromSnapshot(snapshot + "extra", &error), nullptr);
}

TEST(TenantDomainTest, CheckpointRestoreNewestFallsBackPastCorruption) {
  const std::string dir = TempDir("ckpt");
  TenantDomain domain(MakeSetup(3));
  Drive(domain, 2);
  std::string error;
  ASSERT_TRUE(domain.SaveCheckpoint(dir, /*keep=*/8, &error)) << error;
  const std::string good = domain.EncodeSnapshot();

  // Advance and checkpoint again, then corrupt the newest file.
  for (int j = 0; j < 6; ++j) {
    domain.Ingest(MakeReport(static_cast<uint64_t>(j) + 1, 3, 800.0 + 100.0 * j));
  }
  RoundDecisions decisions;
  ASSERT_EQ(domain.RunRound(2, &decisions), TenantDomain::RoundStatus::kExecuted);
  ASSERT_TRUE(domain.SaveCheckpoint(dir, 8, &error)) << error;
  auto files = ListSnapshotFiles(dir);
  ASSERT_EQ(files.size(), 2u);
  {
    std::ofstream out(files.back(), std::ios::binary | std::ios::trunc);
    out << "torn";
  }
  auto restored = TenantDomain::RestoreNewest(dir, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(restored->EncodeSnapshot(), good);  // fell back to the older file
  EXPECT_EQ(restored->next_round(), 2u);

  std::filesystem::remove_all(dir);
}

// The tenant section's layout is unchanged since container version 3, so a
// daemon restarted on a newer build must still restore a v3 file.
TEST(TenantDomainTest, VersionThreeTenantSnapshotStillRestores) {
  const std::string dir = TempDir("v3");
  TenantDomain domain(MakeSetup(5));
  Drive(domain, 2);
  std::string error;
  ASSERT_TRUE(domain.SaveCheckpoint(dir, /*keep=*/8, &error)) << error;
  const auto files = ListSnapshotFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  std::string bytes;
  {
    std::ifstream in(files.front(), std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 16u);
  // Version word at offset 8 (little-endian); re-seal the trailing CRC.
  bytes[8] = 3;
  const uint32_t crc = Crc32(bytes.data() + 8, bytes.size() - 12);
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + static_cast<size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  {
    std::ofstream out(files.front(), std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  auto restored = TenantDomain::RestoreNewest(dir, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(restored->EncodeSnapshot(), domain.EncodeSnapshot());
  std::filesystem::remove_all(dir);
}

TEST(TenantDomainTest, CheckpointPruneKeepsNewest) {
  const std::string dir = TempDir("prune");
  TenantDomain domain(MakeSetup(4));
  Drive(domain, 4);
  std::string error;
  // One checkpoint per round boundary; keep=2 must prune to the newest two.
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 6; ++j) {
      domain.Ingest(
          MakeReport(static_cast<uint64_t>(j) + 1, static_cast<uint64_t>(i) + 5));
    }
    RoundDecisions decisions;
    ASSERT_EQ(domain.RunRound(4 + static_cast<uint64_t>(i), &decisions),
              TenantDomain::RoundStatus::kExecuted);
    ASSERT_TRUE(domain.SaveCheckpoint(dir, /*keep=*/2, &error)) << error;
  }
  EXPECT_EQ(ListSnapshotFiles(dir).size(), 2u);
  auto restored = TenantDomain::RestoreNewest(dir, &error);
  ASSERT_NE(restored, nullptr) << error;
  EXPECT_EQ(restored->next_round(), domain.next_round());
  std::filesystem::remove_all(dir);
}

TEST(TenantDomainTest, DecisionsPayloadRoundTrip) {
  RoundDecisions decisions;
  decisions.round = 17;
  decisions.degraded = true;
  decisions.cached = true;
  decisions.utility = 3.25;
  decisions.rows[5] = {1, 0, 2};
  decisions.rows[9] = {};
  const std::string payload = EncodeDecisionsPayload(decisions);
  RoundDecisions parsed;
  ASSERT_TRUE(DecodeDecisionsPayload(payload, &parsed));
  EXPECT_EQ(parsed.round, 17u);
  EXPECT_TRUE(parsed.degraded);
  EXPECT_TRUE(parsed.cached);
  EXPECT_EQ(parsed.utility, 3.25);
  EXPECT_EQ(parsed.rows, decisions.rows);
  EXPECT_FALSE(DecodeDecisionsPayload(payload.substr(0, payload.size() - 1), &parsed));
  EXPECT_FALSE(DecodeDecisionsPayload(payload + "x", &parsed));
}

}  // namespace
}  // namespace service
}  // namespace pollux
