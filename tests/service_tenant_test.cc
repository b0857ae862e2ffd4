// TenantDomain tests (service/tenant.h): snapshot byte-identity (the crash-
// tolerance keystone), round idempotency, checkpoint/restore with corrupt-
// file fallback, and hostile-input rejection of malformed snapshots/setups.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
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

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex += kDigits[c >> 4];
    hex += kDigits[c & 15];
  }
  return hex;
}

// PutTenantSetup bytes recorded from a build that still had the two scheduler
// cache switches. CreateTenant frames and tenant snapshots depend on them;
// the switches' slots are reserved and always carry true (01000000).
constexpr char kTopologySetupGolden[] =
    "0400000000000000040000000000000004000000000000000400000000000000"
    "0400000000000000040000000000000000000000000000000000000000000000"
    "0100000000000000010000000000000004000000000000000000000000000000"
    "0000000000000000010000000000000001000000000000000400000000000000"
    "000000000000f03f000000000000f03f000000000000e03f000000000000e03f"
    "0000000000000040100000000000000008000000000000000300000000000000"
    "000000000000d03f01000000070000000000000001000000000000000020cc40"
    "000000000000e03f0100000000000000000000000000000000c0624000000000"
    "00003e4003000000000000000000000000c07240000000000000000000000000"
    "0b00000000000000696e6372656d656e74616c9a9999999999a93f1000000000"
    "000000140000000000000001000000";

TEST(TenantSetupTest, EncodingMatchesRecordedGolden) {
  TenantSetup setup = MakeSetup(42, SchedMode::kIncremental);
  setup.cluster.rack_of_node = {0, 0, 1, 1};
  setup.cluster.gpu_type_of_node = {0, 0, 1, 1};
  setup.cluster.node_gpu_scale = {1.0, 1.0, 0.5, 0.5};
  setup.cluster.rack_link_factor = 2.0;
  setup.sched.lease_intervals = 3;
  setup.sched.queue_admission = true;
  BinWriter out;
  PutTenantSetup(out, setup);
  EXPECT_EQ(Hex(out.str()), kTopologySetupGolden);
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

// CRC-valid hostile fixtures: a CreateTenant frame and a tenant snapshot whose
// framing is intact but whose cluster spec or scheduler config carries NaN or
// infinity.
TEST(TenantSetupTest, RejectsNonFiniteConfigDoubles) {
  const std::vector<std::function<double&(TenantSetup&)>> fields = {
      [](TenantSetup& s) -> double& {
        s.cluster.node_gpu_scale.assign(s.cluster.gpus_per_node.size(), 1.0);
        return s.cluster.node_gpu_scale[2];
      },
      [](TenantSetup& s) -> double& { return s.cluster.rack_link_factor; },
      [](TenantSetup& s) -> double& { return s.sched.ga.restart_penalty; },
      [](TenantSetup& s) -> double& { return s.sched.gpu_time_threshold; },
      [](TenantSetup& s) -> double& { return s.sched.weight_lambda; },
      [](TenantSetup& s) -> double& { return s.sched.round_time_budget; },
      [](TenantSetup& s) -> double& { return s.sched.stale_report_age; },
      [](TenantSetup& s) -> double& { return s.sched.report_interval; },
      [](TenantSetup& s) -> double& { return s.sched.lease_grace; },
      [](TenantSetup& s) -> double& { return s.sched.degraded_coverage; },
      [](TenantSetup& s) -> double& { return s.sched.dirty_rel_change; },
  };
  const double hostile[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
  for (size_t f = 0; f < fields.size(); ++f) {
    for (double value : hostile) {
      TenantSetup setup = MakeSetup(9);
      fields[f](setup) = value;
      BinWriter out;
      out.PutU64(setup.tenant_id);
      PutTenantSetup(out, setup);
      Frame frame;
      size_t consumed = 0;
      ASSERT_EQ(DecodeFrame(EncodeFrame(kMsgCreateTenant, out.str()), kDefaultMaxFrameBytes,
                            &frame, &consumed),
                FrameStatus::kOk);
      BinReader in(frame.payload);
      TenantSetup parsed;
      parsed.tenant_id = in.GetU64();
      EXPECT_FALSE(GetTenantSetup(in, &parsed)) << "field " << f << " = " << value;

      std::string error;
      EXPECT_EQ(TenantDomain::FromSnapshot(TenantDomain(setup).EncodeSnapshot(), &error), nullptr)
          << "field " << f << " = " << value;
    }
  }
}

// The same for job telemetry: a CRC-valid kMsgSubmitJob or kMsgReport frame,
// or a tenant snapshot, whose report carries a non-finite theta_sys, phi,
// GPU-time or report age is rejected at decode.
TEST(TenantSetupTest, RejectsNonFiniteReportDoubles) {
  std::vector<std::function<void(SchedJobReport&, double)>> fields;
  for (double ThroughputParams::*member :
       {&ThroughputParams::alpha_grad, &ThroughputParams::beta_grad,
        &ThroughputParams::alpha_sync_local, &ThroughputParams::beta_sync_local,
        &ThroughputParams::alpha_sync_node, &ThroughputParams::beta_sync_node,
        &ThroughputParams::gamma}) {
    fields.push_back([member](SchedJobReport& r, double v) {
      ThroughputParams params = r.agent.model.params();
      params.*member = v;
      r.agent.model.set_params(params);
    });
  }
  fields.push_back([](SchedJobReport& r, double v) { r.agent.model.set_phi(v); });
  fields.push_back([](SchedJobReport& r, double v) { r.gpu_time = v; });
  fields.push_back([](SchedJobReport& r, double v) { r.report_age = v; });
  constexpr size_t kAgentFields = 8;  // theta_sys and phi travel in the AgentReport.
  constexpr size_t kGpuTimeField = kAgentFields;  // SubmitJob carries it after the agent.
  const double hostile[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
  const auto decode_frame = [](uint32_t type, const std::string& payload) {
    Frame frame;
    size_t consumed = 0;
    EXPECT_EQ(DecodeFrame(EncodeFrame(type, payload), kDefaultMaxFrameBytes, &frame, &consumed),
              FrameStatus::kOk);
    return frame.payload;
  };
  for (size_t f = 0; f < fields.size(); ++f) {
    for (double value : hostile) {
      SchedJobReport report = MakeReport(1, 1);
      fields[f](report, value);

      BinWriter batch;
      batch.PutU64(1);
      batch.Put(report);
      const std::string payload = decode_frame(kMsgReport, batch.str());
      BinReader in(payload);
      ASSERT_EQ(in.GetU64(), 1u);
      in.Get<SchedJobReport>();
      EXPECT_FALSE(in.ok()) << "report field " << f << " = " << value;

      if (f <= kGpuTimeField) {
        // The SubmitJob payload: an AgentReport, then gpu_time.
        BinWriter submit;
        submit.Put(report.agent);
        submit.PutDouble(report.gpu_time);
        const std::string submit_payload = decode_frame(kMsgSubmitJob, submit.str());
        BinReader submit_in(submit_payload);
        submit_in.Get<AgentReport>();
        submit_in.GetFiniteDouble();
        EXPECT_FALSE(submit_in.ok()) << "submit field " << f << " = " << value;
      }

      // The daemon's decoders never let such a report in; a snapshot that
      // carries one anyway (tampered, CRC recomputed) is refused on restore.
      TenantDomain domain(MakeSetup(9));
      domain.SubmitJob(MakeAgent(1), 0.0);
      ASSERT_TRUE(domain.Ingest(report));
      std::string error;
      EXPECT_EQ(TenantDomain::FromSnapshot(domain.EncodeSnapshot(), &error), nullptr)
          << "report field " << f << " = " << value;
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

// Digests of a topology-annotated tenant's snapshot after three rounds, one
// per scheduling mode, recorded from the hand-written codecs the field lists
// replaced. Daemons restore these bytes across upgrades.
TEST(TenantDomainTest, SnapshotEncodingMatchesRecordedGoldens) {
  const std::pair<SchedMode, const char*> goldens[] = {
      {SchedMode::kExact, "5018f9a221ee78e0"},
      {SchedMode::kIncremental, "d847e58c11b8cda4"},
      {SchedMode::kFirstMatch, "9ad06369d04bd957"},
  };
  for (const auto& [mode, digest] : goldens) {
    TenantSetup setup = MakeSetup(9, mode);
    setup.cluster.rack_of_node = {0, 0, 1, 1};
    setup.cluster.gpu_type_of_node = {0, 0, 1, 1};
    setup.cluster.node_gpu_scale = {1.0, 1.0, 0.5, 0.5};
    setup.cluster.rack_link_factor = 2.0;
    TenantDomain domain(setup);
    Drive(domain, 3);
    EXPECT_EQ(Fnv1aHex(domain.EncodeSnapshot()), digest) << SchedModeName(mode);
  }
}

// A tenant snapshot that declares one 2^20 x 2^20 GA population matrix and
// then ends: refused before anything is sized from the declared shape.
TEST(TenantDomainTest, HugePopulationMatrixIsRejected) {
  BinWriter out;
  out.PutU32(kTenantSnapshotVersion);
  out.PutU64(1);
  PutTenantSetup(out, MakeSetup(1));
  out.PutU64(0);       // next_round
  out.PutBool(false);  // no cached round
  out.PutU64(0);       // no jobs
  // GA state: Rng words, cached normal and its flag, no last job ids, then a
  // population of one matrix whose shape is all that follows.
  for (int word = 0; word < 4; ++word) out.PutU64(1);
  out.PutDouble(0.0);
  out.PutBool(false);
  out.PutU64(0);
  out.PutU64(1);
  out.PutU64(uint64_t{1} << 20);
  out.PutU64(uint64_t{1} << 20);
  std::string error;
  EXPECT_EQ(TenantDomain::FromSnapshot(out.str(), &error), nullptr);
  EXPECT_FALSE(error.empty());
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
