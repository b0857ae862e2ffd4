#include "service/tenant.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "service/wire.h"

namespace pollux {
namespace service {
namespace {

// Absurd-size guard for decoded containers; matches the checkpoint codecs.
constexpr uint64_t kMaxReasonable = uint64_t{1} << 20;

void PutClusterSpec(BinWriter& out, const ClusterSpec& cluster) {
  out.PutIntVec(cluster.gpus_per_node);
  out.PutIntVec(cluster.rack_of_node);
  out.PutIntVec(cluster.gpu_type_of_node);
  out.PutU64(cluster.node_gpu_scale.size());
  for (double scale : cluster.node_gpu_scale) out.PutDouble(scale);
  out.PutDouble(cluster.rack_link_factor);
}

bool GetClusterSpec(BinReader& in, ClusterSpec* cluster) {
  cluster->gpus_per_node = in.GetIntVec();
  cluster->rack_of_node = in.GetIntVec();
  cluster->gpu_type_of_node = in.GetIntVec();
  const uint64_t num_scales = in.GetU64();
  if (num_scales > kMaxReasonable) {
    in.MarkBad();
    return false;
  }
  cluster->node_gpu_scale.resize(num_scales);
  for (uint64_t i = 0; i < num_scales && in.ok(); ++i) {
    cluster->node_gpu_scale[i] = in.GetFiniteDouble();
  }
  cluster->rack_link_factor = in.GetFiniteDouble();
  if (!in.ok()) return false;
  // Shape validation: a tenant must schedule a real cluster, annotations (when
  // present) must be per-node, and capacities must be non-negative.
  const size_t nodes = cluster->gpus_per_node.size();
  if (nodes == 0 || nodes > kMaxReasonable) {
    in.MarkBad();
    return false;
  }
  for (int gpus : cluster->gpus_per_node) {
    if (gpus < 0) {
      in.MarkBad();
      return false;
    }
  }
  if (!cluster->rack_of_node.empty() && cluster->rack_of_node.size() != nodes) {
    in.MarkBad();
    return false;
  }
  if (!cluster->gpu_type_of_node.empty() && cluster->gpu_type_of_node.size() != nodes) {
    in.MarkBad();
    return false;
  }
  if (!cluster->node_gpu_scale.empty() && cluster->node_gpu_scale.size() != nodes) {
    in.MarkBad();
    return false;
  }
  return true;
}

void PutSchedConfig(BinWriter& out, const SchedConfig& config) {
  out.PutI64(config.ga.population_size);
  out.PutI64(config.ga.generations);
  out.PutI64(config.ga.tournament_size);
  out.PutDouble(config.ga.restart_penalty);
  out.PutBool(config.ga.interference_avoidance);
  out.PutU64(config.ga.seed);
  // Reserved slot: the GA's removed memo-cache switch. Always written as
  // true, the value older builds defaulted to, so CreateTenant frames and
  // tenant snapshots stay byte-compatible with them.
  out.PutBool(true);
  out.PutDouble(config.gpu_time_threshold);
  out.PutDouble(config.weight_lambda);
  out.PutBool(true);  // Reserved slot: the removed table-cache switch.
  out.PutDouble(config.round_time_budget);
  out.PutDouble(config.stale_report_age);
  out.PutDouble(config.report_interval);
  out.PutI64(config.lease_intervals);
  out.PutDouble(config.lease_grace);
  out.PutDouble(config.degraded_coverage);
  out.PutBool(config.naive_masking);
  out.PutString(SchedModeName(config.mode));
  out.PutDouble(config.dirty_rel_change);
  out.PutI64(config.shard_jobs);
  out.PutI64(config.refresh_rounds);
  out.PutBool(config.queue_admission);
}

bool GetSchedConfig(BinReader& in, SchedConfig* config) {
  config->ga.population_size = static_cast<int>(in.GetI64());
  config->ga.generations = static_cast<int>(in.GetI64());
  config->ga.tournament_size = static_cast<int>(in.GetI64());
  config->ga.restart_penalty = in.GetFiniteDouble();
  config->ga.interference_avoidance = in.GetBool();
  config->ga.seed = in.GetU64();
  // Reserved slot (see PutSchedConfig), read and discarded so CreateTenant
  // frames and tenant snapshots written by older builds, and the
  // v3-container restore path, keep decoding unchanged.
  in.GetBool();
  // Shard workers already parallelize across tenants; each tenant's GA stays
  // serial so decisions never depend on the daemon's thread count.
  config->ga.threads = 1;
  config->gpu_time_threshold = in.GetFiniteDouble();
  config->weight_lambda = in.GetFiniteDouble();
  in.GetBool();  // Reserved slot: the removed table-cache switch.
  config->round_time_budget = in.GetFiniteDouble();
  config->stale_report_age = in.GetFiniteDouble();
  config->report_interval = in.GetFiniteDouble();
  config->lease_intervals = static_cast<int>(in.GetI64());
  config->lease_grace = in.GetFiniteDouble();
  config->degraded_coverage = in.GetFiniteDouble();
  config->naive_masking = in.GetBool();
  const std::string mode = in.GetString();
  if (!SchedModeByName(mode, &config->mode)) {
    in.MarkBad();
    return false;
  }
  config->dirty_rel_change = in.GetFiniteDouble();
  config->shard_jobs = static_cast<int>(in.GetI64());
  config->refresh_rounds = static_cast<int>(in.GetI64());
  config->queue_admission = in.GetBool();
  if (!in.ok()) return false;
  // GA budget sanity: a hostile CreateTenant must not be able to request a
  // round that effectively never terminates or divides by zero.
  if (config->ga.population_size < 1 || config->ga.population_size > 100000 ||
      config->ga.generations < 0 || config->ga.generations > 100000 ||
      config->ga.tournament_size < 1) {
    in.MarkBad();
    return false;
  }
  return true;
}

void PutRoundDecisions(BinWriter& out, const RoundDecisions& decisions) {
  out.PutU64(decisions.round);
  out.PutBool(decisions.degraded);
  out.PutDouble(decisions.utility);
  out.PutU64(decisions.rows.size());
  for (const auto& [job_id, row] : decisions.rows) {
    out.PutU64(job_id);
    out.PutIntVec(row);
  }
}

bool GetRoundDecisions(BinReader& in, RoundDecisions* decisions) {
  decisions->round = in.GetU64();
  decisions->degraded = in.GetBool();
  decisions->cached = false;
  decisions->utility = in.GetDouble();
  const uint64_t num_rows = in.GetU64();
  if (num_rows > kMaxReasonable) {
    in.MarkBad();
    return false;
  }
  decisions->rows.clear();
  for (uint64_t i = 0; i < num_rows && in.ok(); ++i) {
    const uint64_t job_id = in.GetU64();
    decisions->rows[job_id] = in.GetIntVec();
  }
  return in.ok();
}

}  // namespace

std::string EncodeDecisionsPayload(const RoundDecisions& decisions) {
  BinWriter out;
  out.PutU64(decisions.round);
  uint32_t flags = 0;
  if (decisions.degraded) flags |= kDecisionDegraded;
  if (decisions.cached) flags |= kDecisionCached;
  out.PutU32(flags);
  out.PutDouble(decisions.utility);
  out.PutU64(decisions.rows.size());
  for (const auto& [job_id, row] : decisions.rows) {
    out.PutU64(job_id);
    out.PutIntVec(row);
  }
  return out.str();
}

bool DecodeDecisionsPayload(const std::string& payload, RoundDecisions* decisions) {
  BinReader in(payload);
  decisions->round = in.GetU64();
  const uint32_t flags = in.GetU32();
  decisions->degraded = (flags & kDecisionDegraded) != 0;
  decisions->cached = (flags & kDecisionCached) != 0;
  decisions->utility = in.GetDouble();
  const uint64_t num_rows = in.GetU64();
  if (!in.ok() || num_rows > kMaxReasonable) return false;
  decisions->rows.clear();
  for (uint64_t i = 0; i < num_rows && in.ok(); ++i) {
    const uint64_t job_id = in.GetU64();
    decisions->rows[job_id] = in.GetIntVec();
  }
  return in.ok() && in.AtEnd();
}

void PutTenantSetup(BinWriter& out, const TenantSetup& setup) {
  PutClusterSpec(out, setup.cluster);
  PutSchedConfig(out, setup.sched);
}

bool GetTenantSetup(BinReader& in, TenantSetup* setup) {
  if (!GetClusterSpec(in, &setup->cluster)) return false;
  return GetSchedConfig(in, &setup->sched);
}

TenantDomain::TenantDomain(TenantSetup setup)
    : setup_(std::move(setup)), sched_(setup_.cluster, setup_.sched) {}

void TenantDomain::SubmitJob(const AgentReport& agent, double gpu_time) {
  SchedJobReport report;
  report.agent = agent;
  report.gpu_time = gpu_time;
  jobs_[agent.job_id] = std::move(report);
  ++submits_;
}

bool TenantDomain::CancelJob(uint64_t job_id) {
  if (jobs_.erase(job_id) == 0) return false;
  ++cancels_;
  return true;
}

bool TenantDomain::Ingest(const SchedJobReport& report) {
  auto it = jobs_.find(report.agent.job_id);
  if (it == jobs_.end()) {
    ++rejected_reports_;
    return false;
  }
  // Allocation stays daemon-owned; everything else refreshes.
  it->second.agent = report.agent;
  it->second.gpu_time = report.gpu_time;
  it->second.report_age = report.report_age;
  it->second.seq = report.seq;
  ++reports_;
  return true;
}

TenantDomain::RoundStatus TenantDomain::RunRound(uint64_t round, RoundDecisions* out) {
  if (has_last_ && round == last_.round) {
    *out = last_;
    out->cached = true;
    return RoundStatus::kCached;
  }
  if (round != next_round_) return RoundStatus::kBadRound;

  std::vector<SchedJobReport> reports;
  reports.reserve(jobs_.size());
  for (const auto& [job_id, report] : jobs_) reports.push_back(report);

  const uint64_t fallback_before = sched_.fallback_rounds();
  const uint64_t degraded_before = sched_.degraded_rounds();
  auto decisions = sched_.Schedule(reports);
  for (const auto& [job_id, row] : decisions) {
    auto it = jobs_.find(job_id);
    if (it != jobs_.end()) it->second.current_allocation = row;
  }

  last_.round = round;
  last_.degraded = sched_.fallback_rounds() > fallback_before ||
                   sched_.degraded_rounds() > degraded_before;
  last_.cached = false;
  last_.utility = sched_.last_utility();
  last_.rows = std::move(decisions);
  has_last_ = true;
  next_round_ = round + 1;
  ++rounds_;
  *out = last_;
  return RoundStatus::kExecuted;
}

std::string TenantDomain::EncodeSnapshot() const {
  BinWriter out;
  out.PutU32(kTenantSnapshotVersion);
  out.PutU64(setup_.tenant_id);
  PutTenantSetup(out, setup_);
  out.PutU64(next_round_);
  out.PutBool(has_last_);
  if (has_last_) PutRoundDecisions(out, last_);
  out.PutU64(jobs_.size());
  for (const auto& [job_id, report] : jobs_) {
    out.PutU64(job_id);
    PutSchedJobReport(out, report);
  }
  const PolluxSched::State state = sched_.GetState();
  PutSchedStateCore(out, state);
  PutSchedStateIncremental(out, state);
  out.PutU64(submits_);
  out.PutU64(cancels_);
  out.PutU64(reports_);
  out.PutU64(rejected_reports_);
  out.PutU64(rounds_);
  return out.str();
}

std::unique_ptr<TenantDomain> TenantDomain::FromSnapshot(const std::string& payload,
                                                         std::string* error) {
  BinReader in(payload);
  const uint32_t version = in.GetU32();
  if (!in.ok() || version != kTenantSnapshotVersion) {
    if (error) *error = "unsupported tenant snapshot version";
    return nullptr;
  }
  TenantSetup setup;
  setup.tenant_id = in.GetU64();
  if (!GetTenantSetup(in, &setup)) {
    if (error) *error = "malformed tenant setup";
    return nullptr;
  }
  auto domain = std::make_unique<TenantDomain>(std::move(setup));
  domain->next_round_ = in.GetU64();
  domain->has_last_ = in.GetBool();
  if (domain->has_last_ && !GetRoundDecisions(in, &domain->last_)) {
    if (error) *error = "malformed cached round decisions";
    return nullptr;
  }
  const uint64_t num_jobs = in.GetU64();
  if (!in.ok() || num_jobs > kMaxReasonable) {
    if (error) *error = "malformed job table";
    return nullptr;
  }
  for (uint64_t i = 0; i < num_jobs && in.ok(); ++i) {
    const uint64_t job_id = in.GetU64();
    domain->jobs_[job_id] = GetSchedJobReport(in);
  }
  PolluxSched::State state;
  GetSchedStateCore(in, &state);
  GetSchedStateIncremental(in, &state);
  domain->submits_ = in.GetU64();
  domain->cancels_ = in.GetU64();
  domain->reports_ = in.GetU64();
  domain->rejected_reports_ = in.GetU64();
  domain->rounds_ = in.GetU64();
  if (!in.ok() || !in.AtEnd()) {
    if (error) *error = "malformed tenant snapshot";
    return nullptr;
  }
  domain->sched_.SetState(state);
  return domain;
}

bool TenantDomain::SaveCheckpoint(const std::string& dir, int keep, std::string* error) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    if (error) *error = "cannot create checkpoint dir " + dir + ": " + ec.message();
    return false;
  }
  SnapshotMeta meta;
  // Rounds stand in for sim time: lexicographic file order == round order.
  meta.sim_time = static_cast<double>(next_round_);
  meta.engine = "schedd";
  meta.policy = "pollux";
  meta.seed = setup_.sched.ga.seed;
  meta.jobs_submitted = submits_;
  meta.jobs_finished = cancels_;
  meta.events = rounds_;
  std::map<uint32_t, std::string> sections;
  sections[kTagService] = EncodeSnapshot();
  const std::string path = dir + "/" + SnapshotFileName(meta.sim_time);
  if (!WriteSnapshotFile(path, sections, meta, error)) return false;
  // Bound disk use: keep the newest `keep` snapshots (plus sidecars). The
  // newest file was just written and is never pruned.
  if (keep > 0) {
    std::vector<std::string> files = ListSnapshotFiles(dir);  // oldest first
    while (files.size() > static_cast<size_t>(keep)) {
      std::filesystem::remove(files.front(), ec);
      std::filesystem::remove(files.front() + ".json", ec);
      files.erase(files.begin());
    }
  }
  return true;
}

std::unique_ptr<TenantDomain> TenantDomain::RestoreNewest(const std::string& dir,
                                                          std::string* error) {
  // Newest first, falling back past any file that fails at either layer:
  // container validation (torn write, bad CRC) or tenant payload decode.
  std::vector<std::string> files = ListSnapshotFiles(dir);
  std::string last_error = "no snapshot files in " + dir;
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    std::map<uint32_t, std::string> sections;
    if (!ReadSnapshotFile(*it, &sections, &last_error)) continue;
    auto section = sections.find(kTagService);
    if (section == sections.end()) {
      last_error = *it + ": no tenant section";
      continue;
    }
    auto domain = FromSnapshot(section->second, &last_error);
    if (domain) return domain;
  }
  if (error) *error = last_error;
  return nullptr;
}

}  // namespace service
}  // namespace pollux
