#include "service/tenant.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "service/wire.h"

namespace pollux {
namespace service {
namespace {

// The tenant's cluster: capacities, then the per-node annotations and the
// rack link factor.
template <class Io>
void Fields(Io& io, ClusterSpec& cluster) {
  io.IntVec(cluster.gpus_per_node);
  NodeAnnotationFields(io, cluster);
  io.FiniteF64(cluster.rack_link_factor);
}

template <class Io>
void Fields(Io& io, SchedConfig& config) {
  io.I64(config.ga.population_size);
  io.I64(config.ga.generations);
  io.I64(config.ga.tournament_size);
  io.FiniteF64(config.ga.restart_penalty);
  io.Bool(config.ga.interference_avoidance);
  io.U64(config.ga.seed);
  // Two reserved slots: the removed GA memo-cache and table-cache switches.
  // Always written as true, the value older builds defaulted to, and ignored
  // on decode, so CreateTenant frames and tenant snapshots stay
  // byte-compatible with those builds.
  bool memo_cache_slot = true;
  io.Bool(memo_cache_slot);
  io.FiniteF64(config.gpu_time_threshold);
  io.FiniteF64(config.weight_lambda);
  bool table_cache_slot = true;
  io.Bool(table_cache_slot);
  io.FiniteF64(config.round_time_budget);
  io.FiniteF64(config.stale_report_age);
  io.FiniteF64(config.report_interval);
  io.I64(config.lease_intervals);
  io.FiniteF64(config.lease_grace);
  io.FiniteF64(config.degraded_coverage);
  io.Bool(config.naive_masking);
  std::string mode = SchedModeName(config.mode);
  io.Str(mode);
  if constexpr (Io::kDecode) {
    if (!SchedModeByName(mode, &config.mode)) io.MarkBad();
  }
  io.FiniteF64(config.dirty_rel_change);
  io.I64(config.shard_jobs);
  io.I64(config.refresh_rounds);
  io.Bool(config.queue_admission);
}

// A tenant must schedule a real cluster, annotations (when present) must be
// per-node, and capacities must be non-negative.
bool ValidShape(const ClusterSpec& cluster) {
  const size_t nodes = cluster.gpus_per_node.size();
  const auto per_node = [nodes](size_t size) { return size == 0 || size == nodes; };
  return nodes > 0 && nodes <= kMaxCount && per_node(cluster.rack_of_node.size()) &&
         per_node(cluster.gpu_type_of_node.size()) && per_node(cluster.node_gpu_scale.size()) &&
         std::ranges::none_of(cluster.gpus_per_node, [](int gpus) { return gpus < 0; });
}

// GA budget sanity: a hostile CreateTenant must not be able to request a
// round that effectively never terminates or divides by zero.
bool ValidBudget(const GaOptions& ga) {
  return ga.population_size >= 1 && ga.population_size <= 100000 && ga.generations >= 0 &&
         ga.generations <= 100000 && ga.tournament_size >= 1;
}

}  // namespace

// The two lists reached through BinWriter::Put and BinReader::Get live outside
// the anonymous namespace, where argument-dependent lookup finds them.

// Shared by the kMsgDecisions payload and the cached round in tenant
// snapshots, whose flags word only ever carries kDecisionDegraded.
template <class Io>
void Fields(Io& io, RoundDecisions& decisions) {
  io.U64(decisions.round);
  uint32_t flags = (decisions.degraded ? kDecisionDegraded : 0u) |
                   (decisions.cached ? kDecisionCached : 0u);
  io.U32(flags);
  if constexpr (Io::kDecode) {
    decisions.degraded = (flags & kDecisionDegraded) != 0;
    decisions.cached = (flags & kDecisionCached) != 0;
  }
  io.F64(decisions.utility);
  io.Map(decisions.rows, kMaxCount, [](auto& map_io, uint64_t& job_id, std::vector<int>& row) {
    map_io.U64(job_id);
    map_io.IntVec(row);
  });
}

// The setup minus the tenant id, which callers frame themselves.
template <class Io>
void Fields(Io& io, TenantSetup& setup) {
  Fields(io, setup.cluster);
  Fields(io, setup.sched);
}

std::string EncodeDecisionsPayload(const RoundDecisions& decisions) {
  BinWriter out;
  out.Put(decisions);
  return out.str();
}

bool DecodeDecisionsPayload(const std::string& payload, RoundDecisions* decisions) {
  BinReader in(payload);
  *decisions = in.Get<RoundDecisions>();
  return in.ok() && in.AtEnd();
}

void PutTenantSetup(BinWriter& out, const TenantSetup& setup) { out.Put(setup); }

bool GetTenantSetup(BinReader& in, TenantSetup* setup) {
  Fields(in, *setup);
  // Shard workers already parallelize across tenants; each tenant's GA stays
  // serial so decisions never depend on the daemon's thread count.
  setup->sched.ga.threads = 1;
  if (!in.ok()) return false;
  if (!ValidShape(setup->cluster) || !ValidBudget(setup->sched.ga)) {
    in.MarkBad();
    return false;
  }
  return true;
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

template <class Io>
void TenantDomain::StateFields(Io& io, PolluxSched::State& sched_state) {
  io.U64(next_round_);
  io.Bool(has_last_);
  if (has_last_) Fields(io, last_);
  io.Map(jobs_, kMaxCount, [](auto& map_io, uint64_t& job_id, SchedJobReport& report) {
    map_io.U64(job_id);
    Fields(map_io, report);
  });
  SchedCoreFields(io, sched_state);
  SchedIncrementalFields(io, sched_state);
  for (uint64_t* counter : {&submits_, &cancels_, &reports_, &rejected_reports_, &rounds_}) {
    io.U64(*counter);
  }
}

std::string TenantDomain::EncodeSnapshot() const {
  BinWriter out;
  out.PutU32(kTenantSnapshotVersion);
  out.PutU64(setup_.tenant_id);
  PutTenantSetup(out, setup_);
  PolluxSched::State sched_state = sched_.GetState();
  // A writer only reads through the field list's references.
  const_cast<TenantDomain*>(this)->StateFields(out, sched_state);
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
  PolluxSched::State sched_state;
  domain->StateFields(in, sched_state);
  if (!in.ok() || !in.AtEnd()) {
    if (error) *error = "malformed tenant snapshot";
    return nullptr;
  }
  domain->last_.cached = false;
  domain->sched_.SetState(sched_state);
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
