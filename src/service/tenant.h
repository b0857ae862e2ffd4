// One tenant's scheduling domain inside pollux_schedd (DESIGN.md §15).
//
// A TenantDomain owns an independent PolluxSched instance, the tenant's job
// table (latest telemetry per job), and the round sequence. It is single-
// threaded by construction: the daemon shards tenants across worker threads
// (tenant_id % shards) and each domain is only ever touched by its shard's
// worker, so no locking happens here.
//
// Crash tolerance contract:
//  * RunRound is idempotent at the protocol level: executing round R advances
//    next_round to R+1 and caches R's decisions; a replayed RunRound(R) —
//    e.g. a client retrying after the daemon's response was lost to a crash —
//    returns the cached decisions without re-running the scheduler.
//  * EncodeSnapshot/FromSnapshot round-trip the complete domain byte-
//    identically (asserted by service_tenant_test), so a kill -9 followed by
//    RestoreNewest() warm-restores the tenant and every subsequent round
//    takes decisions identical to an uninterrupted daemon's.
//  * Snapshots ride the sim/checkpoint container (magic + CRC + atomic
//    rename; any container version since 3 restores), one kTagService
//    section per file, newest-first fallback past torn or corrupt files. The
//    payload is encoded by field lists (sim/checkpoint.h).

#ifndef POLLUX_SERVICE_TENANT_H_
#define POLLUX_SERVICE_TENANT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/sched.h"
#include "sim/checkpoint.h"

namespace pollux {
namespace service {

// Bumped when the kTagService payload layout changes; future versions are
// rejected with a clear error instead of being misparsed.
inline constexpr uint32_t kTenantSnapshotVersion = 1;

// Everything needed to (re)construct a tenant's scheduler: the cluster it
// schedules and the PolluxSched configuration. Travels in the CreateTenant
// request and at the front of every tenant snapshot.
struct TenantSetup {
  uint64_t tenant_id = 0;
  ClusterSpec cluster;
  SchedConfig sched;
};

// Codec for the setup minus the tenant id (the id is framed by the caller),
// run through the setup's field list. GetTenantSetup also validates shape
// (non-empty cluster, per-node annotations) and the GA budget, and sets the
// reader's failure flag on malformed input.
void PutTenantSetup(BinWriter& out, const TenantSetup& setup);
bool GetTenantSetup(BinReader& in, TenantSetup* setup);

// The outcome of one scheduling round, as returned to clients. `rows` is the
// scheduler's sparse decision map: a job omitted keeps its allocation.
struct RoundDecisions {
  uint64_t round = 0;
  bool degraded = false;  // round fell back / ran degraded (frozen warm rows)
  bool cached = false;    // replay of an already-executed round
  double utility = 0.0;
  std::map<uint64_t, std::vector<int>> rows;
};

// kMsgDecisions payload codec (u64 round, u32 flags, f64 utility, rows),
// shared by the daemon (encode) and client (decode). The flags word carries
// kDecisionDegraded/kDecisionCached from wire.h.
std::string EncodeDecisionsPayload(const RoundDecisions& decisions);
bool DecodeDecisionsPayload(const std::string& payload, RoundDecisions* decisions);

class TenantDomain {
 public:
  explicit TenantDomain(TenantSetup setup);

  uint64_t tenant_id() const { return setup_.tenant_id; }
  const TenantSetup& setup() const { return setup_; }
  uint64_t next_round() const { return next_round_; }
  size_t num_jobs() const { return jobs_.size(); }

  // Registers (or re-registers) a job with its initial goodput report. A
  // fresh job holds no GPUs until a round places it.
  void SubmitJob(const AgentReport& agent, double gpu_time);

  // Removes the job and frees its allocation. False when unknown.
  bool CancelJob(uint64_t job_id);

  // Updates a known job's telemetry (goodput model, gpu_time, report age,
  // sequence number). The daemon stays authoritative for allocations — the
  // report's allocation field is ignored, so a confused or hostile client
  // cannot conjure GPUs. False (counted) when the job is unknown.
  bool Ingest(const SchedJobReport& report);

  enum class RoundStatus {
    kExecuted,  // round == next_round: scheduler ran, decisions applied
    kCached,    // round == last executed: cached decisions replayed
    kBadRound,  // anything else: client and daemon disagree on the sequence
  };
  RoundStatus RunRound(uint64_t round, RoundDecisions* out);

  // Cumulative accounting (survives snapshots).
  uint64_t submits() const { return submits_; }
  uint64_t cancels() const { return cancels_; }
  uint64_t reports_ingested() const { return reports_; }
  uint64_t reports_rejected() const { return rejected_reports_; }
  uint64_t rounds() const { return rounds_; }
  const PolluxSched& sched() const { return sched_; }

  // kTagService payload: the complete domain state.
  std::string EncodeSnapshot() const;
  static std::unique_ptr<TenantDomain> FromSnapshot(const std::string& payload,
                                                    std::string* error);

  // Writes one snapshot file into `dir` (created if missing) through the
  // atomic tmp+rename path, then prunes all but the newest `keep` snapshots.
  bool SaveCheckpoint(const std::string& dir, int keep, std::string* error) const;

  // Restores the newest fully-valid snapshot in `dir`, skipping torn/corrupt
  // files (sim/checkpoint's ResolveSnapshotPath semantics).
  static std::unique_ptr<TenantDomain> RestoreNewest(const std::string& dir,
                                                     std::string* error);

 private:
  // The snapshot after the setup: round state, job table, scheduler state
  // and the cumulative counters.
  template <class Io>
  void StateFields(Io& io, PolluxSched::State& sched_state);

  TenantSetup setup_;
  PolluxSched sched_;
  // job id -> latest telemetry; current_allocation is daemon-owned.
  std::map<uint64_t, SchedJobReport> jobs_;
  uint64_t next_round_ = 0;
  bool has_last_ = false;
  RoundDecisions last_;
  uint64_t submits_ = 0;
  uint64_t cancels_ = 0;
  uint64_t reports_ = 0;
  uint64_t rejected_reports_ = 0;
  uint64_t rounds_ = 0;
};

}  // namespace service
}  // namespace pollux

#endif  // POLLUX_SERVICE_TENANT_H_
