#include "sim/pollux_policy.h"

#include "sim/checkpoint.h"

namespace pollux {
namespace {

// The kTagScheduler blob of a pollux-policy simulator snapshot.
struct Blob {
  ClusterSpec cluster;
  PolluxSched::State state;
  std::vector<SchedJobReport> reports;  // The last round's reports.
};

template <class Io>
void Fields(Io& io, Blob& blob) {
  io.IntVec(blob.cluster.gpus_per_node);
  SchedCoreFields(io, blob.state);
  io.List(blob.reports, kUncapped,
          [](auto& list_io, SchedJobReport& report) { Fields(list_io, report); });
  SchedIncrementalFields(io, blob.state);
  // Topology annotations travel with the blob so the restored scheduler's
  // cluster compares equal to the live one. Otherwise the first Schedule()
  // after a resume would SetCluster (annotations missing) and wipe the
  // persisted GA population, diverging from the uninterrupted run.
  NodeAnnotationFields(io, blob.cluster);
  io.FiniteF64(blob.cluster.rack_link_factor);
}

}  // namespace

PolluxPolicy::PolluxPolicy(ClusterSpec cluster, SchedConfig config)
    : sched_(std::move(cluster), config) {}

std::map<uint64_t, std::vector<int>> PolluxPolicy::Schedule(const SchedulerContext& context) {
  // Track capacity changes the simulator applied between rounds (node
  // failures/repairs mask capacity in-place rather than calling
  // OnClusterChanged for every transition).
  if (!(sched_.cluster() == *context.cluster)) {
    sched_.SetCluster(*context.cluster);
  }
  last_reports_.clear();
  last_reports_.reserve(context.jobs.size());
  for (const auto& snapshot : context.jobs) {
    SchedJobReport report;
    report.agent = snapshot.agent;
    report.gpu_time = snapshot.gpu_time;
    report.current_allocation = snapshot.allocation;
    report.report_age = snapshot.report_age;
    report.seq = snapshot.report_seq;
    last_reports_.push_back(std::move(report));
  }
  return sched_.Schedule(last_reports_);
}

void PolluxPolicy::OnClusterChanged(const ClusterSpec& cluster) { sched_.SetCluster(cluster); }

void PolluxPolicy::SaveState(std::string* blob) const {
  BinWriter out;
  out.Put(Blob{sched_.cluster(), sched_.GetState(), last_reports_});
  *blob = std::move(out).str();
}

bool PolluxPolicy::LoadState(const std::string& blob) {
  BinReader in(blob);
  Blob restored = in.Get<Blob>();
  if (!in.ok() || !in.AtEnd()) {
    return false;
  }
  // The cluster must be restored before the GA state: SetCluster clears the
  // persisted population (matrix shapes change with the cluster).
  sched_.SetCluster(std::move(restored.cluster));
  sched_.SetState(restored.state);
  last_reports_ = std::move(restored.reports);
  return true;
}

void PolluxPolicy::ResetControlState() {
  sched_.ResetSearchState();
  last_reports_.clear();
}

}  // namespace pollux
