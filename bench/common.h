// Shared plumbing for the per-table/per-figure benchmark binaries: a single
// configuration struct covering every experiment knob, flag registration,
// trace construction, and one-call policy execution.

#ifndef POLLUX_BENCH_COMMON_H_
#define POLLUX_BENCH_COMMON_H_

#include <string>
#include <utility>
#include <vector>

#include "core/sched.h"
#include "sim/simulator.h"
#include "util/flags.h"
#include "workload/trace_gen.h"

namespace pollux {

// Process exit codes shared by pollux_simulate and the bench binaries, so
// CI scripts can tell outcomes apart: 0 success (including --help), 1 runtime
// failure (timed-out run, unreadable input, failed resume), 2 usage error
// (unknown or malformed flag), 3 run halted after a checkpoint
// (--halt-after; resume with --resume-from).
inline constexpr int kExitOk = 0;
inline constexpr int kExitRuntime = 1;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitHalted = 3;

struct BenchSimConfig {
  int nodes = 16;
  int gpus_per_node = 4;
  int jobs = 160;
  double duration_hours = 8.0;
  double load = 1.0;
  double user_configured_fraction = 0.0;
  double interference_slowdown = 0.0;
  bool interference_avoidance = true;
  double weight_lambda = 0.5;
  // Genetic-algorithm budget. The paper uses 100 x 100 every 60 s of real
  // time; the bench default is reduced so the full suite completes in
  // minutes. Raise via --ga_pop/--ga_gens to match the paper exactly.
  int ga_population = 40;
  int ga_generations = 25;
  // Scheduler worker threads (GaOptions::threads): 1 = serial, 0 = all
  // hardware threads. Allocations are identical for every value.
  int threads = 1;
  // Scheduling cadence and checkpoint-restart fitness penalty (Sec. 5.1
  // defaults; swept by bench_ablation).
  double sched_interval = 60.0;
  double restart_penalty = 0.25;
  // Agent report cadence in seconds. The paper (and the historical simulator
  // constant) uses 30 s; hyperscale runs raise it so report refresh is not
  // the bottleneck at 10^5 jobs.
  double report_interval = 30.0;
  // Scheduler quality/speed ladder (DESIGN.md §13): exact re-optimizes every
  // job each round (paper behavior), incremental re-optimizes only dirty
  // jobs, first-match is an O(jobs) greedy pass.
  SchedMode sched_mode = SchedMode::kExact;
  // Incremental mode: queued-job admission pre-filter (--queue-admission).
  // Queued jobs join GA shards only up to the round's free GPU capacity;
  // backlogged jobs defer instead of inflating dirty-shard counts.
  bool queue_admission = false;
  // Simulator fidelity knobs (swept by bench_fidelity).
  double tick = 1.0;
  double observation_noise = 0.05;
  double gns_noise = 0.10;
  uint64_t seed = 1;
  // Fault injection (all off by default; see sim/fault_injector.h). The
  // --fault-profile flag ("none" | "light" | "heavy") sets the whole block,
  // then individual flags override.
  FaultOptions faults;
  // Control-plane network model (all off by default; see sim/netmodel.h).
  // The --net-profile flag ("none" | "lan" | "flaky" | "partitioned") sets
  // the whole block, then individual --net-* flags override. The lease knobs
  // inside also configure PolluxSched's liveness handling (DESIGN.md §12).
  NetOptions net;
  // Cross-check simulator invariants at every event instant (capacity, job
  // conservation, event-log monotonicity); aborts on violation.
  bool check_invariants = false;
  // Wall-clock budget per scheduling round, seconds (0 = unlimited).
  double round_time_budget = 0.0;
  // Crash-consistent checkpointing (sim/checkpoint.h). Snapshots are written
  // every checkpoint_every sim-seconds into checkpoint_dir; both must be set
  // for checkpointing to engage. halt_after_checkpoint > 0 stops the run
  // after the first snapshot at or past that sim time (used by the CI
  // crash-resume smoke test to emulate a crash). These knobs are run-local
  // and deliberately excluded from EncodeBenchSimConfig so a resumed run
  // does not inherit the original's halt point.
  double checkpoint_every = 0.0;
  std::string checkpoint_dir;
  double halt_after_checkpoint = 0.0;
  // Topology model (DESIGN.md §14). racks == 0 and an empty gpu_mix keep the
  // flat homogeneous cluster — byte-identical to pre-topology binaries.
  // racks > 0 (--topology=RxN) arranges the nodes into racks with
  // rack_link_factor scaling the node-tier sync cost for cross-rack gangs;
  // gpu_mix ("a100:0.25,t4:0.75") assigns GPU generations to contiguous node
  // blocks. topology_blind strips the annotations from everything the
  // *scheduler* sees (ground truth stays topology-aware) — the A/B baseline
  // arm of bench_topology. sync_heavy_fraction >= 0 switches the trace to
  // GenerateTopologyTrace with that fraction of sync-heavy multi-node gangs.
  int racks = 0;
  double rack_link_factor = 2.5;
  std::string gpu_mix;
  bool topology_blind = false;
  double sync_heavy_fraction = -1.0;

  bool TopologyActive() const { return racks > 0 || !gpu_mix.empty(); }
};

// Registers the common --nodes/--jobs/--seed/... flags.
void AddCommonFlags(FlagParser& flags);

// Registers just --metrics-out/--trace-out (AddCommonFlags includes them;
// benches with bespoke flag sets call this directly).
void AddObsFlags(FlagParser& flags);

// Peels --metrics-out=/--trace-out= out of argv for binaries whose flag
// parser rejects unknown flags (e.g. google-benchmark): matching arguments
// are removed in place, *argc is updated, and the extracted paths are
// returned for an ObsSession.
struct ObsFlagValues {
  std::string metrics_out;
  std::string trace_out;
};
ObsFlagValues ExtractObsFlagsFromArgv(int* argc, char** argv);

// RAII observability session: enables the global metrics registry and/or
// trace recorder when the respective output path is non-empty, and writes
// the JSON files at scope exit. With both paths empty this is a no-op and
// the binary's behavior is byte-identical to an uninstrumented build.
class ObsSession {
 public:
  ObsSession(std::string metrics_out, std::string trace_out);
  // Reads the paths from --metrics-out/--trace-out.
  explicit ObsSession(const FlagParser& flags);
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

 private:
  std::string metrics_out_;
  std::string trace_out_;
};

// Builds the config from parsed flags. Exits with kExitUsage on any value
// outside its knob's bounds (non-finite numbers, out-of-range integers,
// unknown enum or preset names) and on malformed --topology/--gpu-mix.
BenchSimConfig ConfigFromFlags(const FlagParser& flags);

// The cluster the config describes: flat homogeneous when no topology knob is
// set, otherwise the annotated rack/GPU-type cluster.
ClusterSpec ClusterFromBenchConfig(const BenchSimConfig& config);

// Synthesizes the workload trace for the config.
std::vector<JobSpec> MakeBenchTrace(const BenchSimConfig& config);

// Maps the bench config onto the simulator / PolluxSched option structs.
// Exposed so benches that need the policy object itself (e.g. to read lease
// counters after a run) build it exactly like RunBenchPolicy would.
SimOptions SimOptionsFromBenchConfig(const BenchSimConfig& config);
SchedConfig SchedConfigFromBenchConfig(const BenchSimConfig& config);

// Runs one full cluster simulation under the named policy
// ("pollux" | "pollux-fixed-batch" | "optimus" | "tiresias") and returns its
// result.
SimResult RunBenchPolicy(const std::string& policy, const BenchSimConfig& config);

// Same, but over an externally supplied trace (e.g. imported from CSV)
// instead of a synthesized one.
SimResult RunImportedTrace(const std::string& policy, const BenchSimConfig& config,
                           const std::vector<JobSpec>& trace);

// Serializes the run-defining subset of the config (everything except the
// checkpoint knobs) as key=value lines. Stored in each snapshot's "extra"
// section so --resume-from can rebuild the exact run configuration. Decode
// enforces the same bounds as the flags and returns false on an unknown key
// or an out-of-bounds value.
std::string EncodeBenchSimConfig(const BenchSimConfig& config);
bool DecodeBenchSimConfig(const std::string& text, BenchSimConfig* config);

// Bounds a numeric knob's value must lie in (it must also be finite).
struct KnobRange {
  double lo;
  double hi;
  bool lo_open = false;
  bool hi_open = false;

  bool Contains(double value) const {
    return (lo_open ? value > lo : value >= lo) && (hi_open ? value < hi : value <= hi);
  }
};

// The codec keys of the config table in encoding order, each with the range
// DecodeBenchSimConfig enforces (unbounded for enum and string keys). Lets
// tests cover every row.
std::vector<std::pair<std::string, KnobRange>> BenchConfigKeyRanges();

// Resumes a run from a snapshot file (or the newest valid snapshot in a
// directory): rebuilds the policy and trace from the snapshot's embedded
// config, restores the simulator state, and runs to completion. Only the
// run-local checkpoint knobs come from `run_local` (a resumed run may
// checkpoint into a different directory, or not at all). On success fills
// *result and *policy (the policy name the run was started with) and returns
// true; on failure fills *error and returns false.
bool ResumeBenchFromSnapshot(const std::string& path_or_dir, const BenchSimConfig& run_local,
                             SimResult* result, std::string* policy, std::string* error);

// Convenience wrapper that averages a metric over `seeds` trace seeds.
struct PolicyAverages {
  double avg_jct_hours = 0.0;
  double p99_jct_hours = 0.0;
  double p50_jct_hours = 0.0;
  double makespan_hours = 0.0;
  double avg_efficiency = 0.0;
  double avg_throughput = 0.0;
  double avg_goodput = 0.0;
};

PolicyAverages RunBenchPolicySeeds(const std::string& policy, BenchSimConfig config, int seeds);

}  // namespace pollux

#endif  // POLLUX_BENCH_COMMON_H_
