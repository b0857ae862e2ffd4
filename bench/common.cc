#include "bench/common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "baselines/fifo.h"
#include "baselines/fixed_batch_policy.h"
#include "baselines/optimus.h"
#include "baselines/tiresias.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/checkpoint.h"
#include "sim/pollux_policy.h"
#include "workload/trace_io.h"

namespace pollux {

void AddCommonFlags(FlagParser& flags) {
  flags.DefineInt("nodes", 16, "number of cluster nodes");
  flags.DefineInt("gpus_per_node", 4, "GPUs per node");
  flags.DefineString("topology", "",
                     "rack topology \"RxN\" (R racks of N nodes, overrides --nodes); "
                     "empty keeps the flat single-tier cluster model");
  flags.DefineString("gpu-mix", "",
                     "GPU generation mix \"type:frac,...\" over nodes (types: t4, p100, "
                     "v100, a100; fractions sum to 1), e.g. \"a100:0.25,t4:0.75\"; "
                     "empty keeps an all-t4 (baseline) cluster");
  flags.DefineDouble("rack-link-factor", 2.5,
                     "multiplier (>= 1) on the node-tier sync cost for gangs that "
                     "span racks (used with --topology)");
  flags.DefineBool("topology-blind", false,
                   "hide the topology annotations from the scheduler (ground-truth "
                   "job speeds stay topology-aware); the bench_topology A/B baseline");
  flags.DefineDouble("sync-heavy", -1.0,
                     "fraction of trace jobs redrawn as sync-heavy multi-node gangs "
                     "(negative keeps the standard Philly-style trace)");
  flags.DefineInt("jobs", 160, "job submissions in the trace window");
  flags.DefineDouble("duration_hours", 8.0, "trace window length in hours");
  flags.DefineDouble("load", 1.0, "relative load factor (scales job count)");
  flags.DefineDouble("user_frac", 0.0, "fraction of user-configured (non-tuned) jobs");
  flags.DefineDouble("interference", 0.0, "network interference slowdown in [0,1)");
  flags.DefineBool("avoidance", true, "PolluxSched interference avoidance constraint");
  flags.DefineDouble("weight_lambda", 0.5, "job weight decay lambda (Eqn. 16)");
  flags.DefineInt("ga_pop", 40, "genetic algorithm population size");
  flags.DefineInt("ga_gens", 25, "genetic algorithm generations per round");
  flags.DefineInt("threads", 1, "scheduler worker threads (0 = all hardware threads)");
  flags.DefineDouble("sched_interval", 60.0, "scheduling interval in seconds");
  flags.DefineDouble("report_interval", 30.0, "agent report interval in seconds");
  flags.DefineString("sched-mode", "exact",
                     "scheduler quality/speed ladder: exact (paper behavior) | "
                     "incremental (re-optimize only dirty jobs) | "
                     "first-match (O(jobs) greedy placement)");
  flags.DefineBool("queue-admission", false,
                   "incremental mode: admit queued jobs to GA shards only up to "
                   "the round's free GPU capacity (backlogged jobs defer instead "
                   "of inflating dirty-shard counts)");
  flags.DefineDouble("restart_penalty", 0.25, "RESTART_PENALTY in the fitness function");
  flags.DefineDouble("tick", 1.0, "simulation clock step in seconds");
  flags.DefineDouble("obs_noise", 0.05, "lognormal sigma of profiled iteration times");
  flags.DefineDouble("gns_noise", 0.10, "lognormal sigma of gradient moment samples");
  flags.DefineInt("seed", 1, "base random seed");
  flags.DefineString("fault-profile", "none",
                     "fault injection preset: none | light | heavy "
                     "(individual fault flags override the preset)");
  flags.DefineDouble("mtbf-node", -1.0,
                     "mean time between node failures in seconds (0 disables crashes; "
                     "negative keeps the profile value)");
  flags.DefineDouble("repair-time", -1.0,
                     "mean node repair time in seconds (negative keeps the profile value)");
  flags.DefineDouble("straggler-frac", -1.0,
                     "fraction of nodes that are persistent stragglers "
                     "(negative keeps the profile value)");
  flags.DefineDouble("straggler-slowdown", -1.0,
                     "iteration-time multiplier on straggler nodes "
                     "(negative keeps the profile value)");
  flags.DefineDouble("report-drop-rate", -1.0,
                     "probability each 30s agent report is lost "
                     "(negative keeps the profile value)");
  flags.DefineDouble("restart-fail-rate", -1.0,
                     "probability a checkpoint-restart attempt fails "
                     "(negative keeps the profile value)");
  flags.DefineDouble("mtbf-sched", -1.0,
                     "mean time between scheduler-process crashes in seconds "
                     "(0 disables; negative keeps the profile value)");
  flags.DefineString("sched-recovery", "warm",
                     "scheduler crash recovery: warm (lossless control-plane "
                     "snapshot reload) | cold (agents refit, queues rebuilt)");
  flags.DefineString("net-profile", "none",
                     "control-plane network model preset: none | lan | flaky | "
                     "partitioned (individual --net-* flags override the preset)");
  flags.DefineDouble("net-latency", -1.0,
                     "base one-way control message latency in seconds "
                     "(negative keeps the profile value)");
  flags.DefineDouble("net-jitter", -1.0,
                     "mean exponential jitter added to each delivery in seconds "
                     "(negative keeps the profile value)");
  flags.DefineDouble("net-loss", -1.0,
                     "probability one control message send attempt is lost "
                     "(negative keeps the profile value)");
  flags.DefineDouble("net-burst-rate", -1.0,
                     "probability a send trips the channel into a loss burst "
                     "(negative keeps the profile value)");
  flags.DefineDouble("net-burst-duration", -1.0,
                     "mean loss burst length in seconds "
                     "(negative keeps the profile value)");
  flags.DefineDouble("net-dup", -1.0,
                     "probability a delivered message is duplicated "
                     "(negative keeps the profile value)");
  flags.DefineDouble("net-reorder", -1.0,
                     "probability a delivery is delayed enough to reorder "
                     "(negative keeps the profile value)");
  flags.DefineDouble("net-reorder-extra", -1.0,
                     "max extra reorder delay in seconds "
                     "(negative keeps the profile value)");
  flags.DefineDouble("net-mtbf-partition", -1.0,
                     "mean time between single-node control partitions in seconds "
                     "(0 disables; negative keeps the profile value)");
  flags.DefineDouble("net-partition-duration", -1.0,
                     "mean single-node partition duration in seconds "
                     "(negative keeps the profile value)");
  flags.DefineDouble("net-mtbf-rack-partition", -1.0,
                     "mean time between rack-scoped control partitions in seconds "
                     "(0 disables; negative keeps the profile value)");
  flags.DefineDouble("net-rack-partition-duration", -1.0,
                     "mean rack partition duration in seconds "
                     "(negative keeps the profile value)");
  flags.DefineInt("net-rack-size", -1,
                  "nodes per rack for rack-scoped partitions "
                  "(negative keeps the profile value)");
  flags.DefineInt("net-lease-intervals", -1,
                  "report intervals without a heartbeat before a node's capacity "
                  "is masked (negative keeps the profile value)");
  flags.DefineDouble("net-lease-grace", -1.0,
                     "seconds a job with an expired report lease is frozen before "
                     "eviction (negative keeps the profile value)");
  flags.DefineDouble("net-degraded-coverage", -1.0,
                     "fresh-report coverage below which the scheduler freezes warm "
                     "allocations for the round (negative keeps the profile value)");
  flags.DefineBool("net-naive-masking", false,
                   "baseline liveness: instantly mask failed capacity and reclaim "
                   "stale jobs with no lease, grace, or degraded rounds");
  flags.DefineDouble("checkpoint-every", 0.0,
                     "write a crash-consistent state snapshot every N sim-seconds "
                     "(0 disables; requires --checkpoint-dir)");
  flags.DefineString("checkpoint-dir", "",
                     "directory for state snapshots (required with --checkpoint-every)");
  flags.DefineDouble("halt-after", 0.0,
                     "stop after the first snapshot at or past this sim time "
                     "(0 = run to completion; emulates a crash for resume testing)");
  flags.DefineBool("check-invariants", false,
                   "verify simulator invariants at every event instant (abort on violation)");
  flags.DefineDouble("sched-budget", 0.0,
                     "wall-clock budget per Pollux scheduling round in seconds "
                     "(0 = unlimited; overruns fall back to the projected allocation)");
  AddObsFlags(flags);
}

void AddObsFlags(FlagParser& flags) {
  flags.DefineString("metrics-out", "",
                     "write the metrics registry as JSON to this file on exit "
                     "(empty disables metrics collection entirely)");
  flags.DefineString("trace-out", "",
                     "write a Chrome/Perfetto trace-event JSON to this file on exit "
                     "(empty disables trace recording entirely)");
}

ObsFlagValues ExtractObsFlagsFromArgv(int* argc, char** argv) {
  ObsFlagValues values;
  int kept = 0;
  for (int i = 0; i < *argc; ++i) {
    char* arg = argv[i];
    if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
      values.metrics_out = arg + 14;
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      values.trace_out = arg + 12;
    } else {
      argv[kept++] = arg;
    }
  }
  *argc = kept;
  return values;
}

ObsSession::ObsSession(std::string metrics_out, std::string trace_out)
    : metrics_out_(std::move(metrics_out)), trace_out_(std::move(trace_out)) {
  if (!metrics_out_.empty()) {
    obs::MetricsRegistry::Global().SetEnabled(true);
  }
  if (!trace_out_.empty()) {
    obs::TraceRecorder::Global().SetEnabled(true);
  }
}

ObsSession::ObsSession(const FlagParser& flags)
    : ObsSession(flags.GetString("metrics-out"), flags.GetString("trace-out")) {}

ObsSession::~ObsSession() {
  if (!metrics_out_.empty()) {
    std::ofstream out(metrics_out_);
    if (out) {
      obs::MetricsRegistry::Global().WriteJson(out);
      std::fprintf(stderr, "wrote metrics to %s\n", metrics_out_.c_str());
    } else {
      std::fprintf(stderr, "cannot open metrics output file %s\n", metrics_out_.c_str());
    }
  }
  if (!trace_out_.empty()) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    std::ofstream out(trace_out_);
    if (out) {
      recorder.WriteJson(out);
      std::fprintf(stderr, "wrote trace (%zu events%s) to %s\n", recorder.Snapshot().size(),
                   recorder.dropped() > 0 ? ", buffer capped" : "", trace_out_.c_str());
    } else {
      std::fprintf(stderr, "cannot open trace output file %s\n", trace_out_.c_str());
    }
  }
}

BenchSimConfig ConfigFromFlags(const FlagParser& flags) {
  BenchSimConfig config;
  config.nodes = static_cast<int>(flags.GetInt("nodes"));
  config.gpus_per_node = static_cast<int>(flags.GetInt("gpus_per_node"));
  config.jobs = static_cast<int>(flags.GetInt("jobs"));
  config.duration_hours = flags.GetDouble("duration_hours");
  config.load = flags.GetDouble("load");
  config.user_configured_fraction = flags.GetDouble("user_frac");
  config.interference_slowdown = flags.GetDouble("interference");
  config.interference_avoidance = flags.GetBool("avoidance");
  config.weight_lambda = flags.GetDouble("weight_lambda");
  config.ga_population = static_cast<int>(flags.GetInt("ga_pop"));
  config.ga_generations = static_cast<int>(flags.GetInt("ga_gens"));
  config.threads = static_cast<int>(flags.GetInt("threads"));
  config.sched_interval = flags.GetDouble("sched_interval");
  config.report_interval = flags.GetDouble("report_interval");
  if (!SchedModeByName(flags.GetString("sched-mode"), &config.sched_mode)) {
    std::fprintf(stderr, "unknown --sched-mode \"%s\", using \"%s\"\n",
                 flags.GetString("sched-mode").c_str(), SchedModeName(config.sched_mode));
  }
  config.queue_admission = flags.GetBool("queue-admission");
  config.restart_penalty = flags.GetDouble("restart_penalty");
  config.tick = flags.GetDouble("tick");
  config.observation_noise = flags.GetDouble("obs_noise");
  config.gns_noise = flags.GetDouble("gns_noise");
  config.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  if (!FaultProfileByName(flags.GetString("fault-profile"), &config.faults)) {
    std::fprintf(stderr, "unknown --fault-profile \"%s\", using \"none\"\n",
                 flags.GetString("fault-profile").c_str());
  }
  if (flags.GetDouble("mtbf-node") >= 0.0) {
    config.faults.mtbf_node = flags.GetDouble("mtbf-node");
  }
  if (flags.GetDouble("repair-time") >= 0.0) {
    config.faults.repair_time = flags.GetDouble("repair-time");
  }
  if (flags.GetDouble("straggler-frac") >= 0.0) {
    config.faults.straggler_frac = flags.GetDouble("straggler-frac");
  }
  if (flags.GetDouble("straggler-slowdown") >= 0.0) {
    config.faults.straggler_slowdown = flags.GetDouble("straggler-slowdown");
  }
  if (flags.GetDouble("report-drop-rate") >= 0.0) {
    config.faults.report_drop_rate = flags.GetDouble("report-drop-rate");
  }
  if (flags.GetDouble("restart-fail-rate") >= 0.0) {
    config.faults.restart_fail_rate = flags.GetDouble("restart-fail-rate");
  }
  if (flags.GetDouble("mtbf-sched") >= 0.0) {
    config.faults.mtbf_sched = flags.GetDouble("mtbf-sched");
  }
  if (!SchedRecoveryByName(flags.GetString("sched-recovery"), &config.faults.sched_recovery)) {
    std::fprintf(stderr, "unknown --sched-recovery \"%s\", using \"%s\"\n",
                 flags.GetString("sched-recovery").c_str(),
                 SchedRecoveryName(config.faults.sched_recovery));
  }
  if (!NetProfileByName(flags.GetString("net-profile"), &config.net)) {
    std::fprintf(stderr, "unknown --net-profile \"%s\", using \"none\"\n",
                 flags.GetString("net-profile").c_str());
  }
  if (flags.GetDouble("net-latency") >= 0.0) {
    config.net.latency = flags.GetDouble("net-latency");
  }
  if (flags.GetDouble("net-jitter") >= 0.0) {
    config.net.jitter = flags.GetDouble("net-jitter");
  }
  if (flags.GetDouble("net-loss") >= 0.0) {
    config.net.loss_rate = flags.GetDouble("net-loss");
  }
  if (flags.GetDouble("net-burst-rate") >= 0.0) {
    config.net.burst_rate = flags.GetDouble("net-burst-rate");
  }
  if (flags.GetDouble("net-burst-duration") >= 0.0) {
    config.net.burst_duration = flags.GetDouble("net-burst-duration");
  }
  if (flags.GetDouble("net-dup") >= 0.0) {
    config.net.dup_rate = flags.GetDouble("net-dup");
  }
  if (flags.GetDouble("net-reorder") >= 0.0) {
    config.net.reorder_rate = flags.GetDouble("net-reorder");
  }
  if (flags.GetDouble("net-reorder-extra") >= 0.0) {
    config.net.reorder_extra = flags.GetDouble("net-reorder-extra");
  }
  if (flags.GetDouble("net-mtbf-partition") >= 0.0) {
    config.net.mtbf_partition = flags.GetDouble("net-mtbf-partition");
  }
  if (flags.GetDouble("net-partition-duration") >= 0.0) {
    config.net.partition_duration = flags.GetDouble("net-partition-duration");
  }
  if (flags.GetDouble("net-mtbf-rack-partition") >= 0.0) {
    config.net.mtbf_rack_partition = flags.GetDouble("net-mtbf-rack-partition");
  }
  if (flags.GetDouble("net-rack-partition-duration") >= 0.0) {
    config.net.rack_partition_duration = flags.GetDouble("net-rack-partition-duration");
  }
  if (flags.GetInt("net-rack-size") >= 0) {
    config.net.rack_size = static_cast<int>(flags.GetInt("net-rack-size"));
  }
  if (flags.GetInt("net-lease-intervals") >= 0) {
    config.net.lease_intervals = static_cast<int>(flags.GetInt("net-lease-intervals"));
  }
  if (flags.GetDouble("net-lease-grace") >= 0.0) {
    config.net.lease_grace = flags.GetDouble("net-lease-grace");
  }
  if (flags.GetDouble("net-degraded-coverage") >= 0.0) {
    config.net.degraded_coverage = flags.GetDouble("net-degraded-coverage");
  }
  if (flags.GetBool("net-naive-masking")) {
    config.net.naive_masking = true;
  }
  config.check_invariants = flags.GetBool("check-invariants");
  config.round_time_budget = flags.GetDouble("sched-budget");
  config.checkpoint_every = flags.GetDouble("checkpoint-every");
  config.checkpoint_dir = flags.GetString("checkpoint-dir");
  config.halt_after_checkpoint = flags.GetDouble("halt-after");

  // Cluster-shape validation: malformed shapes are usage errors (exit 2),
  // not runs that limp along with a degenerate cluster.
  if (config.gpus_per_node <= 0) {
    std::fprintf(stderr, "--gpus_per_node must be positive, got %d\n", config.gpus_per_node);
    std::exit(kExitUsage);
  }
  const std::string topology = flags.GetString("topology");
  const std::string gpu_mix = flags.GetString("gpu-mix");
  std::string topo_error;
  TopologySpec topo_spec;
  if (!topology.empty()) {
    if (!ParseTopology(topology, config.gpus_per_node, &topo_spec, &topo_error)) {
      std::fprintf(stderr, "%s\n", topo_error.c_str());
      std::exit(kExitUsage);
    }
    config.racks = topo_spec.num_racks;
    config.nodes = topo_spec.NumNodes();  // --topology overrides --nodes.
  }
  if (config.nodes <= 0) {
    std::fprintf(stderr, "--nodes must be positive, got %d\n", config.nodes);
    std::exit(kExitUsage);
  }
  config.rack_link_factor = flags.GetDouble("rack-link-factor");
  if (config.rack_link_factor < 1.0) {
    std::fprintf(stderr, "--rack-link-factor must be >= 1, got %g\n", config.rack_link_factor);
    std::exit(kExitUsage);
  }
  if (!gpu_mix.empty()) {
    // Validate the mix against the final node count (a mix without --topology
    // describes a heterogeneous single-rack cluster).
    TopologySpec mix_spec = topo_spec;
    if (topology.empty()) {
      mix_spec = TopologySpec::FlatHomogeneous(config.nodes, config.gpus_per_node);
    }
    if (!ParseGpuMix(gpu_mix, &mix_spec, &topo_error)) {
      std::fprintf(stderr, "%s\n", topo_error.c_str());
      std::exit(kExitUsage);
    }
    config.gpu_mix = gpu_mix;
  }
  config.topology_blind = flags.GetBool("topology-blind");
  config.sync_heavy_fraction = flags.GetDouble("sync-heavy");
  if (config.sync_heavy_fraction > 1.0) {
    std::fprintf(stderr, "--sync-heavy must be <= 1, got %g\n", config.sync_heavy_fraction);
    std::exit(kExitUsage);
  }
  return config;
}

ClusterSpec ClusterFromBenchConfig(const BenchSimConfig& config) {
  if (!config.TopologyActive()) {
    return ClusterSpec::Homogeneous(config.nodes, config.gpus_per_node);
  }
  TopologySpec spec;
  spec.num_racks = std::max(config.racks, 1);
  spec.nodes_per_rack = std::max(config.nodes / spec.num_racks, 1);
  spec.gpus_per_node = config.gpus_per_node;
  spec.rack_link_factor = config.rack_link_factor;
  if (!config.gpu_mix.empty()) {
    std::string error;
    if (!ParseGpuMix(config.gpu_mix, &spec, &error)) {
      // Pre-validated by ConfigFromFlags; a decoded snapshot config can still
      // carry garbage, which must not silently become an all-t4 cluster.
      std::fprintf(stderr, "%s\n", error.c_str());
      std::exit(kExitUsage);
    }
  }
  return spec.ToCluster();
}

std::vector<JobSpec> MakeBenchTrace(const BenchSimConfig& config) {
  TraceOptions options;
  options.num_jobs = config.jobs;
  options.duration = config.duration_hours * 3600.0;
  options.load_factor = config.load;
  options.user_configured_fraction = config.user_configured_fraction;
  options.gpus_per_node = config.gpus_per_node;
  options.max_gpus = config.nodes * config.gpus_per_node;
  options.seed = config.seed;
  if (config.sync_heavy_fraction >= 0.0) {
    TopologyTraceOptions topo_options;
    topo_options.base = options;
    topo_options.sync_heavy_fraction = config.sync_heavy_fraction;
    return GenerateTopologyTrace(topo_options);
  }
  return GenerateTrace(options);
}

SimResult RunBenchPolicy(const std::string& policy, const BenchSimConfig& config) {
  return RunImportedTrace(policy, config, MakeBenchTrace(config));
}

SimOptions SimOptionsFromBenchConfig(const BenchSimConfig& config) {
  SimOptions options;
  options.cluster = ClusterFromBenchConfig(config);
  options.gpus_per_node = config.gpus_per_node;
  options.scheduler_topology_blind = config.topology_blind;
  options.interference_slowdown = config.interference_slowdown;
  options.sched_interval = config.sched_interval;
  options.report_interval = config.report_interval;
  // Multi-week hyperscale traces outlive the 14-day default horizon; keep
  // the default for short traces so historical runs stay byte-identical.
  options.max_time = std::max(options.max_time, config.duration_hours * 3600.0 * 2.0);
  options.tick = config.tick;
  options.observation_noise = config.observation_noise;
  options.gns_noise = config.gns_noise;
  options.seed = config.seed;
  options.sched_threads = config.threads;
  options.faults = config.faults;
  options.net = config.net;
  options.check_invariants = config.check_invariants;
  options.checkpoint_every = config.checkpoint_every;
  options.checkpoint_dir = config.checkpoint_dir;
  options.halt_after_checkpoint = config.halt_after_checkpoint;
  return options;
}

SchedConfig SchedConfigFromBenchConfig(const BenchSimConfig& config) {
  SchedConfig sched_config;
  sched_config.ga.population_size = config.ga_population;
  sched_config.ga.generations = config.ga_generations;
  sched_config.ga.interference_avoidance = config.interference_avoidance;
  sched_config.ga.restart_penalty = config.restart_penalty;
  sched_config.ga.seed = config.seed;
  sched_config.ga.threads = config.threads;
  sched_config.mode = config.sched_mode;
  sched_config.queue_admission = config.queue_admission;
  sched_config.report_interval = config.report_interval;
  sched_config.weight_lambda = config.weight_lambda;
  sched_config.round_time_budget = config.round_time_budget;
  if (config.net.enabled()) {
    if (config.net.naive_masking) {
      sched_config.naive_masking = true;
    } else {
      sched_config.lease_intervals = config.net.lease_intervals;
      sched_config.lease_grace = config.net.lease_grace;
      sched_config.degraded_coverage = config.net.degraded_coverage;
    }
  }
  return sched_config;
}

namespace {

// Constructs the named policy on the stack (unknown names fall back to
// Tiresias, matching the historical RunImportedTrace behavior) and invokes
// `run` with it. Shared between the fresh-run and the snapshot-resume paths
// so both build byte-identical policy objects.
template <typename Fn>
SimResult WithBenchPolicy(const std::string& policy, const BenchSimConfig& config, Fn&& run) {
  // Under --topology-blind the policy is *constructed* against the stripped
  // cluster too, so no topology information leaks in through the ctor.
  ClusterSpec cluster = ClusterFromBenchConfig(config);
  if (config.topology_blind) {
    cluster = cluster.WithoutTopology();
  }
  if (policy == "pollux") {
    PolluxPolicy pollux(cluster, SchedConfigFromBenchConfig(config));
    return run(&pollux);
  }
  if (policy == "pollux-fixed-batch") {
    FixedBatchPolluxPolicy fixed(cluster, SchedConfigFromBenchConfig(config));
    return run(&fixed);
  }
  if (policy == "optimus") {
    OptimusPolicy optimus(OptimusConfig{config.gpus_per_node});
    return run(&optimus);
  }
  if (policy == "fifo") {
    FifoPolicy fifo;
    return run(&fifo);
  }
  TiresiasPolicy tiresias;
  return run(&tiresias);
}

// Embeds everything a resume needs to rebuild this run: the policy name, the
// serialized config, and the exact trace (WriteTraceCsv round-trips doubles
// bit-exactly at precision 17).
SnapshotExtra MakeSnapshotExtra(const std::string& policy, const BenchSimConfig& config,
                                const std::vector<JobSpec>& trace) {
  SnapshotExtra extra;
  extra.policy = policy;
  extra.driver_config = EncodeBenchSimConfig(config);
  std::ostringstream trace_csv;
  WriteTraceCsv(trace_csv, trace);
  extra.trace_csv = trace_csv.str();
  return extra;
}

bool CheckpointingEnabled(const BenchSimConfig& config) {
  return config.checkpoint_every > 0.0 && !config.checkpoint_dir.empty();
}

}  // namespace

SimResult RunImportedTrace(const std::string& policy, const BenchSimConfig& config,
                           const std::vector<JobSpec>& trace) {
  const SimOptions options = SimOptionsFromBenchConfig(config);
  return WithBenchPolicy(policy, config, [&](Scheduler* scheduler) {
    Simulator sim(options, trace, scheduler);
    if (CheckpointingEnabled(config)) {
      std::error_code ec;
      std::filesystem::create_directories(config.checkpoint_dir, ec);
      sim.SetSnapshotExtra(MakeSnapshotExtra(policy, config, trace));
    }
    return sim.Run();
  });
}

namespace {

void PutConfigDouble(std::ostringstream& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out << key << '=' << buf << '\n';
}

bool ParseConfigDouble(const std::string& text, double* value) {
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0';
}

bool ParseConfigInt(const std::string& text, int* value) {
  char* end = nullptr;
  const long parsed = std::strtol(text.c_str(), &end, 10);
  *value = static_cast<int>(parsed);
  return end != text.c_str() && *end == '\0';
}

bool ParseConfigU64(const std::string& text, uint64_t* value) {
  char* end = nullptr;
  *value = std::strtoull(text.c_str(), &end, 10);
  return end != text.c_str() && *end == '\0';
}

bool ParseConfigBool(const std::string& text, bool* value) {
  if (text == "0" || text == "1") {
    *value = text == "1";
    return true;
  }
  return false;
}

}  // namespace

std::string EncodeBenchSimConfig(const BenchSimConfig& config) {
  std::ostringstream out;
  out << "nodes=" << config.nodes << '\n';
  out << "gpus_per_node=" << config.gpus_per_node << '\n';
  out << "jobs=" << config.jobs << '\n';
  PutConfigDouble(out, "duration_hours", config.duration_hours);
  PutConfigDouble(out, "load", config.load);
  PutConfigDouble(out, "user_frac", config.user_configured_fraction);
  PutConfigDouble(out, "interference", config.interference_slowdown);
  out << "avoidance=" << (config.interference_avoidance ? 1 : 0) << '\n';
  PutConfigDouble(out, "weight_lambda", config.weight_lambda);
  out << "ga_pop=" << config.ga_population << '\n';
  out << "ga_gens=" << config.ga_generations << '\n';
  out << "threads=" << config.threads << '\n';
  PutConfigDouble(out, "sched_interval", config.sched_interval);
  PutConfigDouble(out, "report_interval", config.report_interval);
  out << "sched_mode=" << SchedModeName(config.sched_mode) << '\n';
  out << "queue_admission=" << (config.queue_admission ? 1 : 0) << '\n';
  PutConfigDouble(out, "restart_penalty", config.restart_penalty);
  PutConfigDouble(out, "tick", config.tick);
  PutConfigDouble(out, "obs_noise", config.observation_noise);
  PutConfigDouble(out, "gns_noise", config.gns_noise);
  out << "seed=" << config.seed << '\n';
  PutConfigDouble(out, "mtbf_node", config.faults.mtbf_node);
  PutConfigDouble(out, "repair_time", config.faults.repair_time);
  PutConfigDouble(out, "straggler_frac", config.faults.straggler_frac);
  PutConfigDouble(out, "straggler_slowdown", config.faults.straggler_slowdown);
  PutConfigDouble(out, "report_drop_rate", config.faults.report_drop_rate);
  PutConfigDouble(out, "restart_fail_rate", config.faults.restart_fail_rate);
  PutConfigDouble(out, "restart_backoff_init", config.faults.restart_backoff_init);
  PutConfigDouble(out, "restart_backoff_cap", config.faults.restart_backoff_cap);
  PutConfigDouble(out, "mtbf_sched", config.faults.mtbf_sched);
  out << "sched_recovery=" << SchedRecoveryName(config.faults.sched_recovery) << '\n';
  PutConfigDouble(out, "net_latency", config.net.latency);
  PutConfigDouble(out, "net_jitter", config.net.jitter);
  PutConfigDouble(out, "net_loss", config.net.loss_rate);
  PutConfigDouble(out, "net_burst_rate", config.net.burst_rate);
  PutConfigDouble(out, "net_burst_duration", config.net.burst_duration);
  PutConfigDouble(out, "net_dup", config.net.dup_rate);
  PutConfigDouble(out, "net_reorder", config.net.reorder_rate);
  PutConfigDouble(out, "net_reorder_extra", config.net.reorder_extra);
  PutConfigDouble(out, "net_mtbf_partition", config.net.mtbf_partition);
  PutConfigDouble(out, "net_partition_duration", config.net.partition_duration);
  PutConfigDouble(out, "net_mtbf_rack_partition", config.net.mtbf_rack_partition);
  PutConfigDouble(out, "net_rack_partition_duration", config.net.rack_partition_duration);
  out << "net_rack_size=" << config.net.rack_size << '\n';
  PutConfigDouble(out, "net_retry_backoff_init", config.net.retry_backoff_init);
  PutConfigDouble(out, "net_retry_backoff_cap", config.net.retry_backoff_cap);
  out << "net_max_retries=" << config.net.max_retries << '\n';
  out << "net_lease_intervals=" << config.net.lease_intervals << '\n';
  PutConfigDouble(out, "net_lease_grace", config.net.lease_grace);
  PutConfigDouble(out, "net_degraded_coverage", config.net.degraded_coverage);
  out << "net_naive_masking=" << (config.net.naive_masking ? 1 : 0) << '\n';
  out << "check_invariants=" << (config.check_invariants ? 1 : 0) << '\n';
  PutConfigDouble(out, "sched_budget", config.round_time_budget);
  // Topology keys only when a topology knob is engaged: flat configs encode
  // byte-identically to pre-topology drivers (whose decoder rejects unknown
  // keys), so their snapshots stay mutually resumable.
  if (config.TopologyActive() || config.topology_blind || config.sync_heavy_fraction >= 0.0) {
    out << "racks=" << config.racks << '\n';
    PutConfigDouble(out, "rack_link_factor", config.rack_link_factor);
    out << "gpu_mix=" << config.gpu_mix << '\n';
    out << "topology_blind=" << (config.topology_blind ? 1 : 0) << '\n';
    PutConfigDouble(out, "sync_heavy_fraction", config.sync_heavy_fraction);
  }
  return out.str();
}

bool DecodeBenchSimConfig(const std::string& text, BenchSimConfig* config) {
  BenchSimConfig parsed;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return false;
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    bool ok = true;
    if (key == "nodes") {
      ok = ParseConfigInt(value, &parsed.nodes);
    } else if (key == "gpus_per_node") {
      ok = ParseConfigInt(value, &parsed.gpus_per_node);
    } else if (key == "jobs") {
      ok = ParseConfigInt(value, &parsed.jobs);
    } else if (key == "duration_hours") {
      ok = ParseConfigDouble(value, &parsed.duration_hours);
    } else if (key == "load") {
      ok = ParseConfigDouble(value, &parsed.load);
    } else if (key == "user_frac") {
      ok = ParseConfigDouble(value, &parsed.user_configured_fraction);
    } else if (key == "interference") {
      ok = ParseConfigDouble(value, &parsed.interference_slowdown);
    } else if (key == "avoidance") {
      ok = ParseConfigBool(value, &parsed.interference_avoidance);
    } else if (key == "weight_lambda") {
      ok = ParseConfigDouble(value, &parsed.weight_lambda);
    } else if (key == "ga_pop") {
      ok = ParseConfigInt(value, &parsed.ga_population);
    } else if (key == "ga_gens") {
      ok = ParseConfigInt(value, &parsed.ga_generations);
    } else if (key == "threads") {
      ok = ParseConfigInt(value, &parsed.threads);
    } else if (key == "sched_interval") {
      ok = ParseConfigDouble(value, &parsed.sched_interval);
    } else if (key == "report_interval") {
      ok = ParseConfigDouble(value, &parsed.report_interval);
    } else if (key == "sched_mode") {
      ok = SchedModeByName(value, &parsed.sched_mode);
    } else if (key == "queue_admission") {
      ok = ParseConfigBool(value, &parsed.queue_admission);
    } else if (key == "restart_penalty") {
      ok = ParseConfigDouble(value, &parsed.restart_penalty);
    } else if (key == "tick") {
      ok = ParseConfigDouble(value, &parsed.tick);
    } else if (key == "obs_noise") {
      ok = ParseConfigDouble(value, &parsed.observation_noise);
    } else if (key == "gns_noise") {
      ok = ParseConfigDouble(value, &parsed.gns_noise);
    } else if (key == "seed") {
      ok = ParseConfigU64(value, &parsed.seed);
    } else if (key == "mtbf_node") {
      ok = ParseConfigDouble(value, &parsed.faults.mtbf_node);
    } else if (key == "repair_time") {
      ok = ParseConfigDouble(value, &parsed.faults.repair_time);
    } else if (key == "straggler_frac") {
      ok = ParseConfigDouble(value, &parsed.faults.straggler_frac);
    } else if (key == "straggler_slowdown") {
      ok = ParseConfigDouble(value, &parsed.faults.straggler_slowdown);
    } else if (key == "report_drop_rate") {
      ok = ParseConfigDouble(value, &parsed.faults.report_drop_rate);
    } else if (key == "restart_fail_rate") {
      ok = ParseConfigDouble(value, &parsed.faults.restart_fail_rate);
    } else if (key == "restart_backoff_init") {
      ok = ParseConfigDouble(value, &parsed.faults.restart_backoff_init);
    } else if (key == "restart_backoff_cap") {
      ok = ParseConfigDouble(value, &parsed.faults.restart_backoff_cap);
    } else if (key == "mtbf_sched") {
      ok = ParseConfigDouble(value, &parsed.faults.mtbf_sched);
    } else if (key == "sched_recovery") {
      ok = SchedRecoveryByName(value, &parsed.faults.sched_recovery);
    } else if (key == "net_latency") {
      ok = ParseConfigDouble(value, &parsed.net.latency);
    } else if (key == "net_jitter") {
      ok = ParseConfigDouble(value, &parsed.net.jitter);
    } else if (key == "net_loss") {
      ok = ParseConfigDouble(value, &parsed.net.loss_rate);
    } else if (key == "net_burst_rate") {
      ok = ParseConfigDouble(value, &parsed.net.burst_rate);
    } else if (key == "net_burst_duration") {
      ok = ParseConfigDouble(value, &parsed.net.burst_duration);
    } else if (key == "net_dup") {
      ok = ParseConfigDouble(value, &parsed.net.dup_rate);
    } else if (key == "net_reorder") {
      ok = ParseConfigDouble(value, &parsed.net.reorder_rate);
    } else if (key == "net_reorder_extra") {
      ok = ParseConfigDouble(value, &parsed.net.reorder_extra);
    } else if (key == "net_mtbf_partition") {
      ok = ParseConfigDouble(value, &parsed.net.mtbf_partition);
    } else if (key == "net_partition_duration") {
      ok = ParseConfigDouble(value, &parsed.net.partition_duration);
    } else if (key == "net_mtbf_rack_partition") {
      ok = ParseConfigDouble(value, &parsed.net.mtbf_rack_partition);
    } else if (key == "net_rack_partition_duration") {
      ok = ParseConfigDouble(value, &parsed.net.rack_partition_duration);
    } else if (key == "net_rack_size") {
      ok = ParseConfigInt(value, &parsed.net.rack_size);
    } else if (key == "net_retry_backoff_init") {
      ok = ParseConfigDouble(value, &parsed.net.retry_backoff_init);
    } else if (key == "net_retry_backoff_cap") {
      ok = ParseConfigDouble(value, &parsed.net.retry_backoff_cap);
    } else if (key == "net_max_retries") {
      ok = ParseConfigInt(value, &parsed.net.max_retries);
    } else if (key == "net_lease_intervals") {
      ok = ParseConfigInt(value, &parsed.net.lease_intervals);
    } else if (key == "net_lease_grace") {
      ok = ParseConfigDouble(value, &parsed.net.lease_grace);
    } else if (key == "net_degraded_coverage") {
      ok = ParseConfigDouble(value, &parsed.net.degraded_coverage);
    } else if (key == "net_naive_masking") {
      ok = ParseConfigBool(value, &parsed.net.naive_masking);
    } else if (key == "check_invariants") {
      ok = ParseConfigBool(value, &parsed.check_invariants);
    } else if (key == "sched_budget") {
      ok = ParseConfigDouble(value, &parsed.round_time_budget);
    } else if (key == "racks") {
      ok = ParseConfigInt(value, &parsed.racks);
    } else if (key == "rack_link_factor") {
      ok = ParseConfigDouble(value, &parsed.rack_link_factor);
    } else if (key == "gpu_mix") {
      parsed.gpu_mix = value;
    } else if (key == "topology_blind") {
      ok = ParseConfigBool(value, &parsed.topology_blind);
    } else if (key == "sync_heavy_fraction") {
      ok = ParseConfigDouble(value, &parsed.sync_heavy_fraction);
    } else {
      ok = false;  // Unknown key: written by an incompatible (newer) driver.
    }
    if (!ok) {
      return false;
    }
  }
  *config = parsed;
  return true;
}

bool ResumeBenchFromSnapshot(const std::string& path_or_dir, const BenchResumeOptions& resume,
                             SimResult* result, std::string* policy, std::string* error) {
  const std::string path = ResolveSnapshotPath(path_or_dir, error);
  if (path.empty()) {
    return false;
  }
  SnapshotExtra extra;
  if (!ReadSnapshotExtra(path, &extra, error)) {
    return false;
  }
  BenchSimConfig config;
  if (!DecodeBenchSimConfig(extra.driver_config, &config)) {
    if (error != nullptr) {
      *error = "snapshot's embedded run configuration is unreadable "
               "(written by an incompatible driver version?)";
    }
    return false;
  }
  std::istringstream trace_in(extra.trace_csv);
  std::string trace_error;
  const std::optional<std::vector<JobSpec>> trace = ReadTraceCsv(trace_in, &trace_error);
  if (!trace.has_value()) {
    if (error != nullptr) {
      *error = "snapshot's embedded trace is unreadable: " + trace_error;
    }
    return false;
  }
  // Checkpoint knobs are run-local: the resumed run uses the caller's, not
  // whatever the interrupted run was configured with.
  config.checkpoint_every = resume.checkpoint_every;
  config.checkpoint_dir = resume.checkpoint_dir;
  config.halt_after_checkpoint = resume.halt_after_checkpoint;
  const SimOptions options = SimOptionsFromBenchConfig(config);
  bool loaded = true;
  const SimResult run =
      WithBenchPolicy(extra.policy, config, [&](Scheduler* scheduler) -> SimResult {
        Simulator sim(options, *trace, scheduler);
        if (CheckpointingEnabled(config)) {
          std::error_code ec;
          std::filesystem::create_directories(config.checkpoint_dir, ec);
          sim.SetSnapshotExtra(extra);  // Keep follow-on snapshots resumable too.
        }
        std::string load_error;
        if (!sim.LoadSnapshot(path, &load_error)) {
          loaded = false;
          if (error != nullptr) {
            *error = load_error;
          }
          return SimResult{};
        }
        return sim.Run();
      });
  if (!loaded) {
    return false;
  }
  *result = run;
  if (policy != nullptr) {
    *policy = extra.policy;
  }
  return true;
}

PolicyAverages RunBenchPolicySeeds(const std::string& policy, BenchSimConfig config, int seeds) {
  PolicyAverages averages;
  const uint64_t base_seed = config.seed;
  for (int s = 0; s < seeds; ++s) {
    config.seed = base_seed + static_cast<uint64_t>(s);
    const SimResult result = RunBenchPolicy(policy, config);
    const Summary jct = result.JctSummary();
    averages.avg_jct_hours += jct.mean / 3600.0;
    averages.p99_jct_hours += jct.p99 / 3600.0;
    averages.p50_jct_hours += jct.p50 / 3600.0;
    averages.makespan_hours += result.makespan / 3600.0;
    averages.avg_efficiency += result.AvgClusterEfficiency();
    averages.avg_throughput += result.AvgJobThroughput();
    averages.avg_goodput += result.AvgJobGoodput();
  }
  const double n = static_cast<double>(seeds > 0 ? seeds : 1);
  averages.avg_jct_hours /= n;
  averages.p99_jct_hours /= n;
  averages.p50_jct_hours /= n;
  averages.makespan_hours /= n;
  averages.avg_efficiency /= n;
  averages.avg_throughput /= n;
  averages.avg_goodput /= n;
  return averages;
}

}  // namespace pollux
