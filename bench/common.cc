#include "bench/common.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>
#include <utility>
#include <variant>

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

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr KnobRange kAny{-kInf, kInf};
constexpr KnobRange kNonNegative{0.0, kInf};
constexpr KnobRange kPositive{0.0, kInf, /*lo_open=*/true};
constexpr KnobRange kUnit{0.0, 1.0};  // Probabilities and bools.

// Row accessor: returns the config member a row reads and writes.
template <typename T>
using Member = T& (*)(BenchSimConfig&);

// std::monostate marks a flag consumed only by the cross-field code in
// ConfigFromFlags (--topology); the FaultOptions/NetOptions rows are presets
// that reset a whole block before its per-knob rows override it.
using Field = std::variant<std::monostate, Member<int>, Member<uint64_t>, Member<double>,
                           Member<bool>, Member<SchedMode>, Member<SchedRecovery>,
                           Member<std::string>, Member<FaultOptions>, Member<NetOptions>>;

#define POLLUX_KNOB(path) +[](BenchSimConfig& c) -> decltype((c.path)) { return c.path; }

enum class KnobRole {
  kPlain,
  // The flag defaults to -1 and a negative value keeps the preset's value.
  kOverride,
  // Encoded only when a topology knob is engaged, so flat configs encode
  // byte-identically to pre-topology drivers (whose decoder rejects unknown
  // keys) and their snapshots stay mutually resumable.
  kTopology,
};

// One row per BenchSimConfig knob. An empty flag is a codec-only knob; an
// empty key is a flag the resume codec does not carry (presets, --topology,
// and the run-local checkpoint knobs, so a resumed run does not inherit the
// original's halt point). The flag default is the member's value in a
// default-constructed BenchSimConfig; flag_default serves only the rows
// without a member value (presets and --topology).
struct Knob {
  const char* flag;
  const char* key;
  Field field;
  KnobRange range;
  const char* help;
  KnobRole role = KnobRole::kPlain;
  const char* flag_default = "";
};

// Row order is the encoding order (golden snapshots depend on it) and the
// flag application order (each preset row precedes the rows it resets).
const Knob kKnobs[] = {
    {"nodes", "nodes", POLLUX_KNOB(nodes), {1, 1e6}, "number of cluster nodes"},
    {"gpus_per_node", "gpus_per_node", POLLUX_KNOB(gpus_per_node), {1, 1024}, "GPUs per node"},
    {"jobs", "jobs", POLLUX_KNOB(jobs), {0, 1e7}, "job submissions in the trace window"},
    {"duration_hours", "duration_hours", POLLUX_KNOB(duration_hours), kPositive,
     "trace window length in hours"},
    {"load", "load", POLLUX_KNOB(load), kNonNegative, "relative load factor (scales job count)"},
    {"user_frac", "user_frac", POLLUX_KNOB(user_configured_fraction), kUnit,
     "fraction of user-configured (non-tuned) jobs"},
    {"interference", "interference", POLLUX_KNOB(interference_slowdown), {0, 1, false, true},
     "network interference slowdown in [0,1)"},
    {"avoidance", "avoidance", POLLUX_KNOB(interference_avoidance), kUnit,
     "PolluxSched interference avoidance constraint"},
    {"weight_lambda", "weight_lambda", POLLUX_KNOB(weight_lambda), kNonNegative,
     "job weight decay lambda (Eqn. 16)"},
    {"ga_pop", "ga_pop", POLLUX_KNOB(ga_population), {1, 100000},
     "genetic algorithm population size"},
    {"ga_gens", "ga_gens", POLLUX_KNOB(ga_generations), {0, 100000},
     "genetic algorithm generations per round"},
    {"threads", "threads", POLLUX_KNOB(threads), {0, 1024},
     "scheduler worker threads (0 = all hardware threads)"},
    {"sched_interval", "sched_interval", POLLUX_KNOB(sched_interval), kPositive,
     "scheduling interval in seconds"},
    {"report_interval", "report_interval", POLLUX_KNOB(report_interval), kPositive,
     "agent report interval in seconds"},
    {"sched-mode", "sched_mode", POLLUX_KNOB(sched_mode), kAny,
     "scheduler quality/speed ladder: exact (paper behavior) | incremental "
     "(re-optimize only dirty jobs) | first-match (O(jobs) greedy placement)"},
    {"queue-admission", "queue_admission", POLLUX_KNOB(queue_admission), kUnit,
     "incremental mode: admit queued jobs to GA shards only up to the round's free GPU capacity "
     "(backlogged jobs defer instead of inflating dirty-shard counts)"},
    {"restart_penalty", "restart_penalty", POLLUX_KNOB(restart_penalty), kNonNegative,
     "RESTART_PENALTY in the fitness function"},
    {"tick", "tick", POLLUX_KNOB(tick), kPositive, "simulation clock step in seconds"},
    {"obs_noise", "obs_noise", POLLUX_KNOB(observation_noise), kNonNegative,
     "lognormal sigma of profiled iteration times"},
    {"gns_noise", "gns_noise", POLLUX_KNOB(gns_noise), kNonNegative,
     "lognormal sigma of gradient moment samples"},
    {"seed", "seed", POLLUX_KNOB(seed), kNonNegative, "base random seed"},
    {"fault-profile", "", POLLUX_KNOB(faults), kAny,
     "fault injection preset: none | light | heavy (individual fault flags override the preset)",
     KnobRole::kPlain, "none"},
    {"mtbf-node", "mtbf_node", POLLUX_KNOB(faults.mtbf_node), kNonNegative,
     "mean time between node failures in seconds "
     "(0 disables crashes; negative keeps the profile value)",
     KnobRole::kOverride},
    {"repair-time", "repair_time", POLLUX_KNOB(faults.repair_time), kNonNegative,
     "mean node repair time in seconds (negative keeps the profile value)", KnobRole::kOverride},
    {"straggler-frac", "straggler_frac", POLLUX_KNOB(faults.straggler_frac), kUnit,
     "fraction of nodes that are persistent stragglers (negative keeps the profile value)",
     KnobRole::kOverride},
    {"straggler-slowdown", "straggler_slowdown", POLLUX_KNOB(faults.straggler_slowdown), {1, kInf},
     "iteration-time multiplier on straggler nodes (negative keeps the profile value)",
     KnobRole::kOverride},
    {"report-drop-rate", "report_drop_rate", POLLUX_KNOB(faults.report_drop_rate), kUnit,
     "probability each 30s agent report is lost (negative keeps the profile value)",
     KnobRole::kOverride},
    {"restart-fail-rate", "restart_fail_rate", POLLUX_KNOB(faults.restart_fail_rate), kUnit,
     "probability a checkpoint-restart attempt fails (negative keeps the profile value)",
     KnobRole::kOverride},
    {"", "restart_backoff_init", POLLUX_KNOB(faults.restart_backoff_init), kNonNegative, ""},
    {"", "restart_backoff_cap", POLLUX_KNOB(faults.restart_backoff_cap), kNonNegative, ""},
    {"mtbf-sched", "mtbf_sched", POLLUX_KNOB(faults.mtbf_sched), kNonNegative,
     "mean time between scheduler-process crashes in seconds "
     "(0 disables; negative keeps the profile value)",
     KnobRole::kOverride},
    {"sched-recovery", "sched_recovery", POLLUX_KNOB(faults.sched_recovery), kAny,
     "scheduler crash recovery: warm (lossless control-plane snapshot reload) | cold "
     "(agents refit, queues rebuilt)"},
    {"net-profile", "", POLLUX_KNOB(net), kAny,
     "control-plane network model preset: none | lan | flaky | partitioned "
     "(individual --net-* flags override the preset)",
     KnobRole::kPlain, "none"},
    {"net-latency", "net_latency", POLLUX_KNOB(net.latency), kNonNegative,
     "base one-way control message latency in seconds (negative keeps the profile value)",
     KnobRole::kOverride},
    {"net-jitter", "net_jitter", POLLUX_KNOB(net.jitter), kNonNegative,
     "mean exponential jitter added to each delivery in seconds (negative keeps the profile value)",
     KnobRole::kOverride},
    {"net-loss", "net_loss", POLLUX_KNOB(net.loss_rate), kUnit,
     "probability one control message send attempt is lost (negative keeps the profile value)",
     KnobRole::kOverride},
    {"net-burst-rate", "net_burst_rate", POLLUX_KNOB(net.burst_rate), kUnit,
     "probability a send trips the channel into a loss burst (negative keeps the profile value)",
     KnobRole::kOverride},
    {"net-burst-duration", "net_burst_duration", POLLUX_KNOB(net.burst_duration), kNonNegative,
     "mean loss burst length in seconds (negative keeps the profile value)", KnobRole::kOverride},
    {"net-dup", "net_dup", POLLUX_KNOB(net.dup_rate), kUnit,
     "probability a delivered message is duplicated (negative keeps the profile value)",
     KnobRole::kOverride},
    {"net-reorder", "net_reorder", POLLUX_KNOB(net.reorder_rate), kUnit,
     "probability a delivery is delayed enough to reorder (negative keeps the profile value)",
     KnobRole::kOverride},
    {"net-reorder-extra", "net_reorder_extra", POLLUX_KNOB(net.reorder_extra), kNonNegative,
     "max extra reorder delay in seconds (negative keeps the profile value)", KnobRole::kOverride},
    {"net-mtbf-partition", "net_mtbf_partition", POLLUX_KNOB(net.mtbf_partition), kNonNegative,
     "mean time between single-node control partitions in seconds "
     "(0 disables; negative keeps the profile value)",
     KnobRole::kOverride},
    {"net-partition-duration", "net_partition_duration", POLLUX_KNOB(net.partition_duration),
     kNonNegative,
     "mean single-node partition duration in seconds (negative keeps the profile value)",
     KnobRole::kOverride},
    {"net-mtbf-rack-partition", "net_mtbf_rack_partition", POLLUX_KNOB(net.mtbf_rack_partition),
     kNonNegative,
     "mean time between rack-scoped control partitions in seconds "
     "(0 disables; negative keeps the profile value)",
     KnobRole::kOverride},
    {"net-rack-partition-duration", "net_rack_partition_duration",
     POLLUX_KNOB(net.rack_partition_duration), kNonNegative,
     "mean rack partition duration in seconds (negative keeps the profile value)",
     KnobRole::kOverride},
    {"net-rack-size", "net_rack_size", POLLUX_KNOB(net.rack_size), kNonNegative,
     "nodes per rack for rack-scoped partitions (negative keeps the profile value)",
     KnobRole::kOverride},
    {"", "net_retry_backoff_init", POLLUX_KNOB(net.retry_backoff_init), kNonNegative, ""},
    {"", "net_retry_backoff_cap", POLLUX_KNOB(net.retry_backoff_cap), kNonNegative, ""},
    {"", "net_max_retries", POLLUX_KNOB(net.max_retries), kNonNegative, ""},
    {"net-lease-intervals", "net_lease_intervals", POLLUX_KNOB(net.lease_intervals), kNonNegative,
     "report intervals without a heartbeat before a node's capacity is masked "
     "(negative keeps the profile value)",
     KnobRole::kOverride},
    {"net-lease-grace", "net_lease_grace", POLLUX_KNOB(net.lease_grace), kNonNegative,
     "seconds a job with an expired report lease is frozen before eviction "
     "(negative keeps the profile value)",
     KnobRole::kOverride},
    {"net-degraded-coverage", "net_degraded_coverage", POLLUX_KNOB(net.degraded_coverage), kUnit,
     "fresh-report coverage below which the scheduler freezes warm allocations for the round "
     "(negative keeps the profile value)",
     KnobRole::kOverride},
    {"net-naive-masking", "net_naive_masking", POLLUX_KNOB(net.naive_masking), kUnit,
     "baseline liveness: instantly mask failed capacity and reclaim stale jobs with no lease, "
     "grace, or degraded rounds"},
    {"check-invariants", "check_invariants", POLLUX_KNOB(check_invariants), kUnit,
     "verify simulator invariants at every event instant (abort on violation)"},
    {"sched-budget", "sched_budget", POLLUX_KNOB(round_time_budget), kNonNegative,
     "wall-clock budget per Pollux scheduling round in seconds "
     "(0 = unlimited; overruns fall back to the projected allocation)"},
    {"checkpoint-every", "", POLLUX_KNOB(checkpoint_every), kNonNegative,
     "write a crash-consistent state snapshot every N sim-seconds "
     "(0 disables; requires --checkpoint-dir)"},
    {"checkpoint-dir", "", POLLUX_KNOB(checkpoint_dir), kAny,
     "directory for state snapshots (required with --checkpoint-every)"},
    {"halt-after", "", POLLUX_KNOB(halt_after_checkpoint), kNonNegative,
     "stop after the first snapshot at or past this sim time "
     "(0 = run to completion; emulates a crash for resume testing)"},
    {"topology", "", std::monostate{}, kAny,
     "rack topology \"RxN\" (R racks of N nodes, overrides --nodes); empty keeps the flat "
     "single-tier cluster model"},
    {"", "racks", POLLUX_KNOB(racks), {0, 1e6}, "", KnobRole::kTopology},
    {"rack-link-factor", "rack_link_factor", POLLUX_KNOB(rack_link_factor), {1.0, kInf},
     "multiplier (>= 1) on the node-tier sync cost for gangs that span racks "
     "(used with --topology)",
     KnobRole::kTopology},
    {"gpu-mix", "gpu_mix", POLLUX_KNOB(gpu_mix), kAny,
     "GPU generation mix \"type:frac,...\" over nodes (types: t4, p100, v100, a100; fractions "
     "sum to 1), e.g. \"a100:0.25,t4:0.75\"; empty keeps an all-t4 (baseline) cluster",
     KnobRole::kTopology},
    {"topology-blind", "topology_blind", POLLUX_KNOB(topology_blind), kUnit,
     "hide the topology annotations from the scheduler "
     "(ground-truth job speeds stay topology-aware); the bench_topology A/B baseline",
     KnobRole::kTopology},
    {"sync-heavy", "sync_heavy_fraction", POLLUX_KNOB(sync_heavy_fraction), {-kInf, 1.0},
     "fraction of trace jobs redrawn as sync-heavy multi-node gangs "
     "(negative keeps the standard Philly-style trace)",
     KnobRole::kTopology},
};

#undef POLLUX_KNOB

// The member type behind a Field alternative (std::monostate for none).
template <typename M>
struct FieldTypeOf {
  using type = std::monostate;
};
template <typename T>
struct FieldTypeOf<Member<T>> {
  using type = T;
};
template <typename M>
using FieldType = typename FieldTypeOf<M>::type;

// Whether a member holds a single encodable value (presets and the
// member-less --topology row do not).
template <typename T>
constexpr bool kIsValue = !std::is_same_v<T, std::monostate> && !std::is_same_v<T, FaultOptions> &&
                          !std::is_same_v<T, NetOptions>;

// Value parsers shared by flags and decode. Integers are range-checked before
// narrowing; doubles must be finite; enums and presets go through their
// *ByName functions.
bool ParseValue(const std::string& text, int* value) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE ||
      parsed < std::numeric_limits<int>::min() || parsed > std::numeric_limits<int>::max()) {
    return false;
  }
  *value = static_cast<int>(parsed);
  return true;
}

bool ParseValue(const std::string& text, uint64_t* value) {
  // strtoull silently negates a leading '-'.
  if (text.empty() || text.find('-') != std::string::npos) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  *value = std::strtoull(text.c_str(), &end, 10);
  return *end == '\0' && errno != ERANGE;
}

bool ParseValue(const std::string& text, double* value) {
  char* end = nullptr;
  errno = 0;
  *value = std::strtod(text.c_str(), &end);
  return !text.empty() && *end == '\0' && errno != ERANGE && std::isfinite(*value);
}

bool ParseValue(const std::string& text, bool* value) {
  *value = text == "1";
  return text == "0" || text == "1";
}

bool ParseValue(const std::string& text, std::string* value) {
  *value = text;
  return true;
}

bool ParseValue(const std::string& text, SchedMode* out) { return SchedModeByName(text, out); }
bool ParseValue(const std::string& text, SchedRecovery* out) {
  return SchedRecoveryByName(text, out);
}
bool ParseValue(const std::string& text, FaultOptions* out) {
  return FaultProfileByName(text, out);
}
bool ParseValue(const std::string& text, NetOptions* out) { return NetProfileByName(text, out); }

std::string FormatValue(int value) { return std::to_string(value); }
std::string FormatValue(uint64_t value) { return std::to_string(value); }
std::string FormatValue(bool value) { return value ? "1" : "0"; }
std::string FormatValue(const std::string& value) { return value; }
std::string FormatValue(SchedMode value) { return SchedModeName(value); }
std::string FormatValue(SchedRecovery value) { return SchedRecoveryName(value); }

std::string FormatValue(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string DescribeRange(const KnobRange& range) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%c%g, %g%c", range.lo_open || std::isinf(range.lo) ? '(' : '[',
                range.lo, range.hi, range.hi_open || std::isinf(range.hi) ? ')' : ']');
  return buf;
}

// Parses `text` into the row's member and checks the row's range: the one
// validation path for flags and decode. With keep_if_negative (override
// flags) a negative number leaves the member as the preset set it.
bool SetKnob(const Knob& knob, const std::string& text, bool keep_if_negative,
             BenchSimConfig* config, std::string* error) {
  return std::visit(
      [&](auto member) -> bool {
        using T = FieldType<decltype(member)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          return true;
        } else {
          T value{};
          if (!ParseValue(text, &value)) {
            *error = "is not a valid value";
            return false;
          }
          if constexpr (std::is_arithmetic_v<T>) {
            const double number = static_cast<double>(value);
            if (keep_if_negative && number < 0.0) {
              return true;
            }
            if (!knob.range.Contains(number)) {
              *error = "is outside " + DescribeRange(knob.range);
              return false;
            }
          }
          member(*config) = std::move(value);
          return true;
        }
      },
      knob.field);
}

const Knob* FindKnobByKey(const std::string& key) {
  for (const Knob& knob : kKnobs) {
    if (*knob.key != '\0' && key == knob.key) {
      return &knob;
    }
  }
  return nullptr;
}

// The rack/node layout the config describes (one rack when no topology is
// set); ClusterFromBenchConfig materializes it, CheckGpuMix validates against
// it.
TopologySpec BenchTopology(const BenchSimConfig& config) {
  TopologySpec spec;
  spec.num_racks = std::max(config.racks, 1);
  spec.nodes_per_rack = std::max(config.nodes / spec.num_racks, 1);
  spec.gpus_per_node = config.gpus_per_node;
  spec.rack_link_factor = config.rack_link_factor;
  return spec;
}

// Cross-field rule shared by flags and decode: a GPU mix must fit the final
// node count (a mix without --topology describes a heterogeneous single-rack
// cluster).
bool CheckGpuMix(const BenchSimConfig& config, std::string* error) {
  TopologySpec spec = BenchTopology(config);
  return config.gpu_mix.empty() || ParseGpuMix(config.gpu_mix, &spec, error);
}

[[noreturn]] void ExitUsage(const std::string& message) {
  std::fprintf(stderr, "%s\n", message.c_str());
  std::exit(kExitUsage);
}

}  // namespace

void AddCommonFlags(FlagParser& flags) {
  BenchSimConfig defaults;
  for (const Knob& knob : kKnobs) {
    if (*knob.flag == '\0') {
      continue;
    }
    std::visit(
        [&](auto member) {
          using T = FieldType<decltype(member)>;
          if constexpr (!kIsValue<T>) {
            flags.DefineString(knob.flag, knob.flag_default, knob.help);
          } else {
            const T& value = member(defaults);
            const bool sentinel = knob.role == KnobRole::kOverride;
            if constexpr (std::is_same_v<T, bool>) {
              flags.DefineBool(knob.flag, value, knob.help);
            } else if constexpr (std::is_same_v<T, double>) {
              flags.DefineDouble(knob.flag, sentinel ? -1.0 : value, knob.help);
            } else if constexpr (std::is_integral_v<T>) {
              flags.DefineInt(knob.flag, sentinel ? -1 : static_cast<int64_t>(value), knob.help);
            } else {
              flags.DefineString(knob.flag, FormatValue(value), knob.help);
            }
          }
        },
        knob.field);
  }
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
  std::string error;
  for (const Knob& knob : kKnobs) {
    if (*knob.flag == '\0') {
      continue;
    }
    const bool is_bool = std::holds_alternative<Member<bool>>(knob.field);
    const std::string text =
        is_bool ? FormatValue(flags.GetBool(knob.flag)) : flags.GetString(knob.flag);
    if (!SetKnob(knob, text, knob.role == KnobRole::kOverride, &config, &error)) {
      ExitUsage("--" + std::string(knob.flag) + "=" + text + " " + error);
    }
  }

  // Cross-field rules. Malformed cluster shapes are usage errors (exit 2),
  // not runs that limp along with a degenerate cluster.
  const std::string& topology = flags.GetString("topology");
  if (!topology.empty()) {
    TopologySpec spec;
    if (!ParseTopology(topology, config.gpus_per_node, &spec, &error)) {
      ExitUsage(error);
    }
    // --topology overrides --nodes, within the same bound.
    const std::string nodes = std::to_string(int64_t{spec.num_racks} * spec.nodes_per_rack);
    if (!SetKnob(*FindKnobByKey("nodes"), nodes, false, &config, &error)) {
      ExitUsage("--topology=" + topology + " yields " + nodes + " nodes, which " + error);
    }
    config.racks = spec.num_racks;
  }
  if (!CheckGpuMix(config, &error)) {
    ExitUsage(error);
  }
  return config;
}

ClusterSpec ClusterFromBenchConfig(const BenchSimConfig& config) {
  if (!config.TopologyActive()) {
    return ClusterSpec::Homogeneous(config.nodes, config.gpus_per_node);
  }
  TopologySpec spec = BenchTopology(config);
  std::string error;
  if (!config.gpu_mix.empty() && !ParseGpuMix(config.gpu_mix, &spec, &error)) {
    // ConfigFromFlags and DecodeBenchSimConfig validate the mix; a config
    // built in code can still carry garbage, which must not silently become
    // an all-t4 cluster.
    ExitUsage(error);
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

std::string EncodeBenchSimConfig(const BenchSimConfig& config) {
  const bool topology =
      config.TopologyActive() || config.topology_blind || config.sync_heavy_fraction >= 0.0;
  BenchSimConfig source = config;  // Row accessors take a mutable config.
  std::string out;
  for (const Knob& knob : kKnobs) {
    if (*knob.key == '\0' || (knob.role == KnobRole::kTopology && !topology)) {
      continue;
    }
    std::visit(
        [&](auto member) {
          using T = FieldType<decltype(member)>;
          if constexpr (kIsValue<T>) {
            out += knob.key;
            out += '=';
            out += FormatValue(member(source));
            out += '\n';
          }
        },
        knob.field);
  }
  return out;
}

bool DecodeBenchSimConfig(const std::string& text, BenchSimConfig* config) {
  BenchSimConfig parsed;
  std::istringstream in(text);
  std::string line;
  std::string error;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return false;
    }
    // An unknown key was written by an incompatible (newer) driver.
    const Knob* knob = FindKnobByKey(line.substr(0, eq));
    if (knob == nullptr || !SetKnob(*knob, line.substr(eq + 1), false, &parsed, &error)) {
      return false;
    }
  }
  if (!CheckGpuMix(parsed, &error)) {
    return false;
  }
  *config = parsed;
  return true;
}

std::vector<std::pair<std::string, KnobRange>> BenchConfigKeyRanges() {
  std::vector<std::pair<std::string, KnobRange>> keys;
  for (const Knob& knob : kKnobs) {
    if (*knob.key != '\0') {
      keys.emplace_back(knob.key, knob.range);
    }
  }
  return keys;
}

bool ResumeBenchFromSnapshot(const std::string& path_or_dir, const BenchSimConfig& run_local,
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
  config.checkpoint_every = run_local.checkpoint_every;
  config.checkpoint_dir = run_local.checkpoint_dir;
  config.halt_after_checkpoint = run_local.halt_after_checkpoint;
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
