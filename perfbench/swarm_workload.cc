// schedd-swarm: an in-process ScheddDaemon (2 shards, a checkpoint after
// every round) serving 2 tenants with 1024 jobs each on 64x4 GPUs in
// first-match mode, driven by a closed loop over the real socket protocol.
//
// Each epoch, 2 agent connections push one report batch each (writes, in
// parallel), then 1 leader connection runs one round per tenant (reads).
// Latencies are timed around ScheddClient::Report/RunRound. In the traced
// repetition the daemon's own busy time per round is read from its registry
// histogram (one round is in flight at a time, so each round's share of the
// sum is exact) and per epoch for ingest (two batches overlap, so the epoch
// mean is the finest exact sample).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness.h"
#include "obs/metrics.h"
#include "service/client.h"
#include "service/daemon.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using pollux::AgentReport;
using pollux::SchedJobReport;
using pollux::service::RoundDecisions;
using pollux::service::ScheddClient;
using pollux::service::ScheddClientOptions;
using pollux::service::ScheddDaemon;
using pollux::service::ScheddOptions;
using pollux::service::TenantSetup;

struct SwarmSpec {
  uint64_t seed = 1;
  int tenants = 2;
  int agents = 2;
  int jobs = 1024;  // per tenant
  int nodes = 64;   // per tenant
  int gpus_per_node = 4;
  int epochs = 400;
  int shards = 2;
};

SwarmSpec MakeSpec(const HarnessArgs& args) {
  SwarmSpec spec;
  spec.seed = args.seed;
  if (args.tiny) {
    spec.jobs = 16;
    spec.nodes = 4;
    spec.epochs = 6;
  }
  return spec;
}

// Every input is a pure function of (seed, tenant, job, epoch). The seed
// drives every job's goodput model. Each job's GPU cap, which alone decides
// how many jobs first-match places, is drawn from a stream that does not
// depend on the seed: otherwise the running-job count, and with it the round
// cost, would vary by about 15 % between seeds.
AgentReport MakeAgent(const SwarmSpec& spec, uint64_t tenant_id, uint64_t job_id) {
  pollux::Rng rng(spec.seed * 1000003 + tenant_id * 1009 + job_id);
  pollux::ThroughputParams params;
  params.alpha_grad = rng.Uniform(0.02, 0.08);
  params.beta_grad = rng.Uniform(1e-4, 4e-4);
  params.alpha_sync_local = 0.03;
  params.beta_sync_local = 0.002;
  params.alpha_sync_node = 0.1;
  params.beta_sync_node = 0.005;
  params.gamma = 2.0;
  AgentReport agent;
  agent.job_id = job_id;
  agent.model = pollux::GoodputModel(params, rng.Uniform(500.0, 2000.0), 128);
  agent.limits.min_batch = 128;
  agent.limits.max_batch_total = 16384;
  agent.limits.max_batch_per_gpu = 1024;
  pollux::Rng shape(tenant_id * 1009 + job_id);
  agent.max_gpus_cap = 1 << static_cast<int>(shape.Uniform(0.0, 4.0));
  return agent;
}

// Advances a job's report to `epoch`: GPU time grows so job weights
// (Eqn. 16) evolve over the run.
void SetEpoch(SchedJobReport* report, int epoch) {
  const double rate = static_cast<double>(report->agent.job_id % 7 + 1);
  report->gpu_time = 30.0 * static_cast<double>(epoch) * rate;
  report->seq = static_cast<uint64_t>(epoch) + 1;
}

// One agent connection and the report batch it pushes each epoch.
struct Agent {
  uint64_t tenant_id = 0;
  std::vector<SchedJobReport> batch;
  std::unique_ptr<ScheddClient> client;
};

ScheddClientOptions ClientOptions(const std::string& socket, uint64_t jitter_seed) {
  ScheddClientOptions options;
  options.socket_path = socket;
  options.request_timeout = 30.0;
  options.jitter_seed = jitter_seed;
  return options;
}

// A started daemon with its tenants created and jobs submitted, plus the
// client connections of the closed loop. Socket and checkpoint directory are
// relative to the working directory and removed on destruction.
class Swarm {
 public:
  Swarm(const SwarmSpec& spec, int instance)
      : spec_(spec),
        socket_("swarm-" + std::to_string(instance) + ".sock"),
        checkpoint_dir_("swarm-" + std::to_string(instance) + ".ckpt") {}
  ~Swarm() {
    agents_.clear();
    leader_.reset();
    if (daemon_) {
      daemon_->Stop();
      daemon_->Wait();
    }
    std::error_code ec;
    std::filesystem::remove_all(checkpoint_dir_, ec);
    std::filesystem::remove(socket_, ec);
  }
  Swarm(const Swarm&) = delete;
  Swarm& operator=(const Swarm&) = delete;

  bool Start(std::string* error) {
    ScheddOptions options;
    options.socket_path = socket_;
    options.shards = spec_.shards;
    options.checkpoint_dir = checkpoint_dir_;
    options.checkpoint_every_rounds = 1;
    daemon_ = std::make_unique<ScheddDaemon>(options);
    if (!daemon_->Start(error)) return false;
    leader_ = std::make_unique<ScheddClient>(ClientOptions(socket_, spec_.seed));
    for (int t = 0; t < spec_.tenants; ++t) {
      TenantSetup setup;
      setup.tenant_id = static_cast<uint64_t>(t) + 1;
      setup.cluster.gpus_per_node.assign(static_cast<size_t>(spec_.nodes), spec_.gpus_per_node);
      setup.sched.mode = pollux::SchedMode::kFirstMatch;
      setup.sched.ga.seed = spec_.seed + setup.tenant_id;
      if (!leader_->CreateTenant(setup, error)) return false;
      for (int j = 0; j < spec_.jobs; ++j) {
        const uint64_t job_id = static_cast<uint64_t>(j) + 1;
        if (!leader_->SubmitJob(setup.tenant_id, MakeAgent(spec_, setup.tenant_id, job_id), 0.0,
                                error)) {
          return false;
        }
      }
    }
    // Agent a serves tenant a % tenants and an interleaved slice of its jobs.
    const int peers = (spec_.agents + spec_.tenants - 1) / spec_.tenants;
    for (int a = 0; a < spec_.agents; ++a) {
      Agent agent;
      agent.tenant_id = static_cast<uint64_t>(a % spec_.tenants) + 1;
      agent.client = std::make_unique<ScheddClient>(ClientOptions(socket_, spec_.seed + 100 + a));
      for (int j = a / spec_.tenants; j < spec_.jobs; j += peers) {
        SchedJobReport report;
        report.agent = MakeAgent(spec_, agent.tenant_id, static_cast<uint64_t>(j) + 1);
        agent.batch.push_back(std::move(report));
      }
      if (!agent.client->Connect(error)) return false;
      agents_.push_back(std::move(agent));
    }
    return leader_->Connect(error);
  }

  const SwarmSpec& spec() const { return spec_; }
  ScheddDaemon& daemon() { return *daemon_; }
  ScheddClient& leader() { return *leader_; }
  std::vector<Agent>& agents() { return agents_; }
  const std::string& checkpoint_dir() const { return checkpoint_dir_; }

 private:
  SwarmSpec spec_;
  std::string socket_;
  std::string checkpoint_dir_;
  std::unique_ptr<ScheddDaemon> daemon_;
  std::unique_ptr<ScheddClient> leader_;
  std::vector<Agent> agents_;
};

std::unique_ptr<Swarm> TimedSetup(const SwarmSpec& spec, int instance, double* setup_s,
                                  std::string* error) {
  const double start = WallSeconds();
  auto swarm = std::make_unique<Swarm>(spec, instance);
  if (!swarm->Start(error)) return nullptr;
  *setup_s = WallSeconds() - start;
  return swarm;
}

// Measurements of one repetition of the closed loop.
struct LoopResult {
  std::vector<double> report_ms;
  std::vector<double> round_ms;
  // Wall time of each whole epoch: its report batches and its rounds.
  std::vector<double> epoch_ms;
  // Traced repetition only: daemon-side busy time per round and the mean
  // ingest busy time per epoch.
  std::vector<double> daemon_round_ms;
  std::vector<double> daemon_ingest_ms;
  // Every completed round's tenant and decision rows, in order.
  std::vector<std::pair<uint64_t, std::map<uint64_t, std::vector<int>>>> decisions;
  int64_t requests = 0;
};

// What the checks need from the decisions, derived after the timed phase:
// per round, the largest per-node GPU sum over the tenant's allocation view,
// the longest decision row and the smallest entry; and the final views
// (tenant -> job -> row).
struct DecisionSummary {
  std::vector<int> max_node_usage;
  std::vector<int> max_row_len;
  std::vector<int> min_entry;
  std::map<uint64_t, std::map<uint64_t, std::vector<int>>> allocations;
};

DecisionSummary Summarize(const LoopResult& loop, int nodes) {
  DecisionSummary summary;
  for (const auto& [tenant_id, rows] : loop.decisions) {
    auto& view = summary.allocations[tenant_id];
    int max_row_len = 0;
    int min_entry = 0;
    for (const auto& [job_id, row] : rows) {
      view[job_id] = row;
      max_row_len = std::max(max_row_len, static_cast<int>(row.size()));
      for (int gpus : row) min_entry = std::min(min_entry, gpus);
    }
    std::vector<int> usage(static_cast<size_t>(nodes), 0);
    for (const auto& [job_id, row] : view) {
      for (size_t n = 0; n < row.size() && n < usage.size(); ++n) usage[n] += row[n];
    }
    summary.max_node_usage.push_back(*std::max_element(usage.begin(), usage.end()));
    summary.max_row_len.push_back(max_row_len);
    summary.min_entry.push_back(min_entry);
  }
  return summary;
}

// Runs the closed loop. Any request that fails after the client's own
// retries ends the repetition with *error set.
bool RunLoop(Swarm& swarm, bool traced, LoopResult* out, std::string* error) {
  const SwarmSpec& spec = swarm.spec();
  auto& registry = pollux::obs::MetricsRegistry::Global();
  pollux::obs::Histogram* daemon_round = registry.GetHistogram("schedd.round.seconds");
  pollux::obs::Histogram* daemon_ingest = registry.GetHistogram("schedd.ingest.seconds");
  std::vector<Agent>& agents = swarm.agents();
  for (int epoch = 0; epoch < spec.epochs; ++epoch) {
    const double epoch_start = WallSeconds();
    const double ingest_sum = daemon_ingest->sum();
    const uint64_t ingest_count = daemon_ingest->count();
    std::vector<double> report_ms(agents.size(), 0.0);
    std::vector<std::string> report_errors(agents.size());
    std::vector<std::thread> threads;
    threads.reserve(agents.size());
    for (size_t a = 0; a < agents.size(); ++a) {
      threads.emplace_back([&, a] {
        Agent& agent = agents[a];
        for (SchedJobReport& report : agent.batch) SetEpoch(&report, epoch);
        const double start = WallSeconds();
        if (agent.client->Report(agent.tenant_id, agent.batch, nullptr, &report_errors[a])) {
          report_ms[a] = (WallSeconds() - start) * 1e3;
          report_errors[a].clear();
        } else if (report_errors[a].empty()) {
          report_errors[a] = "report failed";
        }
      });
    }
    for (auto& thread : threads) thread.join();
    out->requests += static_cast<int64_t>(agents.size());
    for (const std::string& report_error : report_errors) {
      if (!report_error.empty()) {
        *error = "epoch " + std::to_string(epoch) + ": " + report_error;
        return false;
      }
    }
    out->report_ms.insert(out->report_ms.end(), report_ms.begin(), report_ms.end());
    if (traced && daemon_ingest->count() > ingest_count) {
      out->daemon_ingest_ms.push_back((daemon_ingest->sum() - ingest_sum) * 1e3 /
                                      static_cast<double>(daemon_ingest->count() - ingest_count));
    }

    for (int t = 0; t < spec.tenants; ++t) {
      const uint64_t tenant_id = static_cast<uint64_t>(t) + 1;
      RoundDecisions decisions;
      const double busy_before = daemon_round->sum();
      const double start = WallSeconds();
      ++out->requests;
      if (!swarm.leader().RunRound(tenant_id, static_cast<uint64_t>(epoch), &decisions, error)) {
        *error = "epoch " + std::to_string(epoch) + " round: " + *error;
        return false;
      }
      out->round_ms.push_back((WallSeconds() - start) * 1e3);
      if (traced) {
        out->daemon_round_ms.push_back((daemon_round->sum() - busy_before) * 1e3);
      }
      out->decisions.emplace_back(tenant_id, std::move(decisions.rows));
    }
    out->epoch_ms.push_back((WallSeconds() - epoch_start) * 1e3);
  }
  return true;
}

uintmax_t NewestSnapshotBytes(const std::string& dir) {
  uintmax_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".bin") {
      bytes = std::max(bytes, entry.file_size());
    }
  }
  return bytes;
}

void WriteIntArray(JsonWriter& json, const std::vector<int>& values) {
  json.BeginArray();
  for (int v : values) json.Int(v);
  json.EndArray();
}

void WriteRep(Swarm& swarm, const LoopResult& loop, double run_s, double cpu_s, bool traced,
              JsonWriter& json) {
  const DecisionSummary summary = Summarize(loop, swarm.spec().nodes);
  const pollux::service::ScheddStats stats = swarm.daemon().Stats();
  pollux::service::ScheddClientStats clients = swarm.leader().stats();
  for (const Agent& agent : swarm.agents()) {
    clients.retries += agent.client->stats().retries;
    clients.nacks += agent.client->stats().nacks;
    clients.timeouts += agent.client->stats().timeouts;
  }
  json.BeginObject();
  json.Key("traced");
  json.Bool(traced);
  json.Key("run_s");
  json.Number(run_s);
  json.Key("cpu_s");
  json.Number(cpu_s);
  json.Key("report_ms");
  json.NumberArray(loop.report_ms);
  json.Key("round_ms");
  json.NumberArray(loop.round_ms);
  json.Key("epoch_ms");
  json.NumberArray(loop.epoch_ms);
  json.Key("daemon_round_ms");
  json.NumberArray(loop.daemon_round_ms);
  json.Key("daemon_ingest_ms");
  json.NumberArray(loop.daemon_ingest_ms);
  json.Key("max_node_usage");
  WriteIntArray(json, summary.max_node_usage);
  json.Key("max_row_len");
  WriteIntArray(json, summary.max_row_len);
  json.Key("min_entry");
  WriteIntArray(json, summary.min_entry);
  json.Key("requests");
  json.Int(loop.requests);
  json.Key("rounds_ok");
  json.Int(static_cast<int64_t>(loop.decisions.size()));
  json.Key("client");
  json.BeginObject();
  json.Key("retries");
  json.Int(static_cast<int64_t>(clients.retries));
  json.Key("nacks");
  json.Int(static_cast<int64_t>(clients.nacks));
  json.Key("timeouts");
  json.Int(static_cast<int64_t>(clients.timeouts));
  json.EndObject();
  json.Key("daemon");
  json.BeginObject();
  json.Key("frames");
  json.Int(static_cast<int64_t>(stats.frames));
  json.Key("bad_frames");
  json.Int(static_cast<int64_t>(stats.bad_frames));
  json.Key("malformed");
  json.Int(static_cast<int64_t>(stats.malformed));
  json.Key("errors");
  json.Int(static_cast<int64_t>(stats.errors));
  json.Key("sheds");
  json.Int(static_cast<int64_t>(stats.sheds));
  json.Key("rounds");
  json.Int(static_cast<int64_t>(stats.rounds));
  json.Key("checkpoints");
  json.Int(static_cast<int64_t>(stats.checkpoints));
  json.Key("snapshot_bytes");
  json.Int(static_cast<int64_t>(NewestSnapshotBytes(swarm.checkpoint_dir())));
  json.EndObject();
  // Final allocation, non-zero cells only: [tenant, job, node, gpus].
  json.Key("allocation");
  json.BeginArray();
  for (const auto& [tenant_id, rows] : summary.allocations) {
    for (const auto& [job_id, row] : rows) {
      for (size_t n = 0; n < row.size(); ++n) {
        if (row[n] == 0) continue;
        json.BeginArray();
        json.Int(static_cast<int64_t>(tenant_id));
        json.Int(static_cast<int64_t>(job_id));
        json.Int(static_cast<int64_t>(n));
        json.Int(row[n]);
        json.EndArray();
      }
    }
  }
  json.EndArray();
  if (traced) {
    json.Key("ledger");
    json.BeginObject();
    WriteLedger(json);
    json.EndObject();
  }
  json.EndObject();
}

}  // namespace

bool RunSwarmWorkload(const HarnessArgs& args, JsonWriter& json) {
  const SwarmSpec spec = MakeSpec(args);
  json.Key("tenants");
  json.Int(spec.tenants);
  json.Key("epochs");
  json.Int(spec.epochs);
  json.Key("jobs_per_tenant");
  json.Int(spec.jobs);
  json.Key("nodes");
  json.Int(spec.nodes);
  json.Key("gpus_per_node");
  json.Int(spec.gpus_per_node);
  std::vector<double> setup_s;
  std::string error;
  bool ok = true;
  int instance = 0;
  json.Key("reps");
  json.BeginArray();
  const double phase_start = WallSeconds();
  for (int rep = 0;; ++rep) {
    const bool traced = args.trace && rep == 1;
    double setup = 0.0;
    for (int i = ExtraSetups(setup_s.size()); ok && i > 0; --i) {
      ok = TimedSetup(spec, instance++, &setup, &error) != nullptr;
      if (ok) setup_s.push_back(setup);
    }
    std::unique_ptr<Swarm> swarm = ok ? TimedSetup(spec, instance++, &setup, &error) : nullptr;
    if (!swarm) {
      ok = false;
      break;
    }
    setup_s.push_back(setup);
    if (traced) SetObservability(true);
    LoopResult loop;
    const double cpu_start = ProcessCpuSeconds();
    const double start = WallSeconds();
    const bool loop_ok = RunLoop(*swarm, traced, &loop, &error);
    const double run_s = WallSeconds() - start;
    const double cpu_s = ProcessCpuSeconds() - cpu_start;
    if (traced) SetObservability(false);
    if (!loop_ok) {
      ok = false;
      break;
    }
    WriteRep(*swarm, loop, run_s, cpu_s, traced, json);
    if (args.trace ? rep == 1 : !AnotherRep(args, rep + 1, WallSeconds() - phase_start, run_s)) {
      break;
    }
  }
  json.EndArray();
  while (ok && static_cast<int>(setup_s.size()) < kSetups) {
    double setup = 0.0;
    if (!TimedSetup(spec, instance++, &setup, &error)) {
      ok = false;
      break;
    }
    setup_s.push_back(setup);
  }
  json.Key("setup_s");
  json.NumberArray(setup_s);
  if (!ok) std::fprintf(stderr, "perfbench_harness: schedd-swarm: %s\n", error.c_str());
  return ok;
}

}  // namespace perfbench
