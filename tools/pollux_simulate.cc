// pollux_simulate: command-line driver for the cluster simulator.
//
// Runs any scheduling policy over a synthesized or imported workload trace
// and reports the outcome; optionally archives the trace and exports
// machine-readable CSVs of the per-job results and the cluster timeline.
//
//   pollux_simulate --policy=pollux --jobs=160 --seed=1
//   pollux_simulate --policy=tiresias --trace=trace.csv --jobs_csv=out.csv
//   pollux_simulate --save_trace=trace.csv   # synthesize + archive, no run
//   pollux_simulate --checkpoint-every=600 --checkpoint-dir=ckpt  # + snapshots
//   pollux_simulate --resume-from=ckpt      # resume the newest valid snapshot

#include <fstream>
#include <iostream>

#include "bench/common.h"
#include "util/csv.h"
#include "workload/trace_io.h"

namespace pollux {
namespace {

// Prints the summary table and writes the optional CSVs; shared by the fresh
// and the --resume-from paths so resumed runs report identically. Returns the
// process exit code (see kExit* in bench/common.h): 0 ok, 1 timed out,
// 3 halted after a checkpoint.
int ReportResult(const FlagParser& flags, const std::string& policy, const SimResult& result) {
  const Summary jct = result.JctSummary();
  TablePrinter table({"metric", "value"});
  table.AddRow({"policy", policy});
  table.AddRow({"jobs", std::to_string(result.jobs.size())});
  table.AddRow({"avg JCT", FormatDuration(jct.mean)});
  table.AddRow({"p50 JCT", FormatDuration(jct.p50)});
  table.AddRow({"p99 JCT", FormatDuration(jct.p99)});
  table.AddRow({"makespan", FormatDuration(result.makespan)});
  table.AddRow(
      {"avg stat. efficiency", FormatDouble(100.0 * result.AvgClusterEfficiency(), 1) + "%"});
  table.AddRow({"node-hours", FormatDouble(result.node_seconds / 3600.0, 0)});
  table.AddRow({"timed out", result.timed_out ? "YES" : "no"});
  if (result.halted) {
    table.AddRow({"halted", "after checkpoint (resume with --resume-from)"});
  }
  table.Print(std::cout);

  if (!flags.GetString("jobs_csv").empty()) {
    std::ofstream out(flags.GetString("jobs_csv"));
    CsvWriter csv(out);
    csv.WriteRow({"job_id", "model", "category", "submit_s", "start_s", "finish_s", "jct_s",
                  "gpu_seconds", "restarts", "evictions", "restart_failures", "backoff_s",
                  "avg_efficiency", "avg_throughput", "avg_goodput", "completed"});
    for (const auto& job : result.jobs) {
      csv.WriteRow({std::to_string(job.job_id), ModelKindName(job.model),
                    JobCategoryName(job.category), FormatDouble(job.submit_time, 1),
                    FormatDouble(job.start_time, 1), FormatDouble(job.finish_time, 1),
                    FormatDouble(job.Jct(), 1), FormatDouble(job.gpu_time, 1),
                    std::to_string(job.num_restarts), std::to_string(job.num_evictions),
                    std::to_string(job.num_restart_failures),
                    FormatDouble(job.backoff_seconds, 1), FormatDouble(job.avg_efficiency, 4),
                    FormatDouble(job.avg_throughput, 2), FormatDouble(job.avg_goodput, 2),
                    job.completed ? "1" : "0"});
    }
    std::printf("wrote per-job results to %s\n", flags.GetString("jobs_csv").c_str());
  }
  if (!flags.GetString("timeline_csv").empty()) {
    std::ofstream out(flags.GetString("timeline_csv"));
    CsvWriter csv(out);
    csv.WriteRow({"time_s", "nodes", "gpus_in_use", "running_jobs", "mean_efficiency",
                  "utility", "max_batch_size"});
    for (const auto& sample : result.timeline) {
      csv.WriteRow({FormatDouble(sample.time, 0), std::to_string(sample.nodes),
                    std::to_string(sample.gpus_in_use), std::to_string(sample.running_jobs),
                    FormatDouble(sample.mean_efficiency, 4), FormatDouble(sample.utility, 4),
                    std::to_string(sample.max_batch_size)});
    }
    std::printf("wrote timeline to %s\n", flags.GetString("timeline_csv").c_str());
  }
  if (!flags.GetString("events_csv").empty()) {
    std::ofstream out(flags.GetString("events_csv"));
    CsvWriter csv(out);
    csv.WriteRow({"time_s", "event", "job_id", "gpus", "nodes"});
    for (const auto& event : result.events) {
      csv.WriteRow({FormatDouble(event.time, 1), SimEventKindName(event.kind),
                    std::to_string(event.job_id), std::to_string(event.gpus),
                    std::to_string(event.nodes)});
    }
    std::printf("wrote %zu events to %s\n", result.events.size(),
                flags.GetString("events_csv").c_str());
  }
  if (result.halted) {
    return kExitHalted;
  }
  return result.timed_out ? kExitRuntime : kExitOk;
}

int Main(int argc, char** argv) {
  FlagParser flags;
  AddCommonFlags(flags);
  flags.DefineString("policy", "pollux",
                     "pollux | pollux-fixed-batch | optimus | tiresias");
  flags.DefineString("trace", "", "CSV trace to replay (default: synthesize)");
  flags.DefineString("save_trace", "", "write the (synthesized) trace to this CSV file");
  flags.DefineString("jobs_csv", "", "write per-job results to this CSV file");
  flags.DefineString("timeline_csv", "", "write the cluster timeline to this CSV file");
  flags.DefineString("events_csv", "", "write the lifecycle event log to this CSV file");
  flags.DefineString("resume-from", "",
                     "resume from this snapshot file, or the newest valid snapshot "
                     "in this directory (policy/trace/config come from the snapshot)");
  if (!flags.Parse(argc, argv)) {
    return flags.help_requested() ? kExitOk : kExitUsage;
  }
  ObsSession obs(flags);
  const BenchSimConfig config = ConfigFromFlags(flags);
  if ((config.checkpoint_every > 0.0) != !config.checkpoint_dir.empty()) {
    std::fprintf(stderr, "--checkpoint-every and --checkpoint-dir must be set together\n");
    return kExitUsage;
  }

  if (!flags.GetString("resume-from").empty()) {
    SimResult result;
    std::string policy;
    std::string error;
    if (!ResumeBenchFromSnapshot(flags.GetString("resume-from"), config, &result, &policy,
                                 &error)) {
      std::fprintf(stderr, "cannot resume from %s: %s\n", flags.GetString("resume-from").c_str(),
                   error.c_str());
      return kExitRuntime;
    }
    return ReportResult(flags, policy, result);
  }

  const std::string& policy = flags.GetString("policy");

  // Resolve the trace: import or synthesize.
  std::vector<JobSpec> trace;
  if (!flags.GetString("trace").empty()) {
    std::ifstream in(flags.GetString("trace"));
    if (!in) {
      std::fprintf(stderr, "cannot open trace file %s\n", flags.GetString("trace").c_str());
      return kExitRuntime;
    }
    std::string error;
    auto parsed = ReadTraceCsv(in, &error);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "bad trace: %s\n", error.c_str());
      return kExitRuntime;
    }
    trace = std::move(*parsed);
  } else {
    trace = MakeBenchTrace(config);
  }
  if (!flags.GetString("save_trace").empty()) {
    std::ofstream out(flags.GetString("save_trace"));
    WriteTraceCsv(out, trace);
    std::printf("wrote %zu jobs to %s\n", trace.size(), flags.GetString("save_trace").c_str());
  }

  // Run: RunImportedTrace applies every config knob (RunBenchPolicy is the
  // same call over a synthesized trace), so both paths share one wiring.
  const SimResult result = RunImportedTrace(policy, config, trace);
  return ReportResult(flags, policy, result);
}

}  // namespace
}  // namespace pollux

int main(int argc, char** argv) { return pollux::Main(argc, argv); }
