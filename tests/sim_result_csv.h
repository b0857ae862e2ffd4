// Test helpers that render a SimResult exactly as pollux_simulate's
// --jobs_csv / --events_csv writers do, plus a stable 64-bit digest of the
// rendered bytes. The golden tests compare either the bytes themselves
// (tests/golden/*.csv) or their digests (checked-in hex strings).

#ifndef POLLUX_TESTS_SIM_RESULT_CSV_H_
#define POLLUX_TESTS_SIM_RESULT_CSV_H_

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "sim/simulator.h"
#include "util/csv.h"
#include "workload/model_profile.h"

namespace pollux {

inline std::string RenderJobsCsv(const SimResult& result) {
  std::ostringstream out;
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
  return out.str();
}

inline std::string RenderEventsCsv(const SimResult& result) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.WriteRow({"time_s", "event", "job_id", "gpus", "nodes"});
  for (const auto& event : result.events) {
    csv.WriteRow({FormatDouble(event.time, 1), SimEventKindName(event.kind),
                  std::to_string(event.job_id), std::to_string(event.gpus),
                  std::to_string(event.nodes)});
  }
  return out.str();
}

// FNV-1a 64 of `bytes`, as 16 lowercase hex digits.
inline std::string DigestHex(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(hash));
  return hex;
}

}  // namespace pollux

#endif  // POLLUX_TESTS_SIM_RESULT_CSV_H_
