// Crash-consistent snapshot format for the cluster simulator (DESIGN.md §11).
//
// A snapshot is one binary file:
//
//   magic "PLXSNAP1"                                   (8 bytes)
//   u32   format version                               (kSnapshotVersion)
//   sections, each { u32 tag, u64 payload length, payload bytes }
//   u32   CRC-32 (IEEE) over everything between magic and CRC
//
// plus a human-readable JSON sidecar (`<file>.json`) mirroring the header
// metadata. Files are written to a temporary name and renamed into place, so
// a torn write can never shadow a previously valid snapshot. Readers validate
// magic, version, section framing, and CRC before any payload is parsed;
// truncated/corrupt/future-version files are rejected with a clear error
// (counted by sim.checkpoint.corrupt) and the directory helpers fall back to
// the previous snapshot.
//
// All integers are little-endian; doubles are serialized bit-exact (IEEE-754
// bit pattern), which the warm-recovery byte-identity guarantee depends on.

#ifndef POLLUX_SIM_CHECKPOINT_H_
#define POLLUX_SIM_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/agent.h"
#include "core/sched.h"
#include "util/rng.h"
#include "util/stats.h"

namespace pollux {

// Version 2: kTagJobs rows gained per-channel delivery sequence numbers and
// the kTagNet section (control-plane network model state) was added.
// Version 3: the kTagTopology section (rack/GPU-type cluster annotations,
// DESIGN.md §14) was added.
// Version 4: the simulator has one control loop. kTagSimCore lost its
// engine echo and kTagLoop its fixed-tick thresholds, so simulator snapshots
// older than kMinSimSnapshotVersion are rejected with a clear error. The
// kTagService layout did not change: tenant snapshots of any version load.
inline constexpr uint32_t kSnapshotVersion = 4;
inline constexpr uint32_t kMinSimSnapshotVersion = 4;

// Section tags. Unknown tags are preserved but ignored by readers, so later
// versions can add sections without breaking older payload parsers.
enum SnapshotTag : uint32_t {
  kTagExtra = 1,      // Driver payload: policy name, config text, trace CSV.
  kTagSimCore = 2,    // Simulator scalars: config echo, cluster, Rng, cursors.
  kTagJobs = 3,       // Per-job dynamic state, including the fitted agents.
  kTagFaults = 4,     // FaultInjector stream cursors + armed transitions.
  kTagScheduler = 5,  // Opaque Scheduler::SaveState blob.
  kTagResult = 6,     // Event log, timeline, node-second accounting.
  kTagLoop = 7,       // Control-loop state (timer states, dispatch count).
  kTagNet = 8,        // NetModel streams/in-flight messages + lease liveness.
  kTagTopology = 9,   // Cluster topology annotations (racks, GPU types).
  kTagService = 10,   // pollux_schedd per-tenant domain state (service/tenant.h).
};

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
uint32_t Crc32(const void* data, size_t size);

// Append-only little-endian binary encoder.
class BinWriter {
 public:
  void PutU32(uint32_t value);
  void PutU64(uint64_t value);
  void PutI64(int64_t value) { PutU64(static_cast<uint64_t>(value)); }
  void PutBool(bool value) { PutU32(value ? 1 : 0); }
  void PutDouble(double value);  // Bit-exact (incl. inf/NaN payloads).
  void PutString(const std::string& value);
  void PutIntVec(const std::vector<int>& values);
  const std::string& str() const { return buffer_; }

 private:
  std::string buffer_;
};

// Matching decoder. Reads past the end set a sticky failure flag and return
// zero values; callers check ok() once after decoding instead of per field.
// The referenced buffer must outlive the reader.
class BinReader {
 public:
  explicit BinReader(const std::string& data) : data_(data) {}

  uint32_t GetU32();
  uint64_t GetU64();
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  bool GetBool() { return GetU32() != 0; }
  double GetDouble();
  std::string GetString();
  std::vector<int> GetIntVec();

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  void MarkBad() { ok_ = false; }

 private:
  const std::string& data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Encode helpers for the state structs shared by several sections.
void PutRngState(BinWriter& out, const Rng::State& state);
Rng::State GetRngState(BinReader& in);
void PutRunningStats(BinWriter& out, const RunningStats::State& state);
RunningStats::State GetRunningStats(BinReader& in);
void PutAgentReport(BinWriter& out, const AgentReport& report);
AgentReport GetAgentReport(BinReader& in);

// PolluxSched control-plane state codec, shared by the simulator's
// PolluxPolicy blob and the pollux_schedd per-tenant snapshots. Split in two
// so PolluxPolicy can keep its historical blob layout (core fields, then the
// cached reports, then the incremental-mode state) byte-identical. Decoders
// set the reader's sticky failure flag on malformed or absurdly sized input.
void PutSchedJobReport(BinWriter& out, const SchedJobReport& report);
SchedJobReport GetSchedJobReport(BinReader& in);
void PutSchedStateCore(BinWriter& out, const PolluxSched::State& state);
void GetSchedStateCore(BinReader& in, PolluxSched::State* state);
void PutSchedStateIncremental(BinWriter& out, const PolluxSched::State& state);
void GetSchedStateIncremental(BinReader& in, PolluxSched::State* state);

// Driver payload embedded in every snapshot so a resume can reconstruct the
// run without any of the original command line: the policy name, the
// driver's own config serialization (opaque at this layer), and the full
// submission trace as CSV (workload/trace_io round-trips doubles exactly).
struct SnapshotExtra {
  std::string policy;
  std::string driver_config;
  std::string trace_csv;
};

std::string EncodeSnapshotExtra(const SnapshotExtra& extra);
bool DecodeSnapshotExtra(const std::string& payload, SnapshotExtra* extra);

// Metadata mirrored into the JSON sidecar for humans and tooling.
struct SnapshotMeta {
  double sim_time = 0.0;
  std::string engine;
  std::string policy;
  uint64_t seed = 0;
  uint64_t jobs_submitted = 0;
  uint64_t jobs_finished = 0;
  uint64_t events = 0;
};

// Assembles the container (magic + version + sections + CRC), writes it
// atomically (temp file + rename), and writes the JSON sidecar next to it.
bool WriteSnapshotFile(const std::string& path,
                       const std::map<uint32_t, std::string>& sections,
                       const SnapshotMeta& meta, std::string* error);

// Validates magic/version/CRC/section framing and fills `sections`. Returns
// false with a clear error for torn, corrupt, or future-version files
// (incrementing sim.checkpoint.corrupt), and for files older than
// `min_version`: simulator readers pass kMinSimSnapshotVersion.
bool ReadSnapshotFile(const std::string& path, std::map<uint32_t, std::string>* sections,
                      std::string* error, uint32_t min_version = 1);

// Reads and decodes only the driver payload section of a simulator snapshot.
bool ReadSnapshotExtra(const std::string& path, SnapshotExtra* extra, std::string* error);

// "ckpt-<sim time in ms, zero padded>.bin": lexicographic order equals
// chronological order, which the directory helpers rely on.
std::string SnapshotFileName(double sim_time);

// All snapshot files in `dir` (full paths), oldest first.
std::vector<std::string> ListSnapshotFiles(const std::string& dir);

// Resolves a --resume-from operand: a snapshot file is returned as-is; for a
// directory, the newest snapshot that passes full validation is returned,
// skipping (and warning about) torn/corrupt/future-version files. Returns an
// empty string with `error` set when nothing valid is found.
std::string ResolveSnapshotPath(const std::string& path_or_dir, std::string* error);

}  // namespace pollux

#endif  // POLLUX_SIM_CHECKPOINT_H_
