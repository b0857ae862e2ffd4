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
//
// Section payloads, the PolluxPolicy blob and the pollux_schedd tenant
// snapshot and wire frames are all encoded by field lists: one function
// template per struct, run by BinWriter to encode and by BinReader to decode
// (see "Field lists" below). Decoding never trusts a length: every container
// count passes BinReader::Count before anything is sized from it, so a
// CRC-valid but hostile payload fails with an error instead of allocating.

#ifndef POLLUX_SIM_CHECKPOINT_H_
#define POLLUX_SIM_CHECKPOINT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/agent.h"
#include "core/allocation.h"
#include "core/goodput.h"
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

// Caps on decoded container lengths (BinReader::Count). Node- and job-indexed
// lists stay under kMaxCount, the network model's message-scale lists under
// kMaxLargeCount; the remaining lists are bounded by their bytes alone.
inline constexpr uint64_t kUncapped = ~uint64_t{0};
inline constexpr uint64_t kMaxCount = uint64_t{1} << 20;
inline constexpr uint64_t kMaxLargeCount = uint64_t{1} << 24;

// Field lists. Each serialized struct names its fields once, in wire order, in
// `template <class Io> void Fields(Io& io, T& value)`. BinWriter runs it to
// encode and BinReader to decode, through matching reference-taking visitors
// (U32, U64, I64, Bool, F64, FiniteF64, Str, IntVec, Enum, Count, List, Map).
// Decode-only steps, such as rebuilding an object from decoded parts, sit
// under `if constexpr (Io::kDecode)`. Dispatch is static.

// Append-only little-endian binary encoder.
class BinWriter {
 public:
  static constexpr bool kDecode = false;

  void PutU32(uint32_t value);
  void PutU64(uint64_t value);
  void PutI64(int64_t value) { PutU64(static_cast<uint64_t>(value)); }
  void PutBool(bool value) { PutU32(value ? 1 : 0); }
  void PutDouble(double value);  // Bit-exact (incl. inf/NaN payloads).
  void PutString(const std::string& value);
  void PutIntVec(const std::vector<int>& values);
  const std::string& str() const { return buffer_; }

  // Encodes `value` through its field list (which never writes through the
  // reference when run by a writer).
  template <class T>
  void Put(const T& value) { Fields(*this, const_cast<T&>(value)); }

  // Field-list visitors. Integers travel as u32, u64 or i64 whatever their
  // in-memory width.
  template <class Int>
  void U32(Int& value) { PutU32(static_cast<uint32_t>(value)); }
  template <class Int>
  void U64(Int& value) { PutU64(static_cast<uint64_t>(value)); }
  template <class Int>
  void I64(Int& value) { PutI64(static_cast<int64_t>(value)); }
  void Bool(bool& value) { PutBool(value); }
  void F64(double& value) { PutDouble(value); }
  void FiniteF64(double& value) { PutDouble(value); }
  void Str(std::string& value) { PutString(value); }
  void IntVec(std::vector<int>& values) { PutIntVec(values); }
  template <class E>
  void Enum(E& value, E /*last*/) { PutU32(static_cast<uint32_t>(value)); }
  void Count(uint64_t& count, uint64_t /*cap*/, uint64_t /*min_bytes*/) { PutU64(count); }
  // A u64 length, then each element through `fn(io, element)`.
  template <class T, class Fn>
  void List(std::vector<T>& values, uint64_t /*cap*/, Fn&& fn) {
    PutU64(values.size());
    for (T& value : values) fn(*this, value);
  }
  // A u64 length, then each entry in key order through `fn(io, key, value)`.
  template <class K, class V, class Fn>
  void Map(std::map<K, V>& entries, uint64_t /*cap*/, Fn&& fn) {
    PutU64(entries.size());
    for (auto& [key, value] : entries) {
      K key_copy = key;
      fn(*this, key_copy, value);
    }
  }

 private:
  std::string buffer_;
};

// Matching decoder. Reads past the end set a sticky failure flag and return
// zero values; callers check ok() once after decoding instead of per field.
// The referenced buffer must outlive the reader.
class BinReader {
 public:
  static constexpr bool kDecode = true;

  explicit BinReader(const std::string& data) : data_(data) {}

  uint32_t GetU32();
  uint64_t GetU64();
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  bool GetBool() { return GetU32() != 0; }
  double GetDouble();
  // As GetDouble, but NaN or infinity sets the failure flag: for fields that
  // feed model, weight or capacity arithmetic and must never be non-finite.
  double GetFiniteDouble();
  std::string GetString();
  std::vector<int> GetIntVec();

  // Decodes a T through its field list.
  template <class T>
  T Get() {
    T value{};
    Fields(*this, value);
    return value;
  }

  // Field-list visitors, mirroring BinWriter's.
  template <class Int>
  void U32(Int& value) { value = static_cast<Int>(GetU32()); }
  template <class Int>
  void U64(Int& value) { value = static_cast<Int>(GetU64()); }
  template <class Int>
  void I64(Int& value) { value = static_cast<Int>(GetI64()); }
  void Bool(bool& value) { value = GetBool(); }
  void F64(double& value) { value = GetDouble(); }
  void FiniteF64(double& value) { value = GetFiniteDouble(); }
  void Str(std::string& value) { value = GetString(); }
  void IntVec(std::vector<int>& values) { values = GetIntVec(); }
  // A u32 enumerator; values past `last` fail.
  template <class E>
  void Enum(E& value, E last) {
    const uint32_t raw = GetU32();
    if (raw > static_cast<uint32_t>(last)) {
      MarkBad();
    } else {
      value = static_cast<E>(raw);
    }
  }
  // The one rule for decoded container lengths: a count above `cap`, or one
  // whose elements of at least `min_bytes` each cannot fit in the bytes that
  // remain, fails and reads as 0. Nothing is sized from a count before it
  // passes.
  void Count(uint64_t& count, uint64_t cap, uint64_t min_bytes);
  template <class T, class Fn>
  void List(std::vector<T>& values, uint64_t cap, Fn&& fn) {
    T probe{};
    uint64_t count = 0;
    Count(count, cap, MinBytes(fn, probe));
    values.clear();
    values.resize(static_cast<size_t>(count));
    for (T& value : values) {
      if (!ok_) break;
      fn(*this, value);
    }
  }
  template <class K, class V, class Fn>
  void Map(std::map<K, V>& entries, uint64_t cap, Fn&& fn) {
    K probe_key{};
    V probe_value{};
    uint64_t count = 0;
    Count(count, cap, MinBytes(fn, probe_key, probe_value));
    entries.clear();
    for (uint64_t i = 0; i < count && ok_; ++i) {
      K key{};
      V value{};
      fn(*this, key, value);
      entries.insert_or_assign(key, std::move(value));
    }
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  void MarkBad() { ok_ = false; }

 private:
  // Encoded size of a default-constructed element: a true lower bound for
  // every element, since field lists encode a default element's empty
  // containers and false presence flags at their minimum size.
  template <class Fn, class... Parts>
  static uint64_t MinBytes(Fn& fn, Parts&... parts) {
    BinWriter probe;
    fn(probe, parts...);
    return probe.str().size();
  }

  const std::string& data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// Field lists of the state structs shared by several codecs: the simulator
// sections, the PolluxPolicy blob, the pollux_schedd tenant snapshot and its
// wire frames.

template <class Io>
void Fields(Io& io, Rng::State& state) {
  for (uint64_t& word : state.words) io.U64(word);
  io.F64(state.cached_normal);
  io.Bool(state.has_cached_normal);
}

template <class Io>
void Fields(Io& io, RunningStats::State& state) {
  io.U64(state.count);
  for (double* value : {&state.mean, &state.m2, &state.min, &state.max}) io.F64(*value);
}

// A goodput model as every snapshot stores it: theta_sys (seven doubles), phi
// and the base batch size. `finite` refuses NaN and infinity on decode.
template <class Io>
void ModelFields(Io& io, ThroughputParams& params, double& phi, long& base_batch, bool finite) {
  for (double* value : {&params.alpha_grad, &params.beta_grad, &params.alpha_sync_local,
                        &params.beta_sync_local, &params.alpha_sync_node, &params.beta_sync_node,
                        &params.gamma, &phi}) {
    if (finite) {
      io.FiniteF64(*value);
    } else {
      io.F64(*value);
    }
  }
  io.I64(base_batch);
}

// Agent reports feed the scheduler's arithmetic: theta_sys and phi must be
// finite.
template <class Io>
void Fields(Io& io, AgentReport& report) {
  io.U64(report.job_id);
  ThroughputParams params = report.model.params();
  double phi = report.model.phi();
  long base_batch = report.model.base_batch_size();
  ModelFields(io, params, phi, base_batch, /*finite=*/true);
  if constexpr (Io::kDecode) report.model = GoodputModel(params, phi, base_batch);
  io.I64(report.limits.min_batch);
  io.I64(report.limits.max_batch_total);
  io.I64(report.limits.max_batch_per_gpu);
  io.I64(report.max_gpus_cap);
}

template <class Io>
void Fields(Io& io, PolluxAgent::State& state) {
  io.List(state.observations, kUncapped, [](auto& list_io, auto& observation) {
    list_io.I64(observation.gpus);
    list_io.I64(observation.node_regime);
    list_io.I64(observation.batch_bucket);
    Fields(list_io, observation.iter_time);
    Fields(list_io, observation.batch_size);
  });
  io.F64(state.tracker.cov_ema);
  io.F64(state.tracker.sqnorm_ema);
  io.F64(state.tracker.weight);
  io.U64(state.tracker.count);
  ModelFields(io, state.model_params, state.model_phi, state.model_base_batch, /*finite=*/false);
  io.I64(state.max_gpus_seen);
  io.I64(state.max_nodes_seen);
  io.U64(state.last_fit_configs);
  io.I64(state.fits_rejected);
  io.I64(state.outliers_rejected);
}

// GPU-time and report age weigh jobs in the fitness, so they must be finite.
template <class Io>
void Fields(Io& io, SchedJobReport& report) {
  Fields(io, report.agent);
  io.FiniteF64(report.gpu_time);
  io.IntVec(report.current_allocation);
  io.FiniteF64(report.report_age);
  io.U64(report.seq);
}

template <class Io>
void Fields(Io& io, AllocationMatrix& matrix) {
  uint64_t jobs = matrix.num_jobs();
  uint64_t nodes = matrix.num_nodes();
  io.Count(jobs, kMaxCount, 0);
  io.Count(nodes, kMaxCount, 8 * jobs);  // Each node adds one i64 cell per job.
  if constexpr (Io::kDecode) matrix = AllocationMatrix(jobs, nodes);
  for (size_t job = 0; job < jobs; ++job) {
    for (size_t node = 0; node < nodes; ++node) io.I64(matrix.at(job, node));
  }
}

// PolluxSched control-plane state in two parts, so the PolluxPolicy blob can
// keep its layout (core fields, then the cached reports, then the
// incremental-mode state) while tenant snapshots store the parts back to back.
template <class Io>
void SchedCoreFields(Io& io, PolluxSched::State& state) {
  Fields(io, state.ga.rng);
  io.List(state.ga.last_job_ids, kUncapped, [](auto& list_io, uint64_t& id) { list_io.U64(id); });
  io.List(state.ga.population, kUncapped,
          [](auto& list_io, AllocationMatrix& matrix) { Fields(list_io, matrix); });
  io.F64(state.last_utility);
  io.F64(state.last_fitness);
  for (uint64_t* counter : {&state.fallback_rounds, &state.degraded_rounds,
                            &state.lease_expirations, &state.lease_evictions, &state.dup_reports,
                            &state.queue_skipped}) {
    io.U64(*counter);
  }
  io.Map(state.telemetry, kUncapped,
         [](auto& map_io, uint64_t& job_id, std::pair<uint64_t, uint32_t>& telemetry) {
           map_io.U64(job_id);
           map_io.U64(telemetry.first);
           map_io.U32(telemetry.second);
         });
}

template <class Io>
void SchedIncrementalFields(Io& io, PolluxSched::State& state) {
  io.Map(state.incremental, kUncapped,
         [](auto& map_io, uint64_t& job_id, PolluxSched::JobOptState& snap) {
           map_io.U64(job_id);
           ModelFields(map_io, snap.params, snap.phi, snap.base_batch, /*finite=*/false);
           map_io.I64(snap.cap);
           map_io.U32(snap.bucket);
           map_io.U32(snap.rounds_clean);
         });
  io.U64(state.incremental_round);
}

// Per-node topology annotations (DESIGN.md §14). Scales must be finite.
template <class Io>
void NodeAnnotationFields(Io& io, ClusterSpec& cluster) {
  io.IntVec(cluster.rack_of_node);
  io.IntVec(cluster.gpu_type_of_node);
  io.List(cluster.node_gpu_scale, kMaxCount,
          [](auto& list_io, double& scale) { list_io.FiniteF64(scale); });
}

// Runs the field list of `object`'s GetState()/SetState() snapshot. Decode
// applies the state only when every field decoded.
template <class Io, class Object>
void StateFields(Io& io, Object& object) {
  auto state = object.GetState();
  Fields(io, state);
  if constexpr (Io::kDecode) {
    if (io.ok()) object.SetState(state);
  }
}

// Driver payload embedded in every snapshot so a resume can reconstruct the
// run without any of the original command line: the policy name, the
// driver's own config serialization (opaque at this layer), and the full
// submission trace as CSV (workload/trace_io round-trips doubles exactly).
struct SnapshotExtra {
  std::string policy;
  std::string driver_config;
  std::string trace_csv;
};

template <class Io>
void Fields(Io& io, SnapshotExtra& extra) {
  io.Str(extra.policy);
  io.Str(extra.driver_config);
  io.Str(extra.trace_csv);
}

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
