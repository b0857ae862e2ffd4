// Shared plumbing for the benchmark harness: run arguments, wall/CPU clocks,
// a streaming JSON writer for the raw result file, and the traced-run span
// ledger. The harness only measures and records; run.py checks the outputs
// and turns the raw samples into the reported metrics.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct HarnessArgs {
  std::string workload;
  uint64_t seed = 1;
  // The timed phase runs the workload at least kMinReps times, and starts
  // another repetition while it would end within `seconds` of wall time.
  double seconds = 10.0;
  // Traced run: one plain repetition, then one with the metrics registry
  // and trace recorder on.
  bool trace = false;
  // Tiny inputs for the benchmark's own smoke tests.
  bool tiny = false;
};

// Repetitions must agree byte for byte, so every run makes at least two.
inline constexpr int kMinReps = 2;
// Set-up is timed at least kSetups times. Set-ups beyond one per repetition
// build the inputs and tear them down without running them. Up to
// kSetupsPerRep are timed before each repetition, so the median samples the
// host at several moments of the run rather than in one burst.
inline constexpr int kSetups = 15;
inline constexpr int kSetupsPerRep = 5;

// How many extra set-ups to time before the next repetition's own, with
// `done` set-ups timed so far.
inline int ExtraSetups(size_t done) {
  return done + kSetupsPerRep <= static_cast<size_t>(kSetups) ? kSetupsPerRep - 1 : 0;
}

// Whether the timed phase starts another repetition after `done` of them,
// `elapsed` seconds in, the last one having taken `last_s`.
bool AnotherRep(const HarnessArgs& args, int done, double elapsed, double last_s);

double WallSeconds();
double ProcessCpuSeconds();
long PeakRssKb();

// Turns the global metrics registry and trace recorder on (cleared first) or
// off. Off is the state every timed repetition runs in.
void SetObservability(bool on);

// Streaming JSON writer; commas and key/value separators are inserted
// automatically. Doubles are written with 17 significant digits.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  void Key(const std::string& key);
  void Number(double value);
  void Int(int64_t value);
  void String(const std::string& value);
  void Bool(bool value);
  // Pre-serialized JSON value (e.g. the metrics registry export).
  void Raw(const std::string& json);

  void NumberArray(const std::vector<double>& values);

 private:
  void Separate();
  void Quote(const std::string& text);

  std::ostream& out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

// Writes the wall-clock spans recorded by the trace recorder as
// "spans": {"name": {"count": n, "total_s": t}, ...}, the raw sched_round
// durations, and the metrics registry export under "registry". Call after
// SetObservability(false).
void WriteLedger(JsonWriter& json);

// Workload entry points: each writes its "setup_s", "reps" and (traced)
// "ledger" members into the already-open result object. Return false on a
// runtime failure (the message is on stderr).
bool RunSimWorkload(const HarnessArgs& args, JsonWriter& json);
bool RunSwarmWorkload(const HarnessArgs& args, JsonWriter& json);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
