// perfbench_harness: runs one benchmark workload at one seed and writes the
// raw measurements (per-repetition timings, per-call samples, decisions to
// check, and for traced runs the span/registry ledger) as one JSON object.
//
//   perfbench_harness --workload=sim-exact-160 --seed=3 --seconds=20 \
//       --trace=0 --out=result.json
//
// Exit codes: 0 ok, 1 runtime failure, 2 usage error.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <string>
#include <utility>

#include "harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/flags.h"

namespace perfbench {

bool AnotherRep(const HarnessArgs& args, int done, double elapsed, double last_s) {
  return done < kMinReps || elapsed + last_s <= args.seconds;
}

double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

long PeakRssKb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec,
  // so it would report the launching Python process's footprint.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return 0;
}

void SetObservability(bool on) {
  auto& registry = pollux::obs::MetricsRegistry::Global();
  auto& recorder = pollux::obs::TraceRecorder::Global();
  if (on) {
    registry.Reset();
    recorder.Clear();
    // Room for every span of the largest workload (the default cap drops
    // events silently past 2^20).
    recorder.SetMaxEvents(size_t{1} << 23);
  }
  registry.SetEnabled(on);
  recorder.SetEnabled(on);
}

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ << ',';
    first_.back() = false;
  }
}

void JsonWriter::BeginObject() {
  Separate();
  out_ << '{';
  first_.push_back(true);
}

void JsonWriter::EndObject() {
  first_.pop_back();
  out_ << '}';
}

void JsonWriter::BeginArray() {
  Separate();
  out_ << '[';
  first_.push_back(true);
}

void JsonWriter::EndArray() {
  first_.pop_back();
  out_ << ']';
}

void JsonWriter::Key(const std::string& key) {
  Separate();
  Quote(key);
  out_ << ':';
  after_key_ = true;
}

void JsonWriter::Number(double value) {
  Separate();
  if (!std::isfinite(value)) {
    out_ << "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ << buf;
}

void JsonWriter::Int(int64_t value) {
  Separate();
  out_ << value;
}

void JsonWriter::String(const std::string& value) {
  Separate();
  Quote(value);
}

void JsonWriter::Quote(const std::string& text) {
  // Keys and values here are identifiers; escape the two characters that
  // could break the framing anyway.
  out_ << '"';
  for (char c : text) {
    if (c == '"' || c == '\\') out_ << '\\';
    out_ << c;
  }
  out_ << '"';
}

void JsonWriter::Bool(bool value) {
  Separate();
  out_ << (value ? "true" : "false");
}

void JsonWriter::Raw(const std::string& json) {
  Separate();
  out_ << json;
}

void JsonWriter::NumberArray(const std::vector<double>& values) {
  BeginArray();
  for (double v : values) Number(v);
  EndArray();
}

void WriteLedger(JsonWriter& json) {
  struct SpanTotal {
    int64_t count = 0;
    double total_us = 0.0;
  };
  std::map<std::string, SpanTotal> spans;
  std::vector<double> sched_round_ms;
  for (const auto& event : pollux::obs::TraceRecorder::Global().Snapshot()) {
    if (event.phase != 'X' || event.pid != pollux::obs::TraceRecorder::kWallPid) continue;
    SpanTotal& total = spans[event.name];
    ++total.count;
    total.total_us += event.dur_us;
    if (event.name == "sched_round") sched_round_ms.push_back(event.dur_us * 1e-3);
  }
  json.Key("spans");
  json.BeginObject();
  for (const auto& [name, total] : spans) {
    json.Key(name);
    json.BeginObject();
    json.Key("count");
    json.Int(total.count);
    json.Key("total_s");
    json.Number(total.total_us * 1e-6);
    json.EndObject();
  }
  json.EndObject();
  // Raw PolluxSched::Schedule durations, for per-call percentiles where no
  // decorator sits in front of the scheduler (the daemon).
  json.Key("sched_round_ms");
  json.NumberArray(sched_round_ms);
  json.Key("trace_dropped");
  json.Int(static_cast<int64_t>(pollux::obs::TraceRecorder::Global().dropped()));
  json.Key("registry");
  json.Raw(pollux::obs::MetricsRegistry::Global().ToJson());
}

namespace {

int Main(int argc, char** argv) {
  pollux::FlagParser flags;
  flags.DefineString("workload", "", "sim-exact-160 | sim-hyper-5k | schedd-swarm");
  flags.DefineInt("seed", 1, "workload seed (every input is a function of it)");
  flags.DefineDouble("seconds", 10.0, "wall-time budget of the timed phase");
  flags.DefineInt("trace", 0, "1: traced run (one plain and one instrumented repetition)");
  flags.DefineBool("tiny", false, "tiny inputs (smoke tests)");
  flags.DefineString("out", "", "result JSON path (required)");
  if (!flags.Parse(argc, argv)) {
    return flags.help_requested() ? 0 : 2;
  }
  HarnessArgs args;
  args.workload = flags.GetString("workload");
  args.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  args.seconds = flags.GetDouble("seconds");
  args.trace = flags.GetInt("trace") != 0;
  args.tiny = flags.GetBool("tiny");
  const std::string out_path = flags.GetString("out");
  if (out_path.empty()) {
    std::fprintf(stderr, "perfbench_harness: --out is required\n");
    return 2;
  }
  const bool is_sim = args.workload == "sim-exact-160" || args.workload == "sim-hyper-5k";
  if (!is_sim && args.workload != "schedd-swarm") {
    std::fprintf(stderr, "perfbench_harness: unknown --workload '%s'\n", args.workload.c_str());
    return 2;
  }

  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "perfbench_harness: cannot open %s\n", out_path.c_str());
    return 1;
  }
  JsonWriter json(out);
  json.BeginObject();
  json.Key("workload");
  json.String(args.workload);
  json.Key("seed");
  json.Int(static_cast<int64_t>(args.seed));
  json.Key("tiny");
  json.Bool(args.tiny);
  json.Key("traced");
  json.Bool(args.trace);
  const bool ok = is_sim ? RunSimWorkload(args, json) : RunSwarmWorkload(args, json);
  json.Key("peak_rss_kb");
  json.Int(PeakRssKb());
  json.EndObject();
  out << '\n';
  out.close();
  if (!ok || !out) return 1;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
