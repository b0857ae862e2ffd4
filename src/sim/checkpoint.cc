#include "sim/checkpoint.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

#include "obs/metrics.h"

namespace pollux {
namespace {

constexpr char kMagic[8] = {'P', 'L', 'X', 'S', 'N', 'A', 'P', '1'};
constexpr size_t kMagicSize = sizeof(kMagic);
constexpr size_t kCrcSize = 4;

struct CheckpointMetrics {
  obs::Counter* corrupt;

  static const CheckpointMetrics& Get() {
    static const CheckpointMetrics metrics;
    return metrics;
  }

 private:
  CheckpointMetrics() {
    corrupt = obs::MetricsRegistry::Global().GetCounter("sim.checkpoint.corrupt");
  }
};

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
  return false;
}

// Any validation failure flows through here so the corrupt counter and the
// fallback logic can never disagree about what counts as a bad snapshot.
bool Corrupt(std::string* error, const std::string& message) {
  if (obs::MetricsRegistry::Global().enabled()) {
    CheckpointMetrics::Get().corrupt->Add();
  }
  return Fail(error, message);
}

const uint32_t* Crc32Table() {
  static const uint32_t* table = [] {
    static uint32_t entries[256];
    for (uint32_t n = 0; n < 256; ++n) {
      uint32_t c = n;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entries[n] = c;
    }
    return entries;
  }();
  return table;
}

// Escapes the few characters that can appear in paths/policy names; the
// sidecar is advisory, but it must always be valid JSON.
std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

bool WriteFileAtomic(const std::string& path, const std::string& contents,
                     std::string* error) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Fail(error, "cannot open " + tmp + " for writing");
    }
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    out.flush();
    if (!out) {
      return Fail(error, "short write to " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Fail(error, "cannot rename " + tmp + " to " + path + ": " + ec.message());
  }
  return true;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size) {
  const uint32_t* table = Crc32Table();
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void BinWriter::PutU32(uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    buffer_.push_back(static_cast<char>((value >> shift) & 0xFFu));
  }
}

void BinWriter::PutU64(uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    buffer_.push_back(static_cast<char>((value >> shift) & 0xFFu));
  }
}

void BinWriter::PutDouble(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  PutU64(bits);
}

void BinWriter::PutString(const std::string& value) {
  PutU64(value.size());
  buffer_.append(value);
}

void BinWriter::PutIntVec(const std::vector<int>& values) {
  PutU64(values.size());
  for (int v : values) {
    PutI64(v);
  }
}

uint32_t BinReader::GetU32() {
  if (!ok_ || data_.size() - pos_ < 4) {
    ok_ = false;
    return 0;
  }
  uint32_t value = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    value |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_++])) << shift;
  }
  return value;
}

uint64_t BinReader::GetU64() {
  if (!ok_ || data_.size() - pos_ < 8) {
    ok_ = false;
    return 0;
  }
  uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    value |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_++])) << shift;
  }
  return value;
}

double BinReader::GetDouble() {
  const uint64_t bits = GetU64();
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

double BinReader::GetFiniteDouble() {
  const double value = GetDouble();
  if (!std::isfinite(value)) {
    ok_ = false;
  }
  return value;
}

void BinReader::Count(uint64_t& count, uint64_t cap, uint64_t min_bytes) {
  count = GetU64();
  if (!ok_ || count > cap || (min_bytes > 0 && count > (data_.size() - pos_) / min_bytes)) {
    ok_ = false;
    count = 0;
  }
}

std::string BinReader::GetString() {
  uint64_t size = 0;
  Count(size, kUncapped, 1);
  std::string value = data_.substr(pos_, size);
  pos_ += size;
  return value;
}

std::vector<int> BinReader::GetIntVec() {
  uint64_t size = 0;
  Count(size, kUncapped, 8);
  std::vector<int> values(static_cast<size_t>(size));
  for (auto& v : values) {
    v = static_cast<int>(GetI64());
  }
  return values;
}

std::string EncodeSnapshotExtra(const SnapshotExtra& extra) {
  BinWriter out;
  out.Put(extra);
  return out.str();
}

bool DecodeSnapshotExtra(const std::string& payload, SnapshotExtra* extra) {
  BinReader in(payload);
  *extra = in.Get<SnapshotExtra>();
  return in.ok() && in.AtEnd();
}

bool WriteSnapshotFile(const std::string& path,
                       const std::map<uint32_t, std::string>& sections,
                       const SnapshotMeta& meta, std::string* error) {
  std::string file(kMagic, kMagicSize);
  BinWriter body;
  body.PutU32(kSnapshotVersion);
  for (const auto& [tag, payload] : sections) {
    body.PutU32(tag);
    body.PutString(payload);
  }
  file += body.str();
  const uint32_t crc = Crc32(file.data() + kMagicSize, file.size() - kMagicSize);
  BinWriter crc_writer;
  crc_writer.PutU32(crc);
  file += crc_writer.str();
  if (!WriteFileAtomic(path, file, error)) {
    return false;
  }

  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\n"
                "  \"format\": \"pollux-snapshot\",\n"
                "  \"version\": %u,\n"
                "  \"file\": \"%s\",\n"
                "  \"crc32\": %u,\n"
                "  \"bytes\": %zu,\n"
                "  \"sim_time\": %.17g,\n"
                "  \"engine\": \"%s\",\n"
                "  \"policy\": \"%s\",\n"
                "  \"seed\": %llu,\n"
                "  \"jobs_submitted\": %llu,\n"
                "  \"jobs_finished\": %llu,\n"
                "  \"events\": %llu\n"
                "}\n",
                kSnapshotVersion,
                JsonEscape(std::filesystem::path(path).filename().string()).c_str(), crc,
                file.size(), meta.sim_time, JsonEscape(meta.engine).c_str(),
                JsonEscape(meta.policy).c_str(),
                static_cast<unsigned long long>(meta.seed),
                static_cast<unsigned long long>(meta.jobs_submitted),
                static_cast<unsigned long long>(meta.jobs_finished),
                static_cast<unsigned long long>(meta.events));
  // The sidecar is advisory metadata; a failure to write it is not fatal.
  std::string sidecar_error;
  if (!WriteFileAtomic(path + ".json", buf, &sidecar_error)) {
    std::fprintf(stderr, "warning: %s\n", sidecar_error.c_str());
  }
  return true;
}

bool ReadSnapshotFile(const std::string& path, std::map<uint32_t, std::string>* sections,
                      std::string* error, uint32_t min_version) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Fail(error, "cannot open snapshot " + path);
  }
  std::string file((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (file.size() < kMagicSize + 4 + kCrcSize) {
    return Corrupt(error, path + ": truncated snapshot (" + std::to_string(file.size()) +
                              " bytes)");
  }
  if (std::memcmp(file.data(), kMagic, kMagicSize) != 0) {
    return Corrupt(error, path + ": not a pollux snapshot (bad magic)");
  }
  const std::string stored_crc_bytes = file.substr(file.size() - kCrcSize);
  BinReader crc_reader(stored_crc_bytes);
  const uint32_t stored_crc = crc_reader.GetU32();
  const uint32_t actual_crc =
      Crc32(file.data() + kMagicSize, file.size() - kMagicSize - kCrcSize);
  if (stored_crc != actual_crc) {
    return Corrupt(error, path + ": CRC mismatch (torn or corrupt write)");
  }
  const std::string body = file.substr(kMagicSize, file.size() - kMagicSize - kCrcSize);
  BinReader reader(body);
  const uint32_t version = reader.GetU32();
  if (version > kSnapshotVersion) {
    return Corrupt(error, path + ": snapshot format version " + std::to_string(version) +
                              " is newer than supported version " +
                              std::to_string(kSnapshotVersion));
  }
  if (version < min_version) {
    return Fail(error, path + ": snapshot format version " + std::to_string(version) +
                           " predates the layout of version " + std::to_string(min_version) +
                           " and cannot be resumed; rerun from the start");
  }
  sections->clear();
  while (reader.ok() && !reader.AtEnd()) {
    const uint32_t tag = reader.GetU32();
    std::string payload = reader.GetString();
    if (!reader.ok()) {
      break;
    }
    (*sections)[tag] = std::move(payload);
  }
  if (!reader.ok()) {
    return Corrupt(error, path + ": truncated section framing");
  }
  return true;
}

bool ReadSnapshotExtra(const std::string& path, SnapshotExtra* extra, std::string* error) {
  std::map<uint32_t, std::string> sections;
  if (!ReadSnapshotFile(path, &sections, error, kMinSimSnapshotVersion)) {
    return false;
  }
  const auto it = sections.find(kTagExtra);
  if (it == sections.end()) {
    return Fail(error, path + ": snapshot has no driver payload section");
  }
  if (!DecodeSnapshotExtra(it->second, extra)) {
    return Corrupt(error, path + ": malformed driver payload section");
  }
  return true;
}

std::string SnapshotFileName(double sim_time) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "ckpt-%015lld.bin",
                static_cast<long long>(std::llround(sim_time * 1000.0)));
  return buf;
}

std::vector<std::string> ListSnapshotFiles(const std::string& dir) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0 && name.size() > 4 &&
        name.compare(name.size() - 4, 4, ".bin") == 0) {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string ResolveSnapshotPath(const std::string& path_or_dir, std::string* error) {
  std::error_code ec;
  if (!std::filesystem::exists(path_or_dir, ec)) {
    Fail(error, "snapshot path " + path_or_dir + " does not exist");
    return std::string();
  }
  if (!std::filesystem::is_directory(path_or_dir, ec)) {
    return path_or_dir;
  }
  const std::vector<std::string> files = ListSnapshotFiles(path_or_dir);
  if (files.empty()) {
    Fail(error, "no snapshots (ckpt-*.bin) in directory " + path_or_dir);
    return std::string();
  }
  size_t skipped = 0;
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    std::map<uint32_t, std::string> sections;
    std::string candidate_error;
    if (ReadSnapshotFile(*it, &sections, &candidate_error)) {
      if (skipped > 0) {
        std::fprintf(stderr, "falling back to previous snapshot %s\n", it->c_str());
      }
      return *it;
    }
    ++skipped;
    std::fprintf(stderr, "skipping bad snapshot: %s\n", candidate_error.c_str());
  }
  Fail(error, "all " + std::to_string(files.size()) + " snapshots in " + path_or_dir +
                  " are torn or corrupt");
  return std::string();
}

}  // namespace pollux
