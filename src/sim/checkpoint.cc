#include "sim/checkpoint.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
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

// Stores and loads one little-endian word at a time: a memcpy plus, on a
// big-endian host only, a byte swap.
template <class Word>
Word LittleEndian(Word word) {
  static_assert(sizeof(Word) == 4 || sizeof(Word) == 8);
  if constexpr (std::endian::native == std::endian::little) {
    return word;
  } else if constexpr (sizeof(Word) == 4) {
    return __builtin_bswap32(word);
  } else {
    return __builtin_bswap64(word);
  }
}

template <class Word>
Word LoadLittleEndian(const void* bytes) {
  Word word = 0;
  std::memcpy(&word, bytes, sizeof(word));
  return LittleEndian(word);
}

// Slicing-by-8 tables for the reflected IEEE polynomial. Row 0 is the
// classic byte table; row k maps a byte to its CRC contribution when k more
// zero bytes follow it, so one lookup per row advances the CRC eight bytes.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables tables{};
  for (uint32_t n = 0; n < 256; ++n) {
    uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][n] = c;
  }
  for (size_t row = 1; row < tables.size(); ++row) {
    for (uint32_t n = 0; n < 256; ++n) {
      const uint32_t prev = tables[row - 1][n];
      tables[row][n] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

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
  const Crc32Tables& t = kCrc32Tables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = 0xFFFFFFFFu;
  for (; size >= 8; bytes += 8, size -= 8) {
    const uint32_t lo = LoadLittleEndian<uint32_t>(bytes) ^ crc;
    const uint32_t hi = LoadLittleEndian<uint32_t>(bytes + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = t[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void BinWriter::PutU32(uint32_t value) {
  const uint32_t word = LittleEndian(value);
  buffer_.append(reinterpret_cast<const char*>(&word), sizeof(word));
}

void BinWriter::PutU64(uint64_t value) {
  const uint64_t word = LittleEndian(value);
  buffer_.append(reinterpret_cast<const char*>(&word), sizeof(word));
}

void BinWriter::PutDouble(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  PutU64(bits);
}

void BinWriter::PutBytes(const void* data, size_t size) {
  buffer_.append(static_cast<const char*>(data), size);
}

void BinWriter::PutString(const std::string& value) {
  PutU64(value.size());
  buffer_.append(value);
}

// The whole vector in one block: the buffer grows once, then each element is
// stored as an i64 word.
void BinWriter::PutIntVec(const std::vector<int>& values) {
  PutU64(values.size());
  const size_t start = buffer_.size();
  buffer_.resize(start + sizeof(uint64_t) * values.size());
  char* out = buffer_.data() + start;
  for (int v : values) {
    const uint64_t word = LittleEndian(static_cast<uint64_t>(static_cast<int64_t>(v)));
    std::memcpy(out, &word, sizeof(word));
    out += sizeof(word);
  }
}

uint32_t BinReader::GetU32() {
  if (!ok_ || data_.size() - pos_ < 4) {
    ok_ = false;
    return 0;
  }
  const uint32_t value = LoadLittleEndian<uint32_t>(data_.data() + pos_);
  pos_ += 4;
  return value;
}

uint64_t BinReader::GetU64() {
  if (!ok_ || data_.size() - pos_ < 8) {
    ok_ = false;
    return 0;
  }
  const uint64_t value = LoadLittleEndian<uint64_t>(data_.data() + pos_);
  pos_ += 8;
  return value;
}

void BinReader::Skip(uint64_t size) {
  if (!ok_ || data_.size() - pos_ < size) {
    ok_ = false;
    return;
  }
  pos_ += static_cast<size_t>(size);
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
  std::string value(data_.substr(pos_, size));
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
  return std::move(out).str();
}

bool DecodeSnapshotExtra(const std::string& payload, SnapshotExtra* extra) {
  BinReader in(payload);
  *extra = in.Get<SnapshotExtra>();
  return in.ok() && in.AtEnd();
}

bool WriteSnapshotFile(const std::string& path,
                       const std::map<uint32_t, std::string>& sections,
                       const SnapshotMeta& meta, std::string* error) {
  // One buffer, sized exactly: each payload is copied once, straight into
  // the file image.
  size_t total = kMagicSize + 4 + kCrcSize;
  for (const auto& [tag, payload] : sections) total += 4 + 8 + payload.size();
  BinWriter out;
  out.Reserve(total);
  out.PutBytes(kMagic, kMagicSize);
  out.PutU32(kSnapshotVersion);
  for (const auto& [tag, payload] : sections) {
    out.PutU32(tag);
    out.PutString(payload);
  }
  const uint32_t crc = Crc32(out.str().data() + kMagicSize, out.str().size() - kMagicSize);
  out.PutU32(crc);
  const std::string& file = out.str();
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
  // One sized read. A size that cannot be taken (say, of a directory) reads
  // as an empty file and fails as truncated below.
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  std::string file(ec ? 0 : static_cast<size_t>(size), '\0');
  in.read(file.data(), static_cast<std::streamsize>(file.size()));
  file.resize(static_cast<size_t>(in.gcount()));
  if (file.size() < kMagicSize + 4 + kCrcSize) {
    return Corrupt(error, path + ": truncated snapshot (" + std::to_string(file.size()) +
                              " bytes)");
  }
  if (std::memcmp(file.data(), kMagic, kMagicSize) != 0) {
    return Corrupt(error, path + ": not a pollux snapshot (bad magic)");
  }
  // Parsed in place: the CRC trailer and the body are views into `file`.
  const std::string_view bytes(file);
  const std::string_view body = bytes.substr(kMagicSize, bytes.size() - kMagicSize - kCrcSize);
  const uint32_t stored_crc = BinReader(bytes.substr(bytes.size() - kCrcSize)).GetU32();
  if (stored_crc != Crc32(body.data(), body.size())) {
    return Corrupt(error, path + ": CRC mismatch (torn or corrupt write)");
  }
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
