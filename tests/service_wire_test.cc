// Hostile-input tests for the pollux_schedd frame codec (service/wire.h):
// a decoder fed truncated, bad-magic, oversized, bit-flipped, or random bytes
// must report the right distinct FrameStatus, never read out of bounds
// (ASan/UBSan jobs run this suite), and never misparse garbage as a frame.
// The suite also pins the bytes of the shared codec: CRC-32, the
// BinWriter/BinReader primitives and whole frames.

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "service/tenant.h"
#include "service/wire.h"
#include "util/rng.h"

namespace pollux {
namespace service {
namespace {

TEST(WireTest, RoundTripEmptyAndPayload) {
  for (const std::string& payload : {std::string(), std::string("hello"),
                                     std::string(100000, 'x')}) {
    const std::string bytes = EncodeFrame(kMsgReport, payload);
    EXPECT_EQ(bytes.size(), kFrameHeaderSize + payload.size() + kFrameTrailerSize);
    Frame frame;
    size_t consumed = 0;
    ASSERT_EQ(DecodeFrame(bytes, kDefaultMaxFrameBytes, &frame, &consumed),
              FrameStatus::kOk);
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(frame.type, static_cast<uint32_t>(kMsgReport));
    EXPECT_EQ(frame.payload, payload);
  }
}

TEST(WireTest, TruncationAtEveryBoundaryNeedsMore) {
  const std::string bytes = EncodeFrame(kMsgRunRound, "payload-bytes");
  for (size_t len = 0; len < bytes.size(); ++len) {
    const std::string prefix = bytes.substr(0, len);
    Frame frame;
    size_t consumed = 1;
    EXPECT_EQ(DecodeFrame(prefix, kDefaultMaxFrameBytes, &frame, &consumed),
              FrameStatus::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(WireTest, BadMagicRejectedImmediately) {
  std::string bytes = EncodeFrame(kMsgPing, "");
  bytes[0] ^= 0x01;
  Frame frame;
  size_t consumed = 1;
  EXPECT_EQ(DecodeFrame(bytes, kDefaultMaxFrameBytes, &frame, &consumed),
            FrameStatus::kBadMagic);
  EXPECT_EQ(consumed, 0u);
  // A garbage stream is rejected from its first four bytes — it can never
  // stall a connection as an eternally incomplete frame.
  EXPECT_EQ(DecodeFrame(std::string("XXXX"), kDefaultMaxFrameBytes, &frame, &consumed),
            FrameStatus::kBadMagic);
}

TEST(WireTest, CrcFlipAnywhereIsDetected) {
  const std::string clean = EncodeFrame(kMsgSubmitJob, "abcdef");
  // Flip one bit at every position after the magic (header, payload, CRC).
  for (size_t i = 4; i < clean.size(); ++i) {
    std::string bytes = clean;
    bytes[i] ^= 0x40;
    Frame frame;
    size_t consumed = 1;
    const FrameStatus status = DecodeFrame(bytes, kDefaultMaxFrameBytes, &frame, &consumed);
    // A flip in the length field may instead declare an oversized or longer
    // frame (kNeedMore); everything else must surface as a CRC mismatch.
    if (i >= 8 && i < 16) {
      EXPECT_NE(status, FrameStatus::kOk) << "flip at " << i;
    } else {
      EXPECT_EQ(status, FrameStatus::kBadCrc) << "flip at " << i;
    }
  }
}

TEST(WireTest, OversizedDeclaredLength) {
  const std::string bytes = EncodeFrame(kMsgReport, std::string(2048, 'z'));
  Frame frame;
  size_t consumed = 1;
  EXPECT_EQ(DecodeFrame(bytes, /*max_payload=*/1024, &frame, &consumed),
            FrameStatus::kOversized);
  EXPECT_EQ(consumed, 0u);
  // The same frame decodes under a limit it fits.
  EXPECT_EQ(DecodeFrame(bytes, 2048, &frame, &consumed), FrameStatus::kOk);
}

TEST(WireTest, BackToBackFramesDecodeInOrder) {
  std::string stream;
  for (uint32_t i = 0; i < 5; ++i) {
    stream += EncodeFrame(kMsgAck, std::string(i, 'a' + static_cast<char>(i)));
  }
  for (uint32_t i = 0; i < 5; ++i) {
    Frame frame;
    size_t consumed = 0;
    ASSERT_EQ(DecodeFrame(stream, kDefaultMaxFrameBytes, &frame, &consumed),
              FrameStatus::kOk);
    EXPECT_EQ(frame.payload.size(), i);
    stream.erase(0, consumed);
  }
  EXPECT_TRUE(stream.empty());
}

TEST(WireTest, FuzzRandomBytesNeverCrash) {
  Rng rng(20260809);
  for (int iteration = 0; iteration < 2000; ++iteration) {
    const size_t len = static_cast<size_t>(rng.UniformInt(0, 256));
    std::string bytes(len, '\0');
    for (char& c : bytes) c = static_cast<char>(rng.UniformInt(0, 255));
    Frame frame;
    size_t consumed = 0;
    const FrameStatus status = DecodeFrame(bytes, 1 << 16, &frame, &consumed);
    if (status == FrameStatus::kOk) {
      // Vanishingly unlikely (needs a valid magic AND CRC), but if it
      // happens the consumed count must stay in bounds.
      EXPECT_LE(consumed, bytes.size());
    } else {
      EXPECT_EQ(consumed, 0u);
    }
  }
}

TEST(WireTest, FuzzMutatedValidFramesNeverCrash) {
  Rng rng(42);
  const std::string clean = EncodeFrame(kMsgReport, std::string(64, 'p'));
  for (int iteration = 0; iteration < 2000; ++iteration) {
    std::string bytes = clean;
    const int mutations = static_cast<int>(rng.UniformInt(1, 4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
      bytes[pos] = static_cast<char>(rng.UniformInt(0, 255));
    }
    if (rng.Bernoulli(0.5)) {
      bytes.resize(static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(bytes.size()))));
    }
    Frame frame;
    size_t consumed = 0;
    (void)DecodeFrame(bytes, 1 << 16, &frame, &consumed);  // must not crash
    EXPECT_LE(consumed, bytes.size());
  }
}

TEST(WireTest, ErrorAndNackPayloadRoundTrip) {
  uint32_t code = 0;
  std::string detail;
  ASSERT_TRUE(DecodeErrorPayload(EncodeError(kErrBadCrc, "crc"), &code, &detail));
  EXPECT_EQ(code, static_cast<uint32_t>(kErrBadCrc));
  EXPECT_EQ(detail, "crc");
  ASSERT_TRUE(DecodeErrorPayload(EncodeNack(kNackQueueFull, "full"), &code, &detail));
  EXPECT_EQ(code, static_cast<uint32_t>(kNackQueueFull));
  EXPECT_EQ(detail, "full");
  EXPECT_FALSE(DecodeErrorPayload("xy", &code, &detail));
}

TEST(WireTest, NamesAreStable) {
  EXPECT_STREQ(FrameStatusName(FrameStatus::kBadCrc), "bad_crc");
  EXPECT_STREQ(ErrCodeName(kErrOversized), "oversized");
  EXPECT_STREQ(NackReasonName(kNackDraining), "draining");
  EXPECT_STREQ(MsgTypeName(kMsgRunRound), "run_round");
}

// ---------------------------------------------------------------------------
// Byte format of the shared codec: CRC-32, the BinWriter/BinReader primitives
// and whole frames, pinned so a faster codec can never move a byte.
// ---------------------------------------------------------------------------

// Bit-at-a-time CRC-32 (IEEE, reflected 0xEDB88320): the definition Crc32
// must agree with, sharing none of its tables.
uint32_t ReferenceCrc32(const unsigned char* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, KnownAnswers) {
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

// Every length 0-300 at every start offset 0-7 covers the word loop, the
// byte tail, and unaligned starts.
TEST(Crc32Test, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  Rng rng(17);
  std::vector<unsigned char> bytes(308);
  for (auto& byte : bytes) byte = static_cast<unsigned char>(rng.UniformInt(0, 255));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t size = 0; size <= 300; ++size) {
      ASSERT_EQ(Crc32(bytes.data() + offset, size), ReferenceCrc32(bytes.data() + offset, size))
          << "offset " << offset << " size " << size;
    }
  }
}

std::string Bytes(std::initializer_list<unsigned char> bytes) {
  return std::string(bytes.begin(), bytes.end());
}

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

TEST(BinCodecTest, PrimitivesEncodeToKnownBytesAndReadBack) {
  const uint64_t nan_bits = 0x7FF8000000000123ull;  // quiet NaN with a payload
  double nan = 0.0;
  std::memcpy(&nan, &nan_bits, sizeof(nan));
  const std::vector<int> ints = {-1, 0, 7, INT_MIN};

  BinWriter out;
  out.PutU32(0);
  out.PutU32(UINT32_MAX);
  out.PutU64(0);
  out.PutU64(UINT64_MAX);
  out.PutI64(-2);
  out.PutDouble(-0.0);
  out.PutDouble(nan);
  out.PutIntVec(ints);
  const std::string expected =
      Bytes({0, 0, 0, 0}) + Bytes({0xff, 0xff, 0xff, 0xff}) + std::string(8, '\0') +
      std::string(8, '\xff') + Bytes({0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) +
      Bytes({0, 0, 0, 0, 0, 0, 0, 0x80}) + Bytes({0x23, 0x01, 0, 0, 0, 0, 0xf8, 0x7f}) +
      Bytes({4, 0, 0, 0, 0, 0, 0, 0}) + std::string(8, '\xff') + std::string(8, '\0') +
      Bytes({7, 0, 0, 0, 0, 0, 0, 0}) + Bytes({0, 0, 0, 0x80, 0xff, 0xff, 0xff, 0xff});
  EXPECT_EQ(out.str(), expected);

  BinReader in(out.str());
  EXPECT_EQ(in.GetU32(), 0u);
  EXPECT_EQ(in.GetU32(), UINT32_MAX);
  EXPECT_EQ(in.GetU64(), 0u);
  EXPECT_EQ(in.GetU64(), UINT64_MAX);
  EXPECT_EQ(in.GetI64(), -2);
  EXPECT_EQ(DoubleBits(in.GetDouble()), DoubleBits(-0.0));
  EXPECT_EQ(DoubleBits(in.GetDouble()), nan_bits);
  EXPECT_EQ(in.GetIntVec(), ints);
  EXPECT_TRUE(in.ok());
  EXPECT_TRUE(in.AtEnd());
  // Past the end: zeros, and the failure flag sticks.
  EXPECT_EQ(in.GetU64(), 0u);
  EXPECT_EQ(in.GetU32(), 0u);
  EXPECT_FALSE(in.ok());
}

// 64-bit FNV-1a of `bytes`, as 16 hex digits.
std::string Fnv1aHex(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    hash = (hash ^ c) * 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

// A kMsgReport frame for three jobs (laid out as ScheddClient::Report sends
// it) and a kMsgDecisions frame (as the daemon answers a round), with digests
// recorded from the byte-at-a-time codec.
TEST(WireGoldenTest, FramesMatchRecordedDigests) {
  BinWriter report;
  report.PutU64(42);  // tenant
  report.PutU64(3);
  for (int i = 0; i < 3; ++i) {
    SchedJobReport job;
    job.agent.job_id = 1000 + i;
    ThroughputParams params;
    params.alpha_grad = 0.01 * (i + 1);
    params.beta_grad = 1e-4 / (i + 1);
    params.alpha_sync_local = 0.03;
    params.beta_sync_local = 1e-3;
    params.alpha_sync_node = 0.2;
    params.beta_sync_node = 2.5e-3;
    params.gamma = 1.5 + 0.25 * i;
    job.agent.model = GoodputModel(params, 1000.0 * (i + 1), 128 << i);
    job.agent.limits = {128L << i, 4096L << i, 256L << i};
    job.agent.max_gpus_cap = 8 << i;
    job.gpu_time = 3600.0 * i + 0.125;
    job.current_allocation = i == 0 ? std::vector<int>{} : std::vector<int>{4, 0, i, -1};
    job.report_age = 30.0 * i;
    job.seq = 7 + i;
    report.Put(job);
  }
  EXPECT_EQ(Fnv1aHex(EncodeFrame(kMsgReport, report.str())), "c45d25b3ff550b76");

  RoundDecisions decisions;
  decisions.round = 12;
  decisions.degraded = true;
  decisions.utility = -0.0625;
  decisions.rows = {{1000, {4, 0, 0, 0}}, {1001, {}}, {1002, {0, 2, 2, 0}}};
  EXPECT_EQ(Fnv1aHex(EncodeFrame(kMsgDecisions, EncodeDecisionsPayload(decisions))),
            "af22e0fc8b1c0f43");
}

}  // namespace
}  // namespace service
}  // namespace pollux
