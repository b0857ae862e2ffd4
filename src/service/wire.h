// Wire protocol for pollux_schedd (DESIGN.md §15).
//
// Every message travels in one frame:
//
//   u32 magic  "PLXD" (little-endian 0x444C5850)
//   u32 type   (MsgType)
//   u64 payload length
//   payload bytes (BinWriter-encoded, see the per-message layouts below)
//   u32 CRC-32 (IEEE) over type + length + payload
//
// The framing layer is deliberately hostile-input-first: a decoder fed
// truncated, bad-magic, oversized, or bit-flipped bytes reports a *distinct*
// typed error (FrameStatus) and never reads past the buffer. Magic/CRC/length
// failures mean the byte stream can no longer be trusted to be frame-aligned,
// so the daemon answers with a typed kMsgError and closes the connection;
// payload-level decode failures (valid frame, malformed contents) are
// per-request errors and the connection survives.
//
// All integers little-endian via sim/checkpoint's BinWriter/BinReader, so the
// service shares one binary dialect with the snapshot format.

#ifndef POLLUX_SERVICE_WIRE_H_
#define POLLUX_SERVICE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "sim/checkpoint.h"

namespace pollux {
namespace service {

inline constexpr uint32_t kFrameMagic = 0x444C5850u;  // "PLXD"
inline constexpr uint32_t kProtocolVersion = 1;
// Frame header bytes before the payload (magic + type + length).
inline constexpr size_t kFrameHeaderSize = 4 + 4 + 8;
inline constexpr size_t kFrameTrailerSize = 4;  // CRC-32.
// Default ceiling on one frame's payload. A report batch for thousands of
// agents fits comfortably; anything larger is a hostile or broken client.
inline constexpr size_t kDefaultMaxFrameBytes = size_t{4} << 20;

enum MsgType : uint32_t {
  // Requests.
  kMsgHello = 1,         // u32 protocol version
  kMsgCreateTenant = 2,  // u64 tenant, TenantSetup (see tenant.h codec)
  kMsgSubmitJob = 3,     // u64 tenant, AgentReport, f64 gpu_time
  kMsgCancelJob = 4,     // u64 tenant, u64 job_id
  kMsgReport = 5,        // u64 tenant, u64 n, n x SchedJobReport
  kMsgRunRound = 6,      // u64 tenant, u64 round index
  kMsgStats = 7,         // u64 tenant (0 = daemon-wide)
  kMsgPing = 8,          // empty
  // Responses.
  kMsgAck = 100,         // u64 value (context-dependent, e.g. accepted count)
  kMsgNack = 101,        // u32 NackReason, string detail — retryable
  kMsgError = 102,       // u32 ErrCode, string detail — not retryable
  kMsgDecisions = 103,   // u64 round, u32 flags, f64 utility, u64 n, n x (u64 job, IntVec row)
  kMsgStatsReply = 104,  // u64 n, n x (string key, u64 value)
  kMsgPong = 105,        // empty
  kMsgHelloOk = 106,     // u32 protocol version
};

// kMsgDecisions flags.
inline constexpr uint32_t kDecisionDegraded = 1u << 0;  // degraded or fallback round
inline constexpr uint32_t kDecisionCached = 1u << 1;    // replay of an executed round

// Retryable push-back: the client backs off and resends the same request.
enum NackReason : uint32_t {
  kNackQueueFull = 1,  // tenant ingest queue at capacity (overload shed)
  kNackDraining = 2,   // daemon is draining for shutdown
};

// Non-retryable request failures. The kErrBad* family mirrors FrameStatus:
// it is sent (best-effort) before the daemon closes a connection whose byte
// stream desynchronized.
enum ErrCode : uint32_t {
  kErrMalformedPayload = 1,
  kErrUnknownType = 2,
  kErrUnknownTenant = 3,
  kErrTenantMismatch = 4,  // CreateTenant with a different shape than exists
  kErrBadRound = 5,        // RunRound index not next and not last-executed
  kErrUnknownJob = 6,
  kErrVersionMismatch = 7,
  kErrBadMagic = 8,
  kErrBadCrc = 9,
  kErrOversized = 10,
};

const char* MsgTypeName(MsgType type);
const char* ErrCodeName(ErrCode code);
const char* NackReasonName(NackReason reason);

// One decoded frame. `payload` is a copy (the connection buffer it came from
// is consumed immediately after decoding).
struct Frame {
  uint32_t type = 0;
  std::string payload;
};

enum class FrameStatus {
  kOk = 0,
  kNeedMore,    // prefix of a valid frame; wait for more bytes
  kBadMagic,    // first four bytes are not "PLXD"
  kOversized,   // declared payload length exceeds the decoder's limit
  kBadCrc,      // framing intact but the CRC check failed (bit flip)
};

const char* FrameStatusName(FrameStatus status);

// Serializes one frame (header + payload + CRC).
std::string EncodeFrame(uint32_t type, const std::string& payload);

// Attempts to decode one frame from the front of `buffer`. On kOk fills
// `frame` and sets `consumed` to the frame's full size; on kNeedMore both
// outputs are untouched; on any error `consumed` is 0 and the caller must
// treat the stream as unsynchronized (there is no reliable resync point in a
// length-prefixed protocol).
FrameStatus DecodeFrame(const std::string& buffer, size_t max_payload, Frame* frame,
                        size_t* consumed);

// Payload helpers for the fixed-shape messages.
std::string EncodeError(ErrCode code, const std::string& detail);
std::string EncodeNack(NackReason reason, const std::string& detail);
bool DecodeErrorPayload(const std::string& payload, uint32_t* code, std::string* detail);

// kMsgStatsReply payload field list: counter name -> value, in name order.
template <class Io>
void StatsFields(Io& io, std::map<std::string, uint64_t>& stats) {
  io.Map(stats, uint64_t{1} << 16, [](auto& map_io, std::string& name, uint64_t& value) {
    map_io.Str(name);
    map_io.U64(value);
  });
}

}  // namespace service
}  // namespace pollux

#endif  // POLLUX_SERVICE_WIRE_H_
