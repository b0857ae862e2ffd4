#include "service/wire.h"

#include <utility>

namespace pollux {
namespace service {

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case kMsgHello: return "hello";
    case kMsgCreateTenant: return "create_tenant";
    case kMsgSubmitJob: return "submit_job";
    case kMsgCancelJob: return "cancel_job";
    case kMsgReport: return "report";
    case kMsgRunRound: return "run_round";
    case kMsgStats: return "stats";
    case kMsgPing: return "ping";
    case kMsgAck: return "ack";
    case kMsgNack: return "nack";
    case kMsgError: return "error";
    case kMsgDecisions: return "decisions";
    case kMsgStatsReply: return "stats_reply";
    case kMsgPong: return "pong";
    case kMsgHelloOk: return "hello_ok";
  }
  return "unknown";
}

const char* ErrCodeName(ErrCode code) {
  switch (code) {
    case kErrMalformedPayload: return "malformed_payload";
    case kErrUnknownType: return "unknown_type";
    case kErrUnknownTenant: return "unknown_tenant";
    case kErrTenantMismatch: return "tenant_mismatch";
    case kErrBadRound: return "bad_round";
    case kErrUnknownJob: return "unknown_job";
    case kErrVersionMismatch: return "version_mismatch";
    case kErrBadMagic: return "bad_magic";
    case kErrBadCrc: return "bad_crc";
    case kErrOversized: return "oversized";
  }
  return "unknown";
}

const char* NackReasonName(NackReason reason) {
  switch (reason) {
    case kNackQueueFull: return "queue_full";
    case kNackDraining: return "draining";
  }
  return "unknown";
}

const char* FrameStatusName(FrameStatus status) {
  switch (status) {
    case FrameStatus::kOk: return "ok";
    case FrameStatus::kNeedMore: return "need_more";
    case FrameStatus::kBadMagic: return "bad_magic";
    case FrameStatus::kOversized: return "oversized";
    case FrameStatus::kBadCrc: return "bad_crc";
  }
  return "unknown";
}

std::string EncodeFrame(uint32_t type, const std::string& payload) {
  BinWriter out;
  out.Reserve(kFrameHeaderSize + payload.size() + kFrameTrailerSize);
  out.PutU32(kFrameMagic);
  out.PutU32(type);
  out.PutString(payload);  // u64 length, then the payload bytes.
  // CRC covers everything after the magic: type, length, payload. The magic
  // is excluded so a deliberate CRC flip in tests cannot be "fixed" by also
  // flipping magic bytes into a colliding value.
  const std::string& frame = out.str();
  out.PutU32(Crc32(frame.data() + 4, frame.size() - 4));
  return std::move(out).str();
}

FrameStatus DecodeFrame(const std::string& buffer, size_t max_payload, Frame* frame,
                        size_t* consumed) {
  *consumed = 0;
  BinReader in(buffer);
  // Reject bad magic as soon as the first four bytes are in: a garbage
  // stream must not be able to stall a connection by never completing a
  // "frame" whose declared length is nonsense.
  const uint32_t magic = in.GetU32();
  if (in.ok() && magic != kFrameMagic) {
    return FrameStatus::kBadMagic;
  }
  const uint32_t type = in.GetU32();
  const uint64_t length = in.GetU64();
  if (!in.ok()) {
    return FrameStatus::kNeedMore;
  }
  if (length > max_payload) {
    return FrameStatus::kOversized;
  }
  in.Skip(length);
  const uint32_t declared_crc = in.GetU32();
  if (!in.ok()) {
    return FrameStatus::kNeedMore;
  }
  const size_t total = kFrameHeaderSize + static_cast<size_t>(length) + kFrameTrailerSize;
  if (declared_crc != Crc32(buffer.data() + 4, total - kFrameTrailerSize - 4)) {
    return FrameStatus::kBadCrc;
  }
  frame->type = type;
  frame->payload.assign(buffer.data() + kFrameHeaderSize, static_cast<size_t>(length));
  *consumed = total;
  return FrameStatus::kOk;
}

std::string EncodeError(ErrCode code, const std::string& detail) {
  BinWriter out;
  out.PutU32(code);
  out.PutString(detail);
  return std::move(out).str();
}

std::string EncodeNack(NackReason reason, const std::string& detail) {
  BinWriter out;
  out.PutU32(reason);
  out.PutString(detail);
  return std::move(out).str();
}

bool DecodeErrorPayload(const std::string& payload, uint32_t* code, std::string* detail) {
  BinReader in(payload);
  *code = in.GetU32();
  *detail = in.GetString();
  return in.ok();
}

}  // namespace service
}  // namespace pollux
