#include "service/client.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

namespace pollux {
namespace service {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ScheddClient::ScheddClient(ScheddClientOptions options)
    : options_(std::move(options)), jitter_(options_.jitter_seed) {}

ScheddClient::~ScheddClient() { Disconnect(); }

void ScheddClient::Disconnect() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  inbuf_.clear();
}

bool ScheddClient::Connect(std::string* error) {
  Disconnect();
  sockaddr_un addr{};
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    if (error) *error = "socket path too long";
    return false;
  }
  fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    if (error) *error = std::string("socket: ") + strerror(errno);
    return false;
  }
  addr.sun_family = AF_UNIX;
  memcpy(addr.sun_path, options_.socket_path.c_str(), options_.socket_path.size());
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error) *error = "connect " + options_.socket_path + ": " + strerror(errno);
    Disconnect();
    return false;
  }
  // Version handshake.
  BinWriter hello;
  hello.PutU32(kProtocolVersion);
  if (!SendAll(EncodeFrame(kMsgHello, hello.str()), error)) {
    Disconnect();
    return false;
  }
  Frame frame;
  if (!ReadFrame(NowSeconds() + options_.request_timeout, &frame, error)) {
    Disconnect();
    return false;
  }
  if (frame.type != kMsgHelloOk) {
    uint32_t code = 0;
    std::string detail;
    if (frame.type == kMsgError && DecodeErrorPayload(frame.payload, &code, &detail)) {
      if (error) *error = "handshake refused: " + detail;
    } else if (error) {
      *error = "unexpected handshake reply type " + std::to_string(frame.type);
    }
    Disconnect();
    return false;
  }
  return true;
}

bool ScheddClient::SendAll(const std::string& bytes, std::string* error) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t sent =
        send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (sent > 0) {
      off += static_cast<size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    if (error) *error = std::string("send: ") + strerror(errno);
    return false;
  }
  return true;
}

bool ScheddClient::ReadFrame(double deadline, Frame* frame, std::string* error) {
  for (;;) {
    size_t consumed = 0;
    const FrameStatus status =
        DecodeFrame(inbuf_, kDefaultMaxFrameBytes, frame, &consumed);
    if (status == FrameStatus::kOk) {
      inbuf_.erase(0, consumed);
      return true;
    }
    if (status != FrameStatus::kNeedMore) {
      if (error) *error = std::string("response framing: ") + FrameStatusName(status);
      return false;
    }
    const double remaining = deadline - NowSeconds();
    if (remaining <= 0) {
      if (error) *error = "deadline exceeded";
      return false;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int timeout_ms =
        static_cast<int>(std::min(remaining * 1000.0, 3600.0 * 1000.0)) + 1;
    const int ready = poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      if (error) *error = std::string("poll: ") + strerror(errno);
      return false;
    }
    if (ready == 0) {
      if (error) *error = "deadline exceeded";
      return false;
    }
    char buf[65536];
    const ssize_t got = recv(fd_, buf, sizeof(buf), 0);
    if (got > 0) {
      inbuf_.append(buf, static_cast<size_t>(got));
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    if (error) *error = got == 0 ? "connection closed" : std::string("recv: ") + strerror(errno);
    return false;
  }
}

void ScheddClient::BackoffSleep(int attempt, double deadline) {
  double wait = options_.backoff_initial;
  for (int i = 0; i < attempt && wait < options_.backoff_max; ++i) wait *= 2.0;
  wait = std::min(wait, options_.backoff_max);
  wait *= jitter_.Uniform(0.5, 1.0);
  wait = std::min(wait, std::max(0.0, deadline - NowSeconds()));
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

bool ScheddClient::Request(uint32_t type, const std::string& payload, uint32_t* reply_type,
                           std::string* reply_payload, std::string* error) {
  ++stats_.requests;
  const double deadline = NowSeconds() + options_.request_timeout;
  std::string last_error = "not connected";
  for (int attempt = 0;; ++attempt) {
    if (NowSeconds() >= deadline) {
      ++stats_.timeouts;
      if (error) *error = "deadline exceeded (" + last_error + ")";
      return false;
    }
    if (attempt > 0) ++stats_.retries;
    if (fd_ < 0) {
      if (!Connect(&last_error)) {
        BackoffSleep(attempt, deadline);
        continue;
      }
      if (attempt > 0) ++stats_.reconnects;
    }
    Frame frame;
    if (!SendAll(EncodeFrame(type, payload), &last_error) ||
        !ReadFrame(deadline, &frame, &last_error)) {
      // A torn exchange: the daemon may or may not have applied the request,
      // but every request is idempotent, so reconnect and resend.
      Disconnect();
      BackoffSleep(attempt, deadline);
      continue;
    }
    if (frame.type == kMsgNack) {
      ++stats_.nacks;
      uint32_t reason = 0;
      std::string detail;
      DecodeErrorPayload(frame.payload, &reason, &detail);
      last_error = "nack: " + detail;
      BackoffSleep(attempt, deadline);
      continue;
    }
    *reply_type = frame.type;
    *reply_payload = std::move(frame.payload);
    return true;
  }
}

bool ScheddClient::ExpectAck(uint32_t type, const std::string& payload, uint64_t* value,
                             std::string* error) {
  uint32_t reply_type = 0;
  std::string reply_payload;
  if (!Request(type, payload, &reply_type, &reply_payload, error)) return false;
  if (reply_type == kMsgError) {
    uint32_t code = 0;
    std::string detail;
    DecodeErrorPayload(reply_payload, &code, &detail);
    if (error) {
      *error = std::string(ErrCodeName(static_cast<ErrCode>(code))) + ": " + detail;
    }
    return false;
  }
  if (reply_type != kMsgAck) {
    if (error) *error = "unexpected reply type " + std::to_string(reply_type);
    return false;
  }
  BinReader in(reply_payload);
  const uint64_t got = in.GetU64();
  if (value) *value = got;
  return true;
}

bool ScheddClient::CreateTenant(const TenantSetup& setup, std::string* error) {
  BinWriter out;
  out.PutU64(setup.tenant_id);
  PutTenantSetup(out, setup);
  return ExpectAck(kMsgCreateTenant, out.str(), nullptr, error);
}

bool ScheddClient::SubmitJob(uint64_t tenant_id, const AgentReport& agent, double gpu_time,
                             std::string* error) {
  BinWriter out;
  out.PutU64(tenant_id);
  out.Put(agent);
  out.PutDouble(gpu_time);
  return ExpectAck(kMsgSubmitJob, out.str(), nullptr, error);
}

bool ScheddClient::CancelJob(uint64_t tenant_id, uint64_t job_id, std::string* error) {
  BinWriter out;
  out.PutU64(tenant_id);
  out.PutU64(job_id);
  return ExpectAck(kMsgCancelJob, out.str(), nullptr, error);
}

bool ScheddClient::Report(uint64_t tenant_id, const std::vector<SchedJobReport>& reports,
                          uint64_t* accepted, std::string* error) {
  BinWriter out;
  out.PutU64(tenant_id);
  out.PutU64(reports.size());
  for (const auto& report : reports) out.Put(report);
  return ExpectAck(kMsgReport, out.str(), accepted, error);
}

bool ScheddClient::RunRound(uint64_t tenant_id, uint64_t round, RoundDecisions* decisions,
                            std::string* error) {
  BinWriter out;
  out.PutU64(tenant_id);
  out.PutU64(round);
  uint32_t reply_type = 0;
  std::string reply_payload;
  if (!Request(kMsgRunRound, out.str(), &reply_type, &reply_payload, error)) return false;
  if (reply_type == kMsgError) {
    uint32_t code = 0;
    std::string detail;
    DecodeErrorPayload(reply_payload, &code, &detail);
    if (error) {
      *error = std::string(ErrCodeName(static_cast<ErrCode>(code))) + ": " + detail;
    }
    return false;
  }
  if (reply_type != kMsgDecisions || !DecodeDecisionsPayload(reply_payload, decisions)) {
    if (error) *error = "malformed decisions reply";
    return false;
  }
  return true;
}

bool ScheddClient::Stats(std::map<std::string, uint64_t>* stats, std::string* error) {
  uint32_t reply_type = 0;
  std::string reply_payload;
  if (!Request(kMsgStats, "", &reply_type, &reply_payload, error)) return false;
  if (reply_type != kMsgStatsReply) {
    if (error) *error = "unexpected reply type " + std::to_string(reply_type);
    return false;
  }
  BinReader in(reply_payload);
  StatsFields(in, *stats);
  if (!in.ok()) {
    if (error) *error = "malformed stats reply";
    return false;
  }
  return true;
}

bool ScheddClient::Ping(std::string* error) {
  uint32_t reply_type = 0;
  std::string reply_payload;
  if (!Request(kMsgPing, "", &reply_type, &reply_payload, error)) return false;
  if (reply_type != kMsgPong) {
    if (error) *error = "unexpected reply type " + std::to_string(reply_type);
    return false;
  }
  return true;
}

ScheddClient::RawReply ScheddClient::Call(uint32_t type, const std::string& payload) {
  RawReply reply;
  if (fd_ < 0 && !Connect(&reply.error)) return reply;
  if (!SendAll(EncodeFrame(type, payload), &reply.error)) return reply;
  Frame frame;
  if (!ReadFrame(NowSeconds() + options_.request_timeout, &frame, &reply.error)) {
    return reply;
  }
  reply.ok = true;
  reply.type = frame.type;
  reply.payload = std::move(frame.payload);
  return reply;
}

}  // namespace service
}  // namespace pollux
