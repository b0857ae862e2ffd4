// Live-daemon tests for pollux_schedd (service/daemon.h): client lifecycle
// end-to-end over a real Unix socket, hostile byte streams that must close
// one connection but never the daemon, malformed payloads that must not even
// close the connection, drain-mode NACK push-back, and the crash-tolerance
// contract (abrupt Stop + restart from checkpoints replays identical
// decisions).

#include <gtest/gtest.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <thread>
#include <memory>
#include <string>
#include <vector>

#include "core/goodput.h"
#include "obs/metrics.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/tenant.h"
#include "service/wire.h"

namespace pollux {
namespace service {
namespace {

AgentReport MakeAgent(uint64_t job_id, double phi = 1000.0) {
  ThroughputParams params;
  params.alpha_grad = 0.05;
  params.beta_grad = 2e-4;
  params.alpha_sync_local = 0.03;
  params.beta_sync_local = 0.002;
  params.alpha_sync_node = 0.1;
  params.beta_sync_node = 0.005;
  params.gamma = 2.0;
  AgentReport agent;
  agent.job_id = job_id;
  agent.model = GoodputModel(params, phi, 128);
  agent.limits.min_batch = 128;
  agent.limits.max_batch_total = 16384;
  agent.limits.max_batch_per_gpu = 1024;
  agent.max_gpus_cap = 8;
  return agent;
}

SchedJobReport MakeReport(uint64_t job_id, uint64_t seq, double phi = 1000.0) {
  SchedJobReport report;
  report.agent = MakeAgent(job_id, phi);
  report.gpu_time = static_cast<double>(seq) * 120.0;
  report.report_age = 0.0;
  report.seq = seq;
  return report;
}

TenantSetup MakeSetup(uint64_t tenant_id) {
  TenantSetup setup;
  setup.tenant_id = tenant_id;
  setup.cluster.gpus_per_node.assign(4, 4);
  setup.sched.ga.population_size = 16;
  setup.sched.ga.generations = 8;
  setup.sched.ga.seed = 7;
  setup.sched.mode = SchedMode::kIncremental;
  return setup;
}

// A fresh short socket path per test (sun_path is only ~100 bytes).
std::string SocketPath(const char* tag) {
  return "/tmp/plxd_t_" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

struct DaemonUnderTest {
  explicit DaemonUnderTest(ScheddOptions options)
      : daemon(std::make_unique<ScheddDaemon>(options)) {
    std::string error;
    started = daemon->Start(&error);
    EXPECT_TRUE(started) << error;
  }
  ~DaemonUnderTest() {
    if (started) {
      daemon->Stop();
      daemon->Wait();
    }
  }
  std::unique_ptr<ScheddDaemon> daemon;
  bool started = false;
};

ScheddClientOptions ClientOptions(const std::string& socket_path) {
  ScheddClientOptions options;
  options.socket_path = socket_path;
  options.request_timeout = 10.0;
  options.backoff_initial = 0.005;
  options.backoff_max = 0.05;
  return options;
}

// Raw byte-level access for hostile-input tests: no framing, no handshake.
class RawConn {
 public:
  explicit RawConn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool ok() const { return fd_ >= 0; }

  bool Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, 0);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads until one frame decodes. Sets *eof when the daemon closed the
  // connection after (or instead of) the frame.
  bool ReadFrame(Frame* frame, bool* eof, int timeout_ms = 5000) {
    *eof = false;
    bool got = false;
    for (;;) {
      if (!got) {
        size_t consumed = 0;
        const FrameStatus status =
            DecodeFrame(inbuf_, kDefaultMaxFrameBytes, frame, &consumed);
        if (status == FrameStatus::kOk) {
          inbuf_.erase(0, consumed);
          got = true;
          if (*eof) return true;  // already saw the close
        } else if (status != FrameStatus::kNeedMore) {
          return false;
        }
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, got ? 200 : timeout_ms);
      if (ready <= 0) return got;  // timeout: report what we have
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) {
        *eof = true;
        return got;
      }
      inbuf_.append(buf, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string inbuf_;
};

void ExpectErrorReply(RawConn& conn, const std::string& bytes, ErrCode want,
                      bool want_eof) {
  ASSERT_TRUE(conn.Send(bytes));
  Frame frame;
  bool eof = false;
  ASSERT_TRUE(conn.ReadFrame(&frame, &eof));
  EXPECT_EQ(frame.type, static_cast<uint32_t>(kMsgError));
  uint32_t code = 0;
  std::string detail;
  ASSERT_TRUE(DecodeErrorPayload(frame.payload, &code, &detail));
  EXPECT_EQ(code, static_cast<uint32_t>(want)) << ErrCodeName(static_cast<ErrCode>(code));
  if (want_eof) {
    // The daemon must hang up after a framing failure (the stream can no
    // longer be trusted to be frame-aligned).
    Frame ignored;
    conn.ReadFrame(&ignored, &eof, 2000);
    EXPECT_TRUE(eof);
  }
}

uint32_t RawErrCode(const ScheddClient::RawReply& reply) {
  uint32_t code = 0;
  std::string detail;
  if (!DecodeErrorPayload(reply.payload, &code, &detail)) return 0;
  return code;
}

TEST(ScheddDaemonTest, EndToEndLifecycle) {
  const std::string socket_path = SocketPath("e2e");
  ScheddOptions options;
  options.socket_path = socket_path;
  options.shards = 2;
  DaemonUnderTest daemon(options);
  ASSERT_TRUE(daemon.started);

  ScheddClient client(ClientOptions(socket_path));
  std::string error;
  ASSERT_TRUE(client.Connect(&error)) << error;
  EXPECT_TRUE(client.Ping(&error)) << error;

  const TenantSetup setup = MakeSetup(1);
  ASSERT_TRUE(client.CreateTenant(setup, &error)) << error;
  // Idempotent re-create with the identical shape is an ack...
  EXPECT_TRUE(client.CreateTenant(setup, &error)) << error;
  // ...but a different shape for the same id is refused.
  TenantSetup other = setup;
  other.cluster.gpus_per_node.assign(2, 8);
  EXPECT_FALSE(client.CreateTenant(other, &error));

  for (uint64_t job = 1; job <= 3; ++job) {
    ASSERT_TRUE(client.SubmitJob(1, MakeAgent(job, 900.0 + 50.0 * job), 0.0, &error))
        << error;
  }
  std::vector<SchedJobReport> batch;
  for (uint64_t job = 1; job <= 3; ++job) batch.push_back(MakeReport(job, 1));
  uint64_t accepted = 0;
  ASSERT_TRUE(client.Report(1, batch, &accepted, &error)) << error;
  EXPECT_EQ(accepted, 3u);

  RoundDecisions first;
  ASSERT_TRUE(client.RunRound(1, 0, &first, &error)) << error;
  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(PolluxSched::AllocationsFeasible(setup.cluster, first.rows));
  // Replaying the executed round returns the cached decisions verbatim.
  RoundDecisions replay;
  ASSERT_TRUE(client.RunRound(1, 0, &replay, &error)) << error;
  EXPECT_TRUE(replay.cached);
  EXPECT_EQ(replay.rows, first.rows);
  // A wild round index is a typed, non-retryable error.
  RoundDecisions bad;
  EXPECT_FALSE(client.RunRound(1, 7, &bad, &error));

  EXPECT_TRUE(client.CancelJob(1, 3, &error)) << error;
  EXPECT_FALSE(client.CancelJob(1, 99, &error));
  // Operations against a tenant that does not exist are typed errors too.
  EXPECT_FALSE(client.SubmitJob(77, MakeAgent(1), 0.0, &error));

  std::map<std::string, uint64_t> stats;
  ASSERT_TRUE(client.Stats(&stats, &error)) << error;
  EXPECT_EQ(stats["tenants"], 1u);
  EXPECT_EQ(stats["jobs"], 2u);
  EXPECT_EQ(stats["rounds"], 1u);
  EXPECT_GE(stats["errors"], 3u);
  EXPECT_EQ(stats["bad_frames"], 0u);
}

TEST(ScheddDaemonTest, HostileBytesCloseOnlyThatConnection) {
  const std::string socket_path = SocketPath("hostile");
  ScheddOptions options;
  options.socket_path = socket_path;
  options.shards = 1;
  options.max_frame_bytes = 1 << 16;
  DaemonUnderTest daemon(options);
  ASSERT_TRUE(daemon.started);

  // Garbage from byte zero: bad magic, typed error, hangup.
  {
    RawConn conn(socket_path);
    ASSERT_TRUE(conn.ok());
    ExpectErrorReply(conn, std::string(64, 'X'), kErrBadMagic, /*want_eof=*/true);
  }
  // A bit flip inside an otherwise valid frame: CRC error, hangup.
  {
    RawConn conn(socket_path);
    ASSERT_TRUE(conn.ok());
    std::string bytes = EncodeFrame(kMsgPing, "");
    bytes[5] ^= 0x10;  // type field; magic stays intact
    ExpectErrorReply(conn, bytes, kErrBadCrc, /*want_eof=*/true);
  }
  // A header declaring a payload beyond the daemon's cap: oversized, hangup,
  // and the daemon never waits for (or buffers) the declared gigabyte.
  {
    RawConn conn(socket_path);
    ASSERT_TRUE(conn.ok());
    BinWriter header;
    header.PutU32(kFrameMagic);
    header.PutU32(kMsgPing);
    header.PutU64(uint64_t{1} << 30);
    ExpectErrorReply(conn, header.str(), kErrOversized, /*want_eof=*/true);
  }
  // After all that abuse the daemon still serves fresh connections.
  ScheddClient client(ClientOptions(socket_path));
  std::string error;
  ASSERT_TRUE(client.Connect(&error)) << error;
  EXPECT_TRUE(client.Ping(&error)) << error;
  const ScheddStats stats = daemon.daemon->Stats();
  EXPECT_EQ(stats.bad_frames, 3u);
  EXPECT_GE(stats.conns_closed, 3u);
}

TEST(ScheddDaemonTest, MalformedPayloadsKeepTheConnection) {
  const std::string socket_path = SocketPath("malformed");
  ScheddOptions options;
  options.socket_path = socket_path;
  options.shards = 1;
  DaemonUnderTest daemon(options);
  ASSERT_TRUE(daemon.started);

  ScheddClient client(ClientOptions(socket_path));
  std::string error;
  ASSERT_TRUE(client.Connect(&error)) << error;

  // Valid frame, garbage payload: per-request error, connection survives.
  auto reply = client.Call(kMsgSubmitJob, "ab");
  ASSERT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(reply.type, static_cast<uint32_t>(kMsgError));
  EXPECT_EQ(RawErrCode(reply), static_cast<uint32_t>(kErrMalformedPayload));

  // A tenant id followed by truncated setup bytes: still only a request error.
  {
    BinWriter out;
    out.PutU64(1);
    out.PutU32(999);
    reply = client.Call(kMsgCreateTenant, out.str());
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_EQ(reply.type, static_cast<uint32_t>(kMsgError));
    EXPECT_EQ(RawErrCode(reply), static_cast<uint32_t>(kErrMalformedPayload));
  }
  // CRC-valid frames whose job telemetry carries NaN or infinity: a typed
  // error, and the tenant never sees the values.
  ASSERT_TRUE(client.CreateTenant(MakeSetup(1), &error)) << error;
  {
    AgentReport agent = MakeAgent(1, std::numeric_limits<double>::quiet_NaN());
    BinWriter out;
    out.PutU64(1);
    out.Put(agent);
    out.PutDouble(0.0);
    reply = client.Call(kMsgSubmitJob, out.str());
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_EQ(RawErrCode(reply), static_cast<uint32_t>(kErrMalformedPayload));
  }
  for (double gpu_time : {std::numeric_limits<double>::quiet_NaN(),
                          -std::numeric_limits<double>::infinity()}) {
    BinWriter out;
    out.PutU64(1);
    out.Put(MakeAgent(1));
    out.PutDouble(gpu_time);
    reply = client.Call(kMsgSubmitJob, out.str());
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_EQ(RawErrCode(reply), static_cast<uint32_t>(kErrMalformedPayload));
  }
  EXPECT_EQ(daemon.daemon->Stats().jobs, 0u);
  ASSERT_TRUE(client.SubmitJob(1, MakeAgent(1), 0.0, &error)) << error;
  {
    SchedJobReport report = MakeReport(1, 1);
    report.report_age = std::numeric_limits<double>::infinity();
    BinWriter out;
    out.PutU64(1);
    out.PutU64(1);
    out.Put(report);
    reply = client.Call(kMsgReport, out.str());
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_EQ(RawErrCode(reply), static_cast<uint32_t>(kErrMalformedPayload));
  }

  // Unknown message type: typed error, connection survives.
  reply = client.Call(999, "");
  ASSERT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(RawErrCode(reply), static_cast<uint32_t>(kErrUnknownType));

  // A hello with the wrong protocol version is refused with a version error.
  {
    BinWriter out;
    out.PutU32(kProtocolVersion + 41);
    reply = client.Call(kMsgHello, out.str());
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_EQ(RawErrCode(reply), static_cast<uint32_t>(kErrVersionMismatch));
  }

  // Same connection, still healthy.
  EXPECT_TRUE(client.Ping(&error)) << error;
  const ScheddStats stats = daemon.daemon->Stats();
  EXPECT_GE(stats.malformed, 6u);
  EXPECT_EQ(stats.bad_frames, 0u);
}

TEST(ScheddDaemonTest, DrainNacksTenantWorkButAnswersPing) {
  const std::string socket_path = SocketPath("drain");
  ScheddOptions options;
  options.socket_path = socket_path;
  options.shards = 1;
  DaemonUnderTest daemon(options);
  ASSERT_TRUE(daemon.started);

  ScheddClient client(ClientOptions(socket_path));
  std::string error;
  ASSERT_TRUE(client.Connect(&error)) << error;
  ASSERT_TRUE(client.CreateTenant(MakeSetup(1), &error)) << error;

  daemon.daemon->RequestDrain();
  ASSERT_TRUE(daemon.daemon->draining());

  // Tenant-scoped work now draws a retryable NACK(draining)...
  BinWriter out;
  out.PutU64(1);
  out.Put(MakeAgent(5));
  out.PutDouble(0.0);
  auto reply = client.Call(kMsgSubmitJob, out.str());
  ASSERT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(reply.type, static_cast<uint32_t>(kMsgNack));
  EXPECT_EQ(RawErrCode(reply), static_cast<uint32_t>(kNackDraining));
  // ...while connection-level liveness checks still answer.
  EXPECT_TRUE(client.Ping(&error)) << error;
  EXPECT_GE(daemon.daemon->Stats().drain_nacks, 1u);
}

TEST(ScheddDaemonTest, AbruptStopThenRestartReplaysIdenticalDecisions) {
  const std::string socket_path = SocketPath("restart");
  const auto checkpoint_dir =
      std::filesystem::temp_directory_path() / "pollux_daemon_test_restart";
  std::filesystem::remove_all(checkpoint_dir);

  ScheddOptions options;
  options.socket_path = socket_path;
  options.shards = 2;
  options.checkpoint_dir = checkpoint_dir.string();
  options.checkpoint_every_rounds = 1;
  options.checkpoint_keep = 2;

  std::vector<RoundDecisions> history;
  {
    DaemonUnderTest daemon(options);
    ASSERT_TRUE(daemon.started);
    ScheddClient client(ClientOptions(socket_path));
    std::string error;
    ASSERT_TRUE(client.Connect(&error)) << error;
    ASSERT_TRUE(client.CreateTenant(MakeSetup(1), &error)) << error;
    for (uint64_t job = 1; job <= 4; ++job) {
      ASSERT_TRUE(client.SubmitJob(1, MakeAgent(job, 800.0 + 100.0 * job), 0.0, &error))
          << error;
    }
    for (uint64_t round = 0; round < 3; ++round) {
      std::vector<SchedJobReport> batch;
      for (uint64_t job = 1; job <= 4; ++job) {
        batch.push_back(MakeReport(job, round + 1, 800.0 + 100.0 * job));
      }
      uint64_t accepted = 0;
      ASSERT_TRUE(client.Report(1, batch, &accepted, &error)) << error;
      RoundDecisions decisions;
      ASSERT_TRUE(client.RunRound(1, round, &decisions, &error)) << error;
      history.push_back(decisions);
    }
    EXPECT_GE(daemon.daemon->Stats().checkpoints, 3u);
    // DaemonUnderTest's destructor calls Stop(): the kill -9 analogue — no
    // drain, no final checkpoint, queued work dropped.
  }

  {
    DaemonUnderTest daemon(options);
    ASSERT_TRUE(daemon.started);
    EXPECT_EQ(daemon.daemon->Stats().restored, 1u);
    ScheddClient client(ClientOptions(socket_path));
    std::string error;
    ASSERT_TRUE(client.Connect(&error)) << error;
    // The restored daemon replays the last executed round from cache,
    // byte-equal to what the first incarnation answered.
    RoundDecisions replay;
    ASSERT_TRUE(client.RunRound(1, 2, &replay, &error)) << error;
    EXPECT_TRUE(replay.cached);
    EXPECT_EQ(replay.rows, history[2].rows);
    // And the next round proceeds from the restored state.
    std::vector<SchedJobReport> batch;
    for (uint64_t job = 1; job <= 4; ++job) {
      batch.push_back(MakeReport(job, 4, 800.0 + 100.0 * job));
    }
    uint64_t accepted = 0;
    ASSERT_TRUE(client.Report(1, batch, &accepted, &error)) << error;
    RoundDecisions next;
    ASSERT_TRUE(client.RunRound(1, 3, &next, &error)) << error;
    EXPECT_FALSE(next.cached);
    EXPECT_TRUE(PolluxSched::AllocationsFeasible(MakeSetup(1).cluster, next.rows));
  }
  std::filesystem::remove_all(checkpoint_dir);
}

// Runs three rounds of a four-job tenant against a daemon that checkpoints
// after every round and returns the bytes of each snapshot it kept, in round
// order.
std::vector<std::string> CheckpointedRun(const char* tag, uint64_t* checkpoints) {
  const std::string socket_path = SocketPath(tag);
  const auto checkpoint_dir = std::filesystem::temp_directory_path() / tag;
  std::filesystem::remove_all(checkpoint_dir);
  ScheddOptions options;
  options.socket_path = socket_path;
  options.checkpoint_dir = checkpoint_dir.string();
  options.checkpoint_every_rounds = 1;
  options.checkpoint_keep = 3;
  {
    DaemonUnderTest daemon(options);
    EXPECT_TRUE(daemon.started);
    ScheddClient client(ClientOptions(socket_path));
    std::string error;
    EXPECT_TRUE(client.Connect(&error)) << error;
    EXPECT_TRUE(client.CreateTenant(MakeSetup(1), &error)) << error;
    for (uint64_t job = 1; job <= 4; ++job) {
      EXPECT_TRUE(client.SubmitJob(1, MakeAgent(job, 800.0 + 100.0 * job), 0.0, &error))
          << error;
    }
    for (uint64_t round = 0; round < 3; ++round) {
      std::vector<SchedJobReport> batch;
      for (uint64_t job = 1; job <= 4; ++job) {
        batch.push_back(MakeReport(job, round + 1, 800.0 + 100.0 * job));
      }
      uint64_t accepted = 0;
      EXPECT_TRUE(client.Report(1, batch, &accepted, &error)) << error;
      RoundDecisions decisions;
      EXPECT_TRUE(client.RunRound(1, round, &decisions, &error)) << error;
    }
    *checkpoints = daemon.daemon->Stats().checkpoints;
  }
  std::vector<std::string> snapshots;
  for (const std::string& file : ListSnapshotFiles((checkpoint_dir / "tenant-1").string())) {
    std::ifstream in(file, std::ios::binary);
    snapshots.emplace_back(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  std::filesystem::remove_all(checkpoint_dir);
  return snapshots;
}

// schedd.checkpoint.seconds times every per-round checkpoint when metrics are
// on, and turning metrics on leaves the checkpoint bytes as they were.
TEST(ScheddDaemonTest, CheckpointHistogramLeavesSnapshotBytesUnchanged) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  registry.SetEnabled(false);
  uint64_t plain_checkpoints = 0;
  const std::vector<std::string> plain = CheckpointedRun("plxd_ckpt_plain", &plain_checkpoints);
  obs::Histogram* seconds = registry.GetHistogram("schedd.checkpoint.seconds");
  EXPECT_EQ(seconds->count(), 0u);

  registry.SetEnabled(true);
  uint64_t timed_checkpoints = 0;
  const std::vector<std::string> timed = CheckpointedRun("plxd_ckpt_timed", &timed_checkpoints);
  registry.SetEnabled(false);

  EXPECT_EQ(plain_checkpoints, 3u);
  EXPECT_EQ(timed_checkpoints, 3u);
  EXPECT_EQ(seconds->count(), timed_checkpoints);
  EXPECT_GT(seconds->sum(), 0.0);
  ASSERT_EQ(plain.size(), 3u);
  EXPECT_EQ(timed, plain);
  registry.Reset();
}

TEST(ScheddDaemonTest, OverloadShedsWithQueueCapOne) {
  const std::string socket_path = SocketPath("shed");
  ScheddOptions options;
  options.socket_path = socket_path;
  options.shards = 1;
  options.ingest_queue_cap = 1;
  DaemonUnderTest daemon(options);
  ASSERT_TRUE(daemon.started);

  ScheddClient leader(ClientOptions(socket_path));
  std::string error;
  ASSERT_TRUE(leader.Connect(&error)) << error;
  ASSERT_TRUE(leader.CreateTenant(MakeSetup(1), &error)) << error;
  for (uint64_t job = 1; job <= 8; ++job) {
    ASSERT_TRUE(leader.SubmitJob(1, MakeAgent(job), 0.0, &error)) << error;
  }

  // Hammer the tenant from several connections at once. With a queue cap of
  // one, concurrent reports must shed — yet every client eventually succeeds
  // through NACK backoff, so overload degrades throughput, not correctness.
  constexpr int kClients = 6;
  constexpr int kReportsPerClient = 10;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ScheddClientOptions client_options = ClientOptions(socket_path);
      client_options.jitter_seed = static_cast<uint64_t>(c) + 1;
      ScheddClient client(client_options);
      std::string thread_error;
      if (!client.Connect(&thread_error)) {
        ++failures;
        return;
      }
      for (int r = 0; r < kReportsPerClient; ++r) {
        std::vector<SchedJobReport> batch;
        for (uint64_t job = 1; job <= 8; ++job) {
          batch.push_back(MakeReport(job, static_cast<uint64_t>(r) + 1));
        }
        uint64_t accepted = 0;
        if (!client.Report(1, batch, &accepted, &thread_error)) ++failures;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  // The work all landed even if some of it was pushed back.
  std::map<std::string, uint64_t> stats;
  ASSERT_TRUE(leader.Stats(&stats, &error)) << error;
  EXPECT_EQ(stats["jobs"], 8u);
}

}  // namespace
}  // namespace service
}  // namespace pollux
