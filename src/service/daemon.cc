#include "service/daemon.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <utility>

#include "obs/metrics.h"

namespace pollux {
namespace service {
namespace {

// Cached instrument handles (obs/metrics.h pattern: resolve once, then every
// record is a relaxed atomic guarded by the registry's enabled flag).
struct ScheddObsMetrics {
  obs::Counter* frames;
  obs::Counter* bad_frames;
  obs::Counter* sheds;
  obs::Counter* nacks;
  obs::Counter* errors;
  obs::Counter* checkpoints;
  obs::Counter* slow_closed;
  obs::Gauge* queue_depth;
  obs::Histogram* round_seconds;
  obs::Histogram* ingest_seconds;
  obs::Histogram* checkpoint_seconds;
};

ScheddObsMetrics& ObsMetrics() {
  static ScheddObsMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    ScheddObsMetrics m;
    m.frames = registry.GetCounter("schedd.frames");
    m.bad_frames = registry.GetCounter("schedd.frames.bad");
    m.sheds = registry.GetCounter("schedd.shed");
    m.nacks = registry.GetCounter("schedd.nack");
    m.errors = registry.GetCounter("schedd.errors");
    m.checkpoints = registry.GetCounter("schedd.checkpoints");
    m.slow_closed = registry.GetCounter("schedd.conn.slow_closed");
    m.queue_depth = registry.GetGauge("schedd.queue.depth");
    m.round_seconds = registry.GetHistogram("schedd.round.seconds");
    m.ingest_seconds = registry.GetHistogram("schedd.ingest.seconds");
    m.checkpoint_seconds = registry.GetHistogram("schedd.checkpoint.seconds");
    return m;
  }();
  return metrics;
}

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Guard on decoded batch sizes; a frame already passed the payload cap, this
// only rejects nonsense counts that could not fit the payload anyway.
constexpr uint64_t kMaxBatch = uint64_t{1} << 20;

}  // namespace

// One client connection. The I/O thread owns fd/inbuf/broken; the outbox is
// shared with shard workers under out_mutex; the atomics let either side
// signal teardown without taking locks.
struct ScheddDaemon::Conn {
  uint64_t id = 0;
  int fd = -1;
  std::string inbuf;
  // Framing failure observed: remaining input is garbage, stop parsing.
  bool broken = false;

  std::mutex out_mutex;
  std::string outbuf;            // guarded by out_mutex
  bool close_after_flush = false;  // guarded by out_mutex

  std::atomic<bool> dead{false};   // removed from the poll set
  std::atomic<bool> kill{false};   // I/O thread must close (slow consumer)
  std::atomic<int> inflight{0};    // requests at a shard, response pending
};

struct ScheddDaemon::Request {
  std::shared_ptr<Conn> conn;
  Frame frame;
  uint64_t tenant_id = 0;
};

struct ScheddDaemon::Shard {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Request> queue;             // guarded by mutex
  std::map<uint64_t, size_t> pending;    // per-tenant queued count, guarded
  // Owned exclusively by this shard's worker thread once it starts (Start()
  // populates it from checkpoints before spawning).
  std::map<uint64_t, std::unique_ptr<TenantDomain>> tenants;
};

ScheddDaemon::ScheddDaemon(ScheddOptions options) : options_(std::move(options)) {
  if (options_.shards < 1) options_.shards = 1;
}

ScheddDaemon::~ScheddDaemon() {
  Stop();
  Wait();
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto& [id, conn] : conns_) {
      if (conn->fd >= 0) close(conn->fd);
    }
    conns_.clear();
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_fds_[0] >= 0) close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) close(wake_fds_[1]);
  if (!options_.socket_path.empty()) unlink(options_.socket_path.c_str());
}

std::string ScheddDaemon::TenantDir(uint64_t tenant_id) const {
  return options_.checkpoint_dir + "/tenant-" + std::to_string(tenant_id);
}

bool ScheddDaemon::RestoreTenants(std::string* error) {
  if (options_.checkpoint_dir.empty()) return true;
  std::error_code ec;
  if (!std::filesystem::is_directory(options_.checkpoint_dir, ec)) return true;
  for (const auto& entry : std::filesystem::directory_iterator(options_.checkpoint_dir, ec)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    constexpr char kPrefix[] = "tenant-";
    if (name.rfind(kPrefix, 0) != 0) continue;
    char* end = nullptr;
    const uint64_t tenant_id = strtoull(name.c_str() + sizeof(kPrefix) - 1, &end, 10);
    if (end == nullptr || *end != '\0') continue;
    if (ListSnapshotFiles(entry.path().string()).empty()) {
      // Directory exists but nothing was ever durably written: the tenant
      // never survived a checkpoint, so there is nothing to restore.
      continue;
    }
    std::string restore_error;
    auto tenant = TenantDomain::RestoreNewest(entry.path().string(), &restore_error);
    if (!tenant) {
      if (error) *error = "tenant " + std::to_string(tenant_id) + ": " + restore_error;
      return false;
    }
    if (tenant->tenant_id() != tenant_id) {
      if (error) {
        *error = "tenant dir " + name + " holds snapshot for tenant " +
                 std::to_string(tenant->tenant_id());
      }
      return false;
    }
    Shard& shard = *shards_[tenant_id % shards_.size()];
    jobs_.fetch_add(tenant->num_jobs(), std::memory_order_relaxed);
    tenants_.fetch_add(1, std::memory_order_relaxed);
    restored_.fetch_add(1, std::memory_order_relaxed);
    shard.tenants[tenant_id] = std::move(tenant);
  }
  return true;
}

bool ScheddDaemon::Start(std::string* error) {
  if (options_.socket_path.empty()) {
    if (error) *error = "socket_path is required";
    return false;
  }
  sockaddr_un addr{};
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    if (error) *error = "socket path too long: " + options_.socket_path;
    return false;
  }

  shards_.clear();
  for (int i = 0; i < options_.shards; ++i) shards_.push_back(std::make_unique<Shard>());
  if (!RestoreTenants(error)) return false;

  listen_fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0 || !SetNonBlocking(listen_fd_)) {
    if (error) *error = std::string("socket: ") + strerror(errno);
    return false;
  }
  addr.sun_family = AF_UNIX;
  memcpy(addr.sun_path, options_.socket_path.c_str(), options_.socket_path.size());
  unlink(options_.socket_path.c_str());
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (error) *error = "bind " + options_.socket_path + ": " + strerror(errno);
    return false;
  }
  if (listen(listen_fd_, 128) != 0) {
    if (error) *error = std::string("listen: ") + strerror(errno);
    return false;
  }
  if (pipe(wake_fds_) != 0 || !SetNonBlocking(wake_fds_[0]) || !SetNonBlocking(wake_fds_[1])) {
    if (error) *error = std::string("pipe: ") + strerror(errno);
    return false;
  }

  stop_.store(false, std::memory_order_relaxed);
  draining_.store(false, std::memory_order_relaxed);
  io_thread_ = std::thread([this] { IoLoop(); });
  for (int i = 0; i < options_.shards; ++i) {
    shard_threads_.emplace_back([this, i] { ShardLoop(i); });
  }
  return true;
}

void ScheddDaemon::RequestDrain() {
  draining_.store(true, std::memory_order_relaxed);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->cv.notify_all();
  }
  WakeIo();
}

void ScheddDaemon::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    shard->cv.notify_all();
  }
  WakeIo();
}

void ScheddDaemon::Wait() {
  for (auto& thread : shard_threads_) {
    if (thread.joinable()) thread.join();
  }
  if (!stop_.load(std::memory_order_relaxed)) {
    // Drain path: the shards have answered everything; give the I/O thread a
    // bounded window to flush the remaining outboxes to their clients.
    for (int i = 0; i < 200; ++i) {
      bool idle = true;
      {
        std::lock_guard<std::mutex> lock(conns_mutex_);
        for (auto& [id, conn] : conns_) {
          std::lock_guard<std::mutex> out_lock(conn->out_mutex);
          if (!conn->outbuf.empty()) idle = false;
        }
      }
      if (idle) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    stop_.store(true, std::memory_order_relaxed);
    WakeIo();
  }
  if (io_thread_.joinable()) io_thread_.join();
}

ScheddStats ScheddDaemon::Stats() const {
  ScheddStats stats;
  stats.frames = frames_.load(std::memory_order_relaxed);
  stats.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  stats.malformed = malformed_.load(std::memory_order_relaxed);
  stats.sheds = sheds_.load(std::memory_order_relaxed);
  stats.drain_nacks = drain_nacks_.load(std::memory_order_relaxed);
  stats.errors = errors_.load(std::memory_order_relaxed);
  stats.conns_opened = conns_opened_.load(std::memory_order_relaxed);
  stats.conns_closed = conns_closed_.load(std::memory_order_relaxed);
  stats.slow_closed = slow_closed_.load(std::memory_order_relaxed);
  stats.tenants = tenants_.load(std::memory_order_relaxed);
  stats.jobs = jobs_.load(std::memory_order_relaxed);
  stats.rounds = rounds_.load(std::memory_order_relaxed);
  stats.degraded_rounds = degraded_rounds_.load(std::memory_order_relaxed);
  stats.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  stats.restored = restored_.load(std::memory_order_relaxed);
  return stats;
}

void ScheddDaemon::WakeIo() {
  if (wake_fds_[1] < 0) return;
  const char byte = 0;
  // Nonblocking: a full pipe already guarantees a pending wakeup.
  (void)!write(wake_fds_[1], &byte, 1);
}

void ScheddDaemon::SendFrame(const std::shared_ptr<Conn>& conn, uint32_t type,
                             const std::string& payload) {
  if (conn->dead.load(std::memory_order_relaxed)) return;
  const std::string frame = EncodeFrame(type, payload);
  bool overflow = false;
  {
    std::lock_guard<std::mutex> lock(conn->out_mutex);
    conn->outbuf += frame;
    overflow = conn->outbuf.size() > options_.outbox_cap_bytes;
  }
  if (overflow && !conn->kill.exchange(true, std::memory_order_relaxed)) {
    // Consumer stopped reading; cut it loose rather than buffer unboundedly.
    slow_closed_.fetch_add(1, std::memory_order_relaxed);
    ObsMetrics().slow_closed->Add();
  }
  WakeIo();
}

void ScheddDaemon::SendError(const std::shared_ptr<Conn>& conn, ErrCode code,
                             const std::string& detail) {
  errors_.fetch_add(1, std::memory_order_relaxed);
  ObsMetrics().errors->Add();
  SendFrame(conn, kMsgError, EncodeError(code, detail));
}

void ScheddDaemon::SendAck(const std::shared_ptr<Conn>& conn, uint64_t value) {
  BinWriter out;
  out.PutU64(value);
  SendFrame(conn, kMsgAck, out.str());
}

void ScheddDaemon::IoLoop() {
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<Conn>> polled;
  while (!stop_.load(std::memory_order_relaxed)) {
    fds.clear();
    polled.clear();
    fds.push_back({wake_fds_[0], POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      for (auto& [id, conn] : conns_) {
        short events = POLLIN;
        {
          std::lock_guard<std::mutex> out_lock(conn->out_mutex);
          if (!conn->outbuf.empty()) events |= POLLOUT;
        }
        fds.push_back({conn->fd, events, 0});
        polled.push_back(conn);
      }
    }
    const int ready = poll(fds.data(), fds.size(), 100);
    if (stop_.load(std::memory_order_relaxed)) break;
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents & POLLIN) {
      char buf[256];
      while (read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if (fds[1].revents & POLLIN) {
      for (;;) {
        const int fd = accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        if (!SetNonBlocking(fd)) {
          close(fd);
          continue;
        }
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        conns_opened_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(conns_mutex_);
        conn->id = next_conn_id_++;
        conns_[conn->id] = conn;
      }
    }
    for (size_t i = 0; i < polled.size(); ++i) {
      const auto& conn = polled[i];
      if (conn->dead.load(std::memory_order_relaxed)) continue;
      if (conn->kill.load(std::memory_order_relaxed)) {
        CloseConn(conn->id);
        continue;
      }
      const short revents = fds[i + 2].revents;
      if (revents & POLLERR) {
        CloseConn(conn->id);
        continue;
      }
      if (revents & (POLLIN | POLLHUP)) HandleReadable(conn);
      if (conn->dead.load(std::memory_order_relaxed)) continue;
      if (revents & POLLOUT) FlushConn(conn);
    }
  }
}

void ScheddDaemon::HandleReadable(const std::shared_ptr<Conn>& conn) {
  bool eof = false;
  char buf[65536];
  for (;;) {
    const ssize_t got = recv(conn->fd, buf, sizeof(buf), 0);
    if (got > 0) {
      if (!conn->broken) conn->inbuf.append(buf, static_cast<size_t>(got));
      continue;
    }
    if (got == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    eof = true;
    break;
  }
  if (!conn->broken && !DrainInbuf(conn)) {
    // Framing desync: the typed error is already queued; nothing further on
    // this connection can be parsed.
    conn->broken = true;
    conn->inbuf.clear();
  }
  if (eof || conn->broken) {
    std::lock_guard<std::mutex> lock(conn->out_mutex);
    conn->close_after_flush = true;
  }
  FlushConn(conn);
}

bool ScheddDaemon::DrainInbuf(const std::shared_ptr<Conn>& conn) {
  for (;;) {
    Frame frame;
    size_t consumed = 0;
    const FrameStatus status =
        DecodeFrame(conn->inbuf, options_.max_frame_bytes, &frame, &consumed);
    switch (status) {
      case FrameStatus::kNeedMore:
        return true;
      case FrameStatus::kOk:
        conn->inbuf.erase(0, consumed);
        DispatchFrame(conn, std::move(frame));
        continue;
      case FrameStatus::kBadMagic:
        bad_frames_.fetch_add(1, std::memory_order_relaxed);
        ObsMetrics().bad_frames->Add();
        SendError(conn, kErrBadMagic, "frame magic mismatch");
        return false;
      case FrameStatus::kOversized:
        bad_frames_.fetch_add(1, std::memory_order_relaxed);
        ObsMetrics().bad_frames->Add();
        SendError(conn, kErrOversized, "frame exceeds max payload");
        return false;
      case FrameStatus::kBadCrc:
        bad_frames_.fetch_add(1, std::memory_order_relaxed);
        ObsMetrics().bad_frames->Add();
        SendError(conn, kErrBadCrc, "frame crc mismatch");
        return false;
    }
  }
}

void ScheddDaemon::DispatchFrame(const std::shared_ptr<Conn>& conn, Frame frame) {
  frames_.fetch_add(1, std::memory_order_relaxed);
  ObsMetrics().frames->Add();
  switch (frame.type) {
    case kMsgPing:
      SendFrame(conn, kMsgPong, "");
      return;
    case kMsgHello: {
      BinReader in(frame.payload);
      const uint32_t version = in.GetU32();
      if (!in.ok()) {
        malformed_.fetch_add(1, std::memory_order_relaxed);
        SendError(conn, kErrMalformedPayload, "hello");
        return;
      }
      if (version != kProtocolVersion) {
        SendError(conn, kErrVersionMismatch,
                  "daemon speaks protocol " + std::to_string(kProtocolVersion));
        return;
      }
      BinWriter out;
      out.PutU32(kProtocolVersion);
      SendFrame(conn, kMsgHelloOk, out.str());
      return;
    }
    case kMsgStats: {
      const ScheddStats stats = Stats();
      std::map<std::string, uint64_t> rows = {
          {"bad_frames", stats.bad_frames},
          {"checkpoints", stats.checkpoints},
          {"conns_closed", stats.conns_closed},
          {"conns_opened", stats.conns_opened},
          {"degraded_rounds", stats.degraded_rounds},
          {"drain_nacks", stats.drain_nacks},
          {"errors", stats.errors},
          {"frames", stats.frames},
          {"jobs", stats.jobs},
          {"malformed", stats.malformed},
          {"restored", stats.restored},
          {"rounds", stats.rounds},
          {"sheds", stats.sheds},
          {"slow_closed", stats.slow_closed},
          {"tenants", stats.tenants},
      };
      BinWriter out;
      StatsFields(out, rows);
      SendFrame(conn, kMsgStatsReply, out.str());
      return;
    }
    case kMsgCreateTenant:
    case kMsgSubmitJob:
    case kMsgCancelJob:
    case kMsgReport:
    case kMsgRunRound: {
      BinReader in(frame.payload);
      const uint64_t tenant_id = in.GetU64();
      if (!in.ok()) {
        malformed_.fetch_add(1, std::memory_order_relaxed);
        SendError(conn, kErrMalformedPayload, "missing tenant id");
        return;
      }
      if (draining_.load(std::memory_order_relaxed)) {
        drain_nacks_.fetch_add(1, std::memory_order_relaxed);
        ObsMetrics().nacks->Add();
        SendFrame(conn, kMsgNack, EncodeNack(kNackDraining, "daemon draining"));
        return;
      }
      Shard& shard = *shards_[tenant_id % shards_.size()];
      {
        std::lock_guard<std::mutex> lock(shard.mutex);
        size_t& pending = shard.pending[tenant_id];
        if (pending >= options_.ingest_queue_cap) {
          sheds_.fetch_add(1, std::memory_order_relaxed);
          ObsMetrics().sheds->Add();
          ObsMetrics().nacks->Add();
          SendFrame(conn, kMsgNack, EncodeNack(kNackQueueFull, "tenant queue full"));
          return;
        }
        ++pending;
        ObsMetrics().queue_depth->Set(static_cast<double>(pending));
        conn->inflight.fetch_add(1, std::memory_order_relaxed);
        shard.queue.push_back(Request{conn, std::move(frame), tenant_id});
        shard.cv.notify_one();
      }
      return;
    }
    default:
      SendError(conn, kErrUnknownType, "type " + std::to_string(frame.type));
      return;
  }
}

void ScheddDaemon::ShardLoop(int shard_index) {
  Shard& shard = *shards_[shard_index];
  for (;;) {
    Request request;
    {
      std::unique_lock<std::mutex> lock(shard.mutex);
      shard.cv.wait(lock, [&] {
        return stop_.load(std::memory_order_relaxed) || !shard.queue.empty() ||
               draining_.load(std::memory_order_relaxed);
      });
      if (stop_.load(std::memory_order_relaxed)) return;  // drop queued work
      if (shard.queue.empty()) {
        if (draining_.load(std::memory_order_relaxed)) break;  // drained
        continue;
      }
      request = std::move(shard.queue.front());
      shard.queue.pop_front();
      auto it = shard.pending.find(request.tenant_id);
      if (it != shard.pending.end() && --it->second == 0) shard.pending.erase(it);
    }
    ProcessRequest(shard, request);
    request.conn->inflight.fetch_sub(1, std::memory_order_relaxed);
  }
  // Graceful drain: a final durable checkpoint per tenant before exit.
  if (!options_.checkpoint_dir.empty()) {
    for (const auto& [tenant_id, tenant] : shard.tenants) CheckpointTenant(*tenant);
  }
}

void ScheddDaemon::CheckpointTenant(const TenantDomain& tenant) {
  std::string error;
  const double start = NowSeconds();
  if (tenant.SaveCheckpoint(TenantDir(tenant.tenant_id()), options_.checkpoint_keep, &error)) {
    ObsMetrics().checkpoint_seconds->Record(NowSeconds() - start);
    checkpoints_.fetch_add(1, std::memory_order_relaxed);
    ObsMetrics().checkpoints->Add();
  } else {
    fprintf(stderr, "pollux_schedd: checkpoint tenant %llu failed: %s\n",
            static_cast<unsigned long long>(tenant.tenant_id()), error.c_str());
  }
}

void ScheddDaemon::ProcessRequest(Shard& shard, Request& request) {
  BinReader in(request.frame.payload);
  const uint64_t tenant_id = in.GetU64();
  TenantDomain* tenant = nullptr;
  if (auto it = shard.tenants.find(tenant_id); it != shard.tenants.end()) {
    tenant = it->second.get();
  }

  switch (request.frame.type) {
    case kMsgCreateTenant: {
      TenantSetup setup;
      setup.tenant_id = tenant_id;
      if (!GetTenantSetup(in, &setup) || !in.AtEnd()) {
        malformed_.fetch_add(1, std::memory_order_relaxed);
        SendError(request.conn, kErrMalformedPayload, "create_tenant");
        return;
      }
      if (tenant != nullptr) {
        // Idempotent re-create: same shape acks, a different shape is a
        // client bug we refuse rather than silently reconfigure.
        BinWriter existing, proposed;
        PutTenantSetup(existing, tenant->setup());
        PutTenantSetup(proposed, setup);
        if (existing.str() == proposed.str()) {
          SendAck(request.conn, 0);
        } else {
          SendError(request.conn, kErrTenantMismatch, "tenant exists with different setup");
        }
        return;
      }
      shard.tenants[tenant_id] = std::make_unique<TenantDomain>(std::move(setup));
      tenants_.fetch_add(1, std::memory_order_relaxed);
      SendAck(request.conn, 0);
      return;
    }
    case kMsgSubmitJob: {
      const AgentReport agent = in.Get<AgentReport>();
      const double gpu_time = in.GetFiniteDouble();
      if (!in.ok() || !in.AtEnd()) {
        malformed_.fetch_add(1, std::memory_order_relaxed);
        SendError(request.conn, kErrMalformedPayload, "submit_job");
        return;
      }
      if (tenant == nullptr) {
        SendError(request.conn, kErrUnknownTenant, std::to_string(tenant_id));
        return;
      }
      const size_t jobs_before = tenant->num_jobs();
      tenant->SubmitJob(agent, gpu_time);
      jobs_.fetch_add(tenant->num_jobs() - jobs_before, std::memory_order_relaxed);
      SendAck(request.conn, 1);
      return;
    }
    case kMsgCancelJob: {
      const uint64_t job_id = in.GetU64();
      if (!in.ok() || !in.AtEnd()) {
        malformed_.fetch_add(1, std::memory_order_relaxed);
        SendError(request.conn, kErrMalformedPayload, "cancel_job");
        return;
      }
      if (tenant == nullptr) {
        SendError(request.conn, kErrUnknownTenant, std::to_string(tenant_id));
        return;
      }
      if (!tenant->CancelJob(job_id)) {
        SendError(request.conn, kErrUnknownJob, std::to_string(job_id));
        return;
      }
      jobs_.fetch_sub(1, std::memory_order_relaxed);
      SendAck(request.conn, 1);
      return;
    }
    case kMsgReport: {
      const double start = NowSeconds();
      // No report encodes smaller than a default-constructed one.
      static const uint64_t kMinReportBytes = [] {
        BinWriter probe;
        probe.Put(SchedJobReport{});
        return probe.str().size();
      }();
      uint64_t count = 0;
      in.Count(count, kMaxBatch, kMinReportBytes);
      if (!in.ok()) {
        malformed_.fetch_add(1, std::memory_order_relaxed);
        SendError(request.conn, kErrMalformedPayload, "report batch");
        return;
      }
      if (tenant == nullptr) {
        SendError(request.conn, kErrUnknownTenant, std::to_string(tenant_id));
        return;
      }
      uint64_t accepted = 0;
      for (uint64_t i = 0; i < count && in.ok(); ++i) {
        const SchedJobReport report = in.Get<SchedJobReport>();
        if (in.ok() && tenant->Ingest(report)) ++accepted;
      }
      if (!in.ok() || !in.AtEnd()) {
        malformed_.fetch_add(1, std::memory_order_relaxed);
        SendError(request.conn, kErrMalformedPayload, "report batch");
        return;
      }
      ObsMetrics().ingest_seconds->Record(NowSeconds() - start);
      SendAck(request.conn, accepted);
      return;
    }
    case kMsgRunRound: {
      const uint64_t round = in.GetU64();
      if (!in.ok() || !in.AtEnd()) {
        malformed_.fetch_add(1, std::memory_order_relaxed);
        SendError(request.conn, kErrMalformedPayload, "run_round");
        return;
      }
      if (tenant == nullptr) {
        SendError(request.conn, kErrUnknownTenant, std::to_string(tenant_id));
        return;
      }
      RoundDecisions decisions;
      const double start = NowSeconds();
      const TenantDomain::RoundStatus status = tenant->RunRound(round, &decisions);
      switch (status) {
        case TenantDomain::RoundStatus::kBadRound:
          SendError(request.conn, kErrBadRound,
                    "expected round " + std::to_string(tenant->next_round()));
          return;
        case TenantDomain::RoundStatus::kExecuted: {
          ObsMetrics().round_seconds->Record(NowSeconds() - start);
          rounds_.fetch_add(1, std::memory_order_relaxed);
          if (decisions.degraded) degraded_rounds_.fetch_add(1, std::memory_order_relaxed);
          const int every = options_.checkpoint_every_rounds;
          if (!options_.checkpoint_dir.empty() && every > 0 &&
              tenant->next_round() % static_cast<uint64_t>(every) == 0) {
            CheckpointTenant(*tenant);
          }
          break;
        }
        case TenantDomain::RoundStatus::kCached:
          break;
      }
      SendFrame(request.conn, kMsgDecisions, EncodeDecisionsPayload(decisions));
      return;
    }
    default:
      SendError(request.conn, kErrUnknownType, "type " + std::to_string(request.frame.type));
      return;
  }
}

void ScheddDaemon::FlushConn(const std::shared_ptr<Conn>& conn) {
  bool close_now = false;
  {
    std::lock_guard<std::mutex> lock(conn->out_mutex);
    while (!conn->outbuf.empty()) {
      const ssize_t sent =
          send(conn->fd, conn->outbuf.data(), conn->outbuf.size(), MSG_NOSIGNAL);
      if (sent > 0) {
        conn->outbuf.erase(0, static_cast<size_t>(sent));
        continue;
      }
      if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (sent < 0 && errno == EINTR) continue;
      close_now = true;  // peer gone (EPIPE/ECONNRESET/...)
      break;
    }
    if (conn->outbuf.empty() && conn->close_after_flush &&
        conn->inflight.load(std::memory_order_relaxed) == 0) {
      close_now = true;
    }
  }
  if (close_now) CloseConn(conn->id);
}

void ScheddDaemon::CloseConn(uint64_t conn_id) {
  std::shared_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;
    conn = it->second;
    conns_.erase(it);
  }
  conn->dead.store(true, std::memory_order_relaxed);
  if (conn->fd >= 0) {
    close(conn->fd);
    conn->fd = -1;
  }
  conns_closed_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace service
}  // namespace pollux
