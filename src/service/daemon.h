// pollux_schedd: the scheduler-as-a-service daemon (DESIGN.md §15).
//
// One I/O thread multiplexes a Unix-domain listening socket and every client
// connection with poll(); `shards` worker threads own the tenant domains
// (tenant_id % shards), so a TenantDomain is only ever touched by one thread
// and needs no locks. The I/O thread parses frames, answers connection-level
// messages (hello/ping/stats) inline, and routes tenant-scoped requests to
// the owning shard through a bounded per-tenant queue.
//
// Robustness properties (each has a dedicated test):
//  * Overload shedding: a tenant whose queue is at capacity gets an immediate
//    retryable NACK (queue_full) instead of unbounded buffering; sheds are
//    counted. A connection whose outbound buffer exceeds its cap (a consumer
//    that stopped reading) is closed rather than ballooning daemon memory.
//  * Hostile input: framing failures (bad magic, CRC flip, oversized) draw a
//    distinct typed error and close only that connection; malformed payloads
//    in valid frames draw kErrMalformedPayload and the connection survives.
//    The daemon process never crashes on bad bytes.
//  * Graceful degradation: per-tenant round budgets ride on PolluxSched's
//    round_time_budget machinery — an overrunning round freezes warm
//    allocations instead of blocking the shard (kDecisionDegraded flag).
//  * Crash tolerance: executed rounds checkpoint into
//    <checkpoint_dir>/tenant-<id>/ through the atomic v3 snapshot path;
//    Start() warm-restores every tenant directory it finds. RequestDrain()
//    (the SIGTERM path) NACKs new work, finishes queued requests, saves a
//    final checkpoint per tenant, and stops.
//
// Ordering contract: responses on one connection preserve request order per
// tenant (a shard's queue is FIFO) but may interleave across tenants. The
// bundled client is strictly request-response, so this only matters for
// custom pipelined clients.

#ifndef POLLUX_SERVICE_DAEMON_H_
#define POLLUX_SERVICE_DAEMON_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/tenant.h"
#include "service/wire.h"

namespace pollux {
namespace service {

struct ScheddOptions {
  // Unix-domain socket path; an existing socket file is replaced.
  std::string socket_path;
  // Tenant worker threads. Tenants map to shards by tenant_id % shards.
  int shards = 2;
  // Pending requests per tenant before the daemon sheds with NACK queue_full.
  size_t ingest_queue_cap = 256;
  // Outbound bytes buffered per connection before a non-reading client is
  // disconnected.
  size_t outbox_cap_bytes = size_t{8} << 20;
  // Largest accepted frame payload.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  // Checkpointing: empty dir disables. Every `checkpoint_every_rounds`-th
  // executed round per tenant writes a snapshot; `checkpoint_keep` newest
  // snapshots are retained per tenant.
  std::string checkpoint_dir;
  int checkpoint_every_rounds = 1;
  int checkpoint_keep = 2;
};

// Monotone daemon-wide accounting, exported via kMsgStats and Stats().
struct ScheddStats {
  uint64_t frames = 0;          // well-formed frames dispatched
  uint64_t bad_frames = 0;      // framing failures (magic/CRC/oversized)
  uint64_t malformed = 0;       // valid frames with undecodable payloads
  uint64_t sheds = 0;           // requests NACKed for a full tenant queue
  uint64_t drain_nacks = 0;     // requests NACKed while draining
  uint64_t errors = 0;          // kMsgError responses sent
  uint64_t conns_opened = 0;
  uint64_t conns_closed = 0;
  uint64_t slow_closed = 0;     // connections closed for an over-cap outbox
  uint64_t tenants = 0;         // live tenant domains
  uint64_t jobs = 0;            // live jobs across all tenants
  uint64_t rounds = 0;          // executed (non-cached) scheduling rounds
  uint64_t degraded_rounds = 0; // executed rounds with the degraded flag
  uint64_t checkpoints = 0;     // snapshot files written
  uint64_t restored = 0;        // tenants warm-restored at startup
};

class ScheddDaemon {
 public:
  explicit ScheddDaemon(ScheddOptions options);
  ~ScheddDaemon();

  ScheddDaemon(const ScheddDaemon&) = delete;
  ScheddDaemon& operator=(const ScheddDaemon&) = delete;

  // Binds the socket, warm-restores checkpointed tenants, spawns the I/O
  // thread and shard workers. False (with *error) on socket/restore failure.
  bool Start(std::string* error);

  // Graceful shutdown (the SIGTERM path): new tenant work gets NACK
  // draining, queued requests finish, every tenant saves a final checkpoint,
  // then all threads stop. Returns immediately; Wait() observes completion.
  void RequestDrain();

  // Immediate shutdown for tests: queued requests are dropped, no final
  // checkpoints.
  void Stop();

  // Blocks until all daemon threads have exited (after RequestDrain or Stop).
  void Wait();

  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  ScheddStats Stats() const;

 private:
  struct Conn;
  struct Request;
  struct Shard;

  void IoLoop();
  void ShardLoop(int shard_index);
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  // Decodes and dispatches every complete frame in conn->inbuf. Returns
  // false when the connection must close (framing failure).
  bool DrainInbuf(const std::shared_ptr<Conn>& conn);
  void DispatchFrame(const std::shared_ptr<Conn>& conn, Frame frame);
  void ProcessRequest(Shard& shard, Request& request);
  void SendFrame(const std::shared_ptr<Conn>& conn, uint32_t type,
                 const std::string& payload);
  void SendError(const std::shared_ptr<Conn>& conn, ErrCode code,
                 const std::string& detail);
  void SendAck(const std::shared_ptr<Conn>& conn, uint64_t value);
  void FlushConn(const std::shared_ptr<Conn>& conn);
  void CloseConn(uint64_t conn_id);
  void WakeIo();
  bool RestoreTenants(std::string* error);
  void CheckpointTenant(const TenantDomain& tenant);
  std::string TenantDir(uint64_t tenant_id) const;

  ScheddOptions options_;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};

  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};

  std::thread io_thread_;
  std::vector<std::thread> shard_threads_;
  std::vector<std::unique_ptr<Shard>> shards_;

  mutable std::mutex conns_mutex_;
  std::map<uint64_t, std::shared_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 1;

  // Stats: plain atomics so the I/O thread can answer kMsgStats inline.
  std::atomic<uint64_t> frames_{0}, bad_frames_{0}, malformed_{0}, sheds_{0},
      drain_nacks_{0}, errors_{0}, conns_opened_{0}, conns_closed_{0},
      slow_closed_{0}, tenants_{0}, jobs_{0}, rounds_{0}, degraded_rounds_{0},
      checkpoints_{0}, restored_{0};
};

}  // namespace service
}  // namespace pollux

#endif  // POLLUX_SERVICE_DAEMON_H_
