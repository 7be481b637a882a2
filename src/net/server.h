// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// GatewayServer: the Sentinel event gateway.
//
// The paper's reactive objects expose two interfaces: a conventional
// synchronous one and an event interface whose occurrences propagate
// asynchronously to consumers. The gateway extends both across process
// boundaries while preserving the core's threading model:
//
//   IO shards (epoll, edge-trig) --> per-shard ingress queues --> N workers
//
// `ServerOptions::io_threads` epoll threads own the sockets: each accepted
// connection is pinned to the shard `fd % io_threads` for its whole life,
// so every socket is read, written, and closed by exactly one thread, and
// per-connection cost stays O(1) in the total session count (no poll-set
// rebuild, no O(sessions) scans). Egress is batched: replies accumulate in
// per-session outbox chunks and each drain writes them with one writev;
// consecutive raise acks for a session coalesce into ranged
// BatchStatusReply frames. On top of the bounded ingress queues, admission
// quotas (per-session and per-tenant in-flight raises, per-session queued
// notify bytes) stop one hot client from starving the plane: quota hits
// answer ResourceExhausted immediately from the IO shard.
//
// Worker threads are unchanged in role: one per raise shard
// (N = Database::raise_shards(), 1 by default — exactly the paper's single
// mutator) drains its queue in batches. Routing keys RaiseEvent frames by
// the requested oid (class-name hash for oid 0, i.e. class-default relays)
// and everything else by session id, so a given reactive object is only
// ever touched by its owning worker — the per-object serialization the
// sharded facade requires (core/shard.h).
//
// Reply-order caveat with N > 1: frames from one session that hash to
// different shards may be answered out of request order (each worker
// preserves order for its own frames). Raises against a single oid — and
// every non-raise request — keep strict FIFO per session. Additionally, a
// NotificationBatch completing a parked long-poll may overtake coalesced
// raise acks still buffered in the same worker batch; a client blocked in
// a long-poll by definition has no raises outstanding on that connection,
// so the stream it observes is unchanged.
//
// Remote producers RaiseEvent on server-side relay reactive objects; remote
// consumers Subscribe to occurrence keys ("end Employee::ChangeIncome") or
// rule-firing keys ("rule:<name>") and pull batches with FetchNotifications
// (long-poll: a parked fetch completes the moment a matching occurrence is
// raised). Rules created over the wire reference registry-named conditions
// and actions; the built-in "gateway.notify" action broadcasts a rule's
// firing to its "rule:<name>" subscribers.

#ifndef SENTINEL_NET_SERVER_H_
#define SENTINEL_NET_SERVER_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/database.h"
#include "net/ingress_queue.h"
#include "net/self_pipe.h"
#include "net/session.h"
#include "net/wire.h"

namespace sentinel {

namespace shmtp {
class ShmHost;
}  // namespace shmtp

namespace net {

/// FunctionRegistry name of the built-in rule action that notifies
/// "rule:<name>" subscribers (the default for remotely created rules).
extern const char kNotifySubscribersAction[];

/// Every knob of the gateway, in one place.
struct ServerOptions {
  // --- Listener ---------------------------------------------------------------
  std::string host = "127.0.0.1";
  uint16_t port = 0;             ///< 0 picks an ephemeral port.

  // --- IO plane ---------------------------------------------------------------
  size_t io_threads = 1;         ///< Epoll shards; sessions pinned by fd hash.
  uint32_t max_frame_body = kDefaultMaxFrameBody;

  // --- Ingress / drain --------------------------------------------------------
  size_t ingress_capacity = 1024;

  // --- Admission quotas (0 = unlimited) ---------------------------------------
  /// Raises one session may have admitted-but-unacked; beyond it the IO
  /// shard answers ResourceExhausted without touching the ingress queue.
  uint32_t max_inflight_raises = 0;
  /// Same bound summed over every session of one tenant (Hello names the
  /// tenant; sessions that never said Hello share the default tenant).
  uint32_t tenant_max_inflight_raises = 0;
  /// Distinct *named* tenants the server will materialize quota state for
  /// (the always-present default tenant does not count). TenantState is
  /// never freed, so without a cap a hostile peer could grow server memory
  /// one Hello at a time; past the cap, new tenant names bill the default
  /// tenant's quota domain instead of allocating. 0 = unlimited.
  size_t max_tenants = 256;

  // --- Notification egress ----------------------------------------------------
  /// Per-session, FIFO-trimmed (as is kMaxPendingNotifyBytes).
  size_t max_pending_notifications = 1024;

  // --- Shared-memory local transport (src/shmtp) ------------------------------
  /// shm_open name of the local-producer segment, e.g. "/sentinel-gw".
  /// Must start with '/'. Empty (the default) disables the transport.
  std::string shm_segment;
  /// Producer ring slots: the number of local handles attachable at once.
  uint32_t shm_rings = 4;
};

// --- Raise admission ---------------------------------------------------------
// The TCP IO shards and the shm host (src/shmtp) admit raise frames through
// these three functions, so both intakes keep one set of quota books and
// send a frame to the same shard.

/// Charges one in-flight raise to `item->session` and its current tenant
/// unless a quota in `options` (0 = unlimited) is at its cap. Returns
/// nullptr when charged (`item->charged_tenant` names the tenant billed),
/// else the quota that refused, "session" or "tenant", charging nothing.
/// Workers credit the counters back as they ack; the check-then-add race
/// between intake threads can overshoot by one frame per thread.
const char* ChargeRaise(const ServerOptions& options, IngressItem* item);

/// Credits back the charge ChargeRaise made on `item` (no-op when none).
void ReleaseRaise(IngressItem* item);

/// The shard queue (of `nshards`) that `frame` from `session` runs on:
/// raises by their routing prefix, anything else by session so its
/// notification state stays on one worker.
size_t RouteFrame(const Session& session, const Frame& frame, size_t nshards);

/// A view of the gateway's counters, all monotone. Each field is read from
/// one net.* or shm.* counter in the database's MetricsRegistry (the name
/// table is in server.cc), so two gateways serving one database share them.
struct GatewayStats {
  uint64_t frames_received = 0;
  uint64_t requests_processed = 0;
  uint64_t backpressure_rejections = 0;
  uint64_t quota_rejections = 0;  ///< Subset of backpressure: quota hits.
  uint64_t protocol_errors = 0;
  uint64_t notifications_enqueued = 0;
  uint64_t notifications_dropped = 0;
  uint64_t sessions_accepted = 0;
  uint64_t batched_acks = 0;  ///< Acks delivered inside BatchStatusReplies.
  uint64_t inline_raises = 0;  ///< Raises executed on the IO thread (sync
                               ///< fast path: idle shard, lone frame).

  // Shared-memory local transport (0s when shm_segment is unset).
  uint64_t shm_frames = 0;    ///< Raise frames admitted from shm rings.
  uint64_t shm_batches = 0;   ///< Shard-queue batches those frames rode in.
  uint64_t shm_parks = 0;     ///< Host intake futex parks.
  uint64_t shm_wakeups = 0;   ///< Parks ended by a producer doorbell.
  uint64_t shm_attaches = 0;  ///< Rings claimed by local handles.
  uint64_t shm_reclaims = 0;  ///< Rings reclaimed (crash or clean close).
  uint64_t shm_protocol_errors = 0;  ///< Rings killed for garbage records.
};

/// Serves kReplSubscribe frames. Implemented by repl::Replicator; an
/// abstract seam here keeps net/ free of a dependency on src/repl (which
/// itself depends on net/ for the follower's client side).
class ReplicationHandler {
 public:
  virtual ~ReplicationHandler() = default;
  /// Fills `*reply` for one replication poll. Must be safe to call from
  /// any gateway worker thread.
  virtual Status HandleReplSubscribe(const ReplSubscribeMsg& msg,
                                     ReplBatchMsg* reply) = 0;
};

/// TCP front end for one Database. The caller must keep `db` alive until
/// Stop()/destruction, and after Start() must not mutate `db` from other
/// threads (the gateway's worker threads own the facade's raise path).
class GatewayServer {
 public:
  GatewayServer(Database* db, ServerOptions options = {});
  ~GatewayServer();

  GatewayServer(const GatewayServer&) = delete;
  GatewayServer& operator=(const GatewayServer&) = delete;

  /// Binds, registers the notify action + occurrence observer, and spawns
  /// the IO shards plus one worker per raise shard.
  Status Start();

  /// Drains in-flight requests, closes every session, joins all threads.
  /// Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Bound port (useful with port 0).
  uint16_t port() const { return port_; }

  size_t session_count() const { return hub_->size(); }
  /// Shard 0's queue — the only one when the database is unsharded.
  const IngressQueue* ingress() const { return queues_[0].get(); }
  size_t worker_count() const { return queues_.size(); }
  size_t io_thread_count() const { return io_shards_.size(); }
  /// Materialized tenant quota domains, the default one included.
  size_t tenant_count() const;
  /// Reads the registry counters behind GatewayStats.
  GatewayStats stats() const;

  /// Attaches the replication handler serving kReplSubscribe (nullptr
  /// detaches; such frames then answer FailedPrecondition). The handler
  /// must outlive the server or be detached before it dies. Set before
  /// Start() or from a quiesced server only.
  void SetReplication(ReplicationHandler* repl) { repl_ = repl; }

 private:
  /// One epoll thread plus everything pinned to it. Sessions are handed to
  /// a shard at accept time and never migrate.
  struct IoShard {
    size_t index = 0;
    int epoll_fd = -1;
    SelfPipe wake;           ///< Cross-thread nudge into epoll_wait.
    std::thread thread;
    /// Sessions owned by this shard (this thread only).
    std::map<uint64_t, std::shared_ptr<Session>> sessions;
    /// Accepted fds handed over by the accepting shard.
    std::mutex incoming_mu;
    std::vector<int> incoming_fds;
    /// Sessions whose outbox went nonempty since the last drain.
    std::mutex flush_mu;
    std::vector<uint64_t> flush_ids;
    /// Per-worker-shard frame staging reused across reads (this thread
    /// only) so routing a burst costs no allocations.
    std::vector<std::vector<IngressItem>> staging;
  };

  void IoLoop(size_t io);
  /// Drains shard `shard`'s queue; binds the thread to that raise shard.
  void WorkerLoop(size_t shard);

  // --- IO shard helpers -------------------------------------------------------
  void AcceptPending(IoShard* io);
  /// Registers fds other shards accepted on our behalf.
  void AdoptIncoming(IoShard* io);
  /// Registers one connected fd with `io` and the hub.
  void RegisterSession(IoShard* io, int fd);
  /// Reads to EAGAIN (edge-triggered), splits frames, applies admission
  /// quotas, routes to shard queues; returns false when the session died.
  bool DrainSocket(IoShard* io, const std::shared_ptr<Session>& session);
  /// writev's queued output until EAGAIN or empty; returns false when the
  /// session died. Takes the session's writer lock.
  bool FlushSocket(Session* session);
  /// FlushSocket body; caller holds session->wr_mu.
  bool FlushSocketLocked(Session* session);
  /// Worker-side direct flush: if the writer lock is free, writes the
  /// just-queued replies from the worker thread, skipping the wake-pipe
  /// handoff to the IO shard. On contention, residue, or a dead socket
  /// it falls back to notifying the owning shard. Pairs with
  /// Session::QueueReplyQuiet.
  void WorkerFlush(const std::shared_ptr<Session>& session);
  /// True when neither staged wq chunks nor outbox bytes remain.
  bool OutboxDrained(Session* session);
  /// Flushes every session queued on the shard's flush list.
  void DrainFlushQueue(IoShard* io);
  void CloseSession(IoShard* io, uint64_t id);

  // --- Worker thread helpers --------------------------------------------------
  /// Buffers consecutive same-session raise acks so a drain can answer
  /// them with one ranged BatchStatusReply instead of a
  /// frame per raise. Order within a session is preserved: any non-ack
  /// reply flushes the buffer first.
  class AckBatcher {
   public:
    explicit AckBatcher(GatewayServer* server) : server_(server) {}
    /// Queues `msg` as the ack for one raise on `session` (may buffer).
    void Ack(const std::shared_ptr<Session>& session,
             const StatusReplyMsg& msg);
    /// Flushes buffered acks for one session (before a non-ack reply).
    void FlushSession(Session* session);
    /// Flushes everything (end of drain batch).
    void FlushAll();
    /// Writes the acks flushed since the last call to their sockets (or
    /// hands them to the IO shard). Call after releasing the exec lock.
    void WriteQueued();

   private:
    GatewayServer* server_;
    struct Pending {
      std::shared_ptr<Session> session;
      std::vector<BatchStatusReplyMsg::Run> runs;
      size_t total = 0;
    };
    /// At most kMaxBatch sessions per drain; linear scan beats hashing.
    std::vector<Pending> pending_;
    /// Sessions with acks queued but not yet written, in flush order.
    std::vector<std::shared_ptr<Session>> queued_;
    void Emit(Pending* p);
  };

  void ProcessItem(size_t shard, IngressItem& item, AckBatcher* acks);
  /// Applies one remote raise; `msg.params` are moved into the occurrence.
  StatusReplyMsg HandleRaiseEvent(size_t shard, RaiseEventMsg& msg);
  StatusReplyMsg HandleCreateRule(const CreateRuleMsg& msg);
  StatusReplyMsg HandleRuleToggle(const RuleNameMsg& msg, bool enable);
  StatusReplyMsg HandleSubscribe(const std::shared_ptr<Session>& session,
                                 const SubscribeMsg& msg);
  void HandleHello(const std::shared_ptr<Session>& session,
                   const HelloMsg& msg);
  void HandleFetch(const std::shared_ptr<Session>& session,
                   const FetchMsg& msg);
  void HandleGetStats(Session* session, const StatsRequestMsg& msg);
  /// Replays spilled occurrence history (Database::HistoryScan) back to the
  /// session as a HistoryBatch. The request limit is clamped so one scan
  /// cannot balloon a reply frame past the server's frame-body cap.
  void HandleHistoryScan(Session* session, const HistoryScanMsg& msg);
  /// Forwards one replication poll to the attached handler and answers
  /// with a kReplBatch (or an error StatusReply when none is attached).
  void HandleReplSubscribe(Session* session, const ReplSubscribeMsg& msg);
  /// Renders the StatsReply JSON for the requested section bits. Runs on a
  /// worker thread; counters are exact only once writers quiesce.
  std::string BuildStatsJson(uint32_t sections) const;
  /// Finds or creates the relay reactive object remote raises act on.
  /// Relay maps are per-shard: only shard `shard`'s worker touches them.
  Result<ReactiveObject*> RelayFor(size_t shard,
                                   const std::string& class_name,
                                   const std::string& method, uint64_t oid);
  /// Shard `shard`'s slot for the default relay of `class_name` (null
  /// until one is made). The first call per class checks the catalog, or
  /// auto-registers the class; later calls are one hash probe.
  Result<std::unique_ptr<ReactiveObject>*> DefaultRelaySlot(
      size_t shard, const std::string& class_name, const std::string& method);
  /// The quota domain for `name`, creating it on first use.
  TenantState* TenantFor(const std::string& name);

  Database* db_;
  ServerOptions options_;
  ReplicationHandler* repl_ = nullptr;
  std::shared_ptr<NotificationHub> hub_;
  /// One bounded queue per raise shard, each with the configured capacity.
  std::vector<std::unique_ptr<IngressQueue>> queues_;
  /// Per-shard execution lock: the shard's worker holds it across each
  /// drain — including the queue pop itself, so an item never sits popped
  /// but unexecuted while the lock is free — and an IO thread try-locks it
  /// to execute a lone raise inline when the shard queue is empty (the
  /// sync fast path — two context switches per RPC instead of three).
  /// Queue empty under this lock therefore means every admitted frame has
  /// been processed and its ack queued in the session's FIFO outbox, so
  /// the inline raise overtakes nothing. The ack's socket write happens
  /// after the unlock: a sync client answered under the lock would send
  /// its next raise while the lock is still held and miss the inline path.
  /// Per-object serialization is preserved: only one thread runs a shard's
  /// mutator rounds at a time.
  std::vector<std::unique_ptr<std::mutex>> exec_mu_;
  Database::ObserverHandle observer_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::vector<std::unique_ptr<IoShard>> io_shards_;
  std::vector<std::thread> workers_;
  /// Shared-memory local transport host (null unless shm_segment is set).
  /// Intake stops before the queues shut down; the host itself outlives
  /// the workers, whose ack flushes write into its completion regions.
  std::unique_ptr<shmtp::ShmHost> shm_host_;

  std::atomic<uint64_t> next_session_id_{1};

  /// Tenant quota domains, created at Hello ("" = default, created at
  /// Start). Addresses must stay stable while sessions hold raw pointers,
  /// hence unique_ptr values; mutated only under tenants_mu_.
  mutable std::mutex tenants_mu_;
  std::map<std::string, std::unique_ptr<TenantState>> tenants_;

  /// Relay objects one shard's worker materialized for remote raises — a
  /// relay is only ever created and used by its owning worker.
  struct ShardRelays {
    /// By requested oid, each relay stored in its map node (one allocation
    /// per relay; nodes never move). Every relay here is also registered
    /// live, so an existing relay is found by the FindLiveObject probe that
    /// must run first anyway; this map owns it and finds it again if an
    /// application object displaced it in the live map and was then
    /// unregistered.
    std::unordered_map<uint64_t, ReactiveObject> by_oid;
    /// One entry per class this shard has checked against the catalog,
    /// holding the class's default relay (oid 0) once one is made.
    std::unordered_map<std::string, std::unique_ptr<ReactiveObject>>
        by_class;
  };
  std::vector<ShardRelays> relays_;

  // net.* counters in the database's registry; IO and worker threads bump
  // disjoint subsets.
  Counter* frames_received_ = nullptr;
  Counter* requests_processed_ = nullptr;
  Counter* backpressure_rejections_ = nullptr;
  Counter* quota_rejections_ = nullptr;
  Counter* protocol_errors_ = nullptr;
  Counter* sessions_accepted_ = nullptr;
  Counter* batched_acks_ = nullptr;
  Counter* inline_raises_ = nullptr;
};

}  // namespace net
}  // namespace sentinel

#endif  // SENTINEL_NET_SERVER_H_
