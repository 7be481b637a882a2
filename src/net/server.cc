// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "shmtp/host.h"

namespace sentinel {
namespace net {

const char kNotifySubscribersAction[] = "gateway.notify";

namespace {

constexpr size_t kReadChunk = 64 * 1024;
constexpr auto kMutatorIdleWait = std::chrono::milliseconds(50);
constexpr int kEpollBatch = 128;
/// Chunks staged per writev call. Well under IOV_MAX (1024) and, at 64KB
/// chunks, far more bytes than one call ever writes anyway.
constexpr size_t kMaxIov = 64;

/// epoll_event.data.u64 tags for the two non-session fds. Session ids count
/// up from 1, so the top of the space is free.
constexpr uint64_t kListenTag = ~0ull;
constexpr uint64_t kWakeTag = ~0ull - 1;

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError("fcntl(O_NONBLOCK): " +
                           std::string(std::strerror(errno)));
  }
  return Status::OK();
}

Notification FromOccurrence(const std::string& key,
                            const EventOccurrence& occ) {
  Notification n;
  n.key = key;
  n.oid = occ.oid;
  n.class_name = occ.class_name;
  n.method = occ.method;
  n.modifier = occ.modifier;
  n.params = occ.params;
  n.timestamp = occ.timestamp;
  return n;
}

/// Answers a request with an error StatusReply.
void Reject(Session* session, const Status& status) {
  session->Reply(FrameType::kStatusReply, StatusReplyMsg::FromStatus(status));
}

/// The name table behind GatewayStats: each field, the registry counter
/// holding it, and its key in the GetStats "gateway" section (inside that
/// section's "shm" object for the shared-memory transport's counters).
struct GatewayCounter {
  const char* key;
  const char* metric;
  uint64_t GatewayStats::*field;
  bool shm;
};

constexpr GatewayCounter kGatewayCounters[] = {
    {"frames_received", "net.frames_received",
     &GatewayStats::frames_received, false},
    {"requests_processed", "net.requests_processed",
     &GatewayStats::requests_processed, false},
    {"backpressure_rejections", "net.backpressure_rejections",
     &GatewayStats::backpressure_rejections, false},
    {"quota_rejections", "net.quota_rejections",
     &GatewayStats::quota_rejections, false},
    {"protocol_errors", "net.protocol_errors",
     &GatewayStats::protocol_errors, false},
    {"notifications_enqueued", "net.notifications.enqueued",
     &GatewayStats::notifications_enqueued, false},
    {"notifications_dropped", "net.notifications.dropped",
     &GatewayStats::notifications_dropped, false},
    {"sessions_accepted", "net.sessions_accepted",
     &GatewayStats::sessions_accepted, false},
    {"batched_acks", "net.batched_acks", &GatewayStats::batched_acks, false},
    {"inline_raises", "net.inline_raises", &GatewayStats::inline_raises,
     false},
    {"frames", "shm.frames", &GatewayStats::shm_frames, true},
    {"batches", "shm.batches", &GatewayStats::shm_batches, true},
    {"parks", "shm.parks", &GatewayStats::shm_parks, true},
    {"wakeups", "shm.wakeups", &GatewayStats::shm_wakeups, true},
    {"attaches", "shm.attaches", &GatewayStats::shm_attaches, true},
    {"reclaims", "shm.reclaims", &GatewayStats::shm_reclaims, true},
    {"protocol_errors", "shm.protocol_errors",
     &GatewayStats::shm_protocol_errors, true},
};
static_assert(std::size(kGatewayCounters) * sizeof(uint64_t) ==
                  sizeof(GatewayStats),
              "every GatewayStats field needs a row in kGatewayCounters");

Counter* RegistryCounter(Database* db, uint64_t GatewayStats::*field) {
  for (const GatewayCounter& c : kGatewayCounters) {
    if (c.field == field) return db->metrics()->counter(c.metric);
  }
  return nullptr;
}

/// Appends "key":value for the net (or the shm) rows, comma-separated.
void AppendCounters(const GatewayStats& s, bool shm, std::string* out) {
  bool first = true;
  for (const GatewayCounter& c : kGatewayCounters) {
    if (c.shm != shm) continue;
    if (!first) out->push_back(',');
    first = false;
    out->push_back('"');
    out->append(c.key);
    out->append("\":");
    out->append(std::to_string(s.*c.field));
  }
}

/// Credits back the admission charge of one queued raise when the worker is
/// done with it — whatever "done" meant (acked, decode error, or the session
/// died first).
struct ChargeRelease {
  IngressItem& item;
  ~ChargeRelease() { ReleaseRaise(&item); }
};

}  // namespace

const char* ChargeRaise(const ServerOptions& options, IngressItem* item) {
  Session* session = item->session.get();
  TenantState* tenant = session->tenant.load(std::memory_order_acquire);
  if (options.max_inflight_raises != 0 &&
      session->inflight_raises.load(std::memory_order_relaxed) >=
          options.max_inflight_raises) {
    return "session";
  }
  if (options.tenant_max_inflight_raises != 0 &&
      tenant->inflight_raises.load(std::memory_order_relaxed) >=
          options.tenant_max_inflight_raises) {
    return "tenant";
  }
  session->inflight_raises.fetch_add(1, std::memory_order_relaxed);
  tenant->inflight_raises.fetch_add(1, std::memory_order_relaxed);
  item->charged_tenant = tenant;
  return nullptr;
}

void ReleaseRaise(IngressItem* item) {
  // The exact session/tenant that was charged: the books stay balanced
  // across Hello-time tenant changes and disconnect-while-queued.
  if (item->charged_tenant == nullptr) return;
  item->session->inflight_raises.fetch_sub(1, std::memory_order_relaxed);
  item->charged_tenant->inflight_raises.fetch_sub(1,
                                                  std::memory_order_relaxed);
  item->charged_tenant = nullptr;
}

size_t RouteFrame(const Session& session, const Frame& frame,
                  size_t nshards) {
  if (nshards == 1) return 0;
  uint64_t oid = 0;
  std::string class_name;
  if (frame.type == FrameType::kRaiseEvent &&
      PeekRaiseRouting(frame.body, &oid, &class_name)) {
    return ShardIndexForRoute(class_name, static_cast<Oid>(oid), nshards);
  }
  // A raise with an undecodable routing prefix fails its decode on any
  // worker, so session affinity serves it as well as any other request.
  return session.id() % nshards;
}

GatewayServer::GatewayServer(Database* db, ServerOptions options)
    : db_(db),
      options_(std::move(options)),
      hub_(std::make_shared<NotificationHub>(*db->metrics())) {
  if (options_.io_threads == 0) options_.io_threads = 1;
  const size_t nshards = db_->raise_shards();
  queues_.reserve(nshards);
  exec_mu_.reserve(nshards);
  for (size_t i = 0; i < nshards; ++i) {
    // Gateway-side structures report into the database's registry so one
    // StatsSnapshot covers the whole process. Shard 0 keeps the historical
    // unsuffixed metric names; extra shards get ".s<i>".
    queues_.push_back(std::make_unique<IngressQueue>(
        options_.ingress_capacity, *db_->metrics(),
        i == 0 ? "" : ".s" + std::to_string(i)));
    exec_mu_.push_back(std::make_unique<std::mutex>());
  }
  relays_.resize(nshards);
  frames_received_ = RegistryCounter(db_, &GatewayStats::frames_received);
  requests_processed_ =
      RegistryCounter(db_, &GatewayStats::requests_processed);
  backpressure_rejections_ =
      RegistryCounter(db_, &GatewayStats::backpressure_rejections);
  quota_rejections_ = RegistryCounter(db_, &GatewayStats::quota_rejections);
  protocol_errors_ = RegistryCounter(db_, &GatewayStats::protocol_errors);
  sessions_accepted_ =
      RegistryCounter(db_, &GatewayStats::sessions_accepted);
  batched_acks_ = RegistryCounter(db_, &GatewayStats::batched_acks);
  inline_raises_ = RegistryCounter(db_, &GatewayStats::inline_raises);
}

GatewayServer::~GatewayServer() { Stop(); }

Status GatewayServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("gateway already running");
  }

  // The rule action broadcasting to "rule:<name>" subscribers. It captures
  // the hub (shared), not the server: a rule firing after Stop() lands in
  // an empty hub instead of freed memory. AlreadyExists just means another
  // (earlier) gateway on this database registered it.
  std::shared_ptr<NotificationHub> hub = hub_;
  const size_t limit = options_.max_pending_notifications;
  Status s = db_->functions()->RegisterAction(
      kNotifySubscribersAction, [hub, limit](RuleContext& ctx) {
        if (ctx.rule == nullptr || ctx.detection == nullptr) {
          return Status::OK();
        }
        const std::string key = "rule:" + ctx.rule->name();
        const EventOccurrence& occ = ctx.detection->last();
        hub->Broadcast(key, [&] { return FromOccurrence(key, occ); }, limit);
        return Status::OK();
      });
  if (!s.ok() && !s.IsAlreadyExists()) return s;

  // Occurrence fan-out: every raise reaching PostRaise is offered to
  // sessions subscribed to its key. The Notification is built only for a
  // key somebody subscribed to.
  observer_ = db_->AddOccurrenceObserver(
      [hub, limit](const EventOccurrence& occ) {
        thread_local std::string key;  // One reused buffer per worker.
        key.clear();
        AppendEventKey(occ.modifier, occ.class_name, occ.method, &key);
        hub->Broadcast(key, [&] { return FromOccurrence(key, occ); }, limit);
      });

  // Sessions that never send Hello bill the default tenant.
  TenantFor("");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError("socket: " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    Stop();
    return Status::InvalidArgument("bad listen host " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status err = Status::IOError("bind " + options_.host + ":" +
                                 std::to_string(options_.port) + ": " +
                                 std::strerror(errno));
    Stop();
    return err;
  }
  if (::listen(listen_fd_, 512) < 0) {
    Status err =
        Status::IOError("listen: " + std::string(std::strerror(errno)));
    Stop();
    return err;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  {
    Status err = SetNonBlocking(listen_fd_);
    if (!err.ok()) {
      Stop();
      return err;
    }
  }

  io_shards_.clear();
  for (size_t i = 0; i < options_.io_threads; ++i) {
    auto io = std::make_unique<IoShard>();
    io->index = i;
    io->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (io->epoll_fd < 0) {
      Stop();
      return Status::IOError("epoll_create1: " +
                             std::string(std::strerror(errno)));
    }
    Status err = io->wake.Open();
    if (!err.ok()) {
      ::close(io->epoll_fd);
      Stop();
      return err;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(io->epoll_fd, EPOLL_CTL_ADD, io->wake.read_fd(), &ev);
    io->staging.resize(queues_.size());
    io_shards_.push_back(std::move(io));
  }
  // Only shard 0 accepts; it hands fds whose hash says otherwise to their
  // owning shard's incoming list.
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenTag;
    ::epoll_ctl(io_shards_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
  }

  running_.store(true, std::memory_order_release);
  for (size_t i = 0; i < io_shards_.size(); ++i) {
    io_shards_[i]->thread = std::thread([this, i] { IoLoop(i); });
  }
  workers_.reserve(queues_.size());
  for (size_t shard = 0; shard < queues_.size(); ++shard) {
    workers_.emplace_back([this, shard] { WorkerLoop(shard); });
  }
  if (!options_.shm_segment.empty()) {
    shmtp::ShmHost::Env shm_env;
    for (auto& queue : queues_) shm_env.queues.push_back(queue.get());
    shm_env.default_tenant = TenantFor("");
    shm_env.alloc_session_id = [this] {
      return next_session_id_.fetch_add(1, std::memory_order_relaxed);
    };
    shm_env.metrics = db_->metrics();
    shm_host_ = std::make_unique<shmtp::ShmHost>(options_, std::move(shm_env));
    Status err = shm_host_->Start();
    if (!err.ok()) {
      shm_host_.reset();
      Stop();
      return err;
    }
  }
  SENTINEL_INFO << "event=gateway_listening host=" << options_.host
                << " port=" << port_ << " io_threads=" << io_shards_.size()
                << " worker_shards=" << queues_.size();
  return Status::OK();
}

void GatewayServer::Stop() {
  bool was_running = running_.exchange(false, std::memory_order_acq_rel);
  if (was_running) {
    // Shm intake first: once it stops, no new frames enter the queues
    // from local producers, and the segment flips to kHostShutdown so
    // handles stop pushing. The host object itself stays alive until the
    // workers are joined — their final ack flushes write into its
    // completion regions.
    if (shm_host_ != nullptr) shm_host_->StopIntake();
    // Workers next: they drain what the IO shards already admitted, and
    // their final replies still have live IO shards to flush them (pure
    // shutdown hygiene — clients of a stopping server get best-effort
    // delivery, not a guarantee).
    for (auto& queue : queues_) queue->Shutdown();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
    workers_.clear();
    shm_host_.reset();
    for (auto& io : io_shards_) io->wake.Wake();
    for (auto& io : io_shards_) {
      if (io->thread.joinable()) io->thread.join();
    }
    // Triggers still in flight between shards when the workers exited are
    // run to a fixpoint here, on the single remaining thread.
    db_->DrainAllForwardedShards();
  }
  hub_->Clear();
  observer_.reset();
  // Relay objects were registered live with the database; detach them so
  // the database never dereferences freed objects after we are gone.
  for (ShardRelays& shard_relays : relays_) {
    for (auto& [oid, relay] : shard_relays.by_oid) {
      db_->UnregisterLiveObject(&relay).ok();
    }
    for (auto& [name, relay] : shard_relays.by_class) {
      if (relay != nullptr) db_->UnregisterLiveObject(relay.get()).ok();
    }
    shard_relays = ShardRelays();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& io : io_shards_) {
    // Fds another shard accepted on our behalf that we never adopted.
    for (int fd : io->incoming_fds) ::close(fd);
    io->incoming_fds.clear();
    if (io->epoll_fd >= 0) ::close(io->epoll_fd);
    io->epoll_fd = -1;
    io->wake.Close();
  }
  io_shards_.clear();
}

GatewayStats GatewayServer::stats() const {
  GatewayStats s;
  for (const GatewayCounter& c : kGatewayCounters) {
    s.*c.field = db_->metrics()->counter(c.metric)->Value();
  }
  return s;
}

TenantState* GatewayServer::TenantFor(const std::string& name) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    // TenantState is never freed (sessions hold raw pointers into it), so
    // the map must not grow at the whim of whoever connects: past the cap
    // on *named* tenants, unknown names share the default domain instead
    // of allocating. The default tenant ("", created at Start) is exempt.
    if (!name.empty() && options_.max_tenants != 0 &&
        tenants_.size() > options_.max_tenants) {
      return tenants_.find("")->second.get();
    }
    it = tenants_.emplace(name, std::make_unique<TenantState>(name)).first;
  }
  return it->second.get();
}

size_t GatewayServer::tenant_count() const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  return tenants_.size();
}

// --- IO shards ---------------------------------------------------------------

void GatewayServer::IoLoop(size_t io_idx) {
  IoShard* io = io_shards_[io_idx].get();
  epoll_event events[kEpollBatch];
  while (running_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(io->epoll_fd, events, kEpollBatch,
                         /*timeout_ms=*/100);
    if (!running_.load(std::memory_order_acquire)) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      SENTINEL_WARN << "event=gateway_epoll_wait_failed error=\""
                    << std::strerror(errno) << "\"";
      break;
    }
    for (int i = 0; i < n; ++i) {
      uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        io->wake.Drain();
        continue;
      }
      if (tag == kListenTag) {
        AcceptPending(io);
        continue;
      }
      auto it = io->sessions.find(tag);
      if (it == io->sessions.end()) continue;  // Closed earlier this batch.
      std::shared_ptr<Session> session = it->second;
      bool alive = (events[i].events & (EPOLLERR | EPOLLHUP)) == 0;
      // EPOLLRDHUP still drains first: the peer may have sent a burst and
      // half-closed; recv() reports the final 0 once the bytes are out.
      if (alive && (events[i].events & (EPOLLIN | EPOLLRDHUP)) != 0) {
        alive = DrainSocket(io, session);
      }
      // Flush opportunistically — replies the workers queued since the
      // last wake, plus whatever DrainSocket rejected inline.
      if (alive) alive = FlushSocket(session.get());
      if (alive && session->drop_after_flush &&
          OutboxDrained(session.get())) {
        alive = false;
      }
      if (!alive) CloseSession(io, tag);
    }
    AdoptIncoming(io);
    DrainFlushQueue(io);
  }

  // Teardown on the owning thread, which holds the fds. Stop() flags
  // running_ before it joins the workers, so a worker may still be inside
  // WorkerFlush writing under wr_mu when we get here — close under the
  // same lock (exactly as CloseSession does) so the flush never races the
  // close or writes to a recycled descriptor.
  for (auto& [id, session] : io->sessions) {
    {
      std::lock_guard<std::mutex> lock(session->wr_mu);
      if (session->fd >= 0) ::close(session->fd);
      session->fd = -1;
    }
    session->closed.store(true, std::memory_order_release);
    hub_->Remove(id);
  }
  io->sessions.clear();
}

void GatewayServer::AcceptPending(IoShard* io) {
  while (true) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      SENTINEL_WARN << "event=gateway_accept_failed error=\""
                    << std::strerror(errno) << "\"";
      return;
    }
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    size_t target = static_cast<size_t>(fd) % io_shards_.size();
    if (target == io->index) {
      RegisterSession(io, fd);
    } else {
      IoShard* dest = io_shards_[target].get();
      {
        std::lock_guard<std::mutex> lock(dest->incoming_mu);
        dest->incoming_fds.push_back(fd);
      }
      dest->wake.Wake();
    }
  }
}

void GatewayServer::AdoptIncoming(IoShard* io) {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(io->incoming_mu);
    fds.swap(io->incoming_fds);
  }
  for (int fd : fds) RegisterSession(io, fd);
}

void GatewayServer::RegisterSession(IoShard* io, int fd) {
  uint64_t id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  auto session = std::make_shared<Session>(id, fd);
  session->io_shard = io->index;
  session->tenant.store(TenantFor(""), std::memory_order_release);
  // The notifier runs on whichever thread queued the reply; flush_queued
  // collapses a burst of replies into one flush-list entry + wake.
  session->SetFlushNotifier([this, io](Session* s) {
    if (s->flush_queued.exchange(true, std::memory_order_acq_rel)) return;
    {
      std::lock_guard<std::mutex> lock(io->flush_mu);
      io->flush_ids.push_back(s->id());
    }
    io->wake.Wake();
  });

  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
  ev.data.u64 = id;
  if (::epoll_ctl(io->epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
    SENTINEL_WARN << "event=gateway_epoll_add_failed error=\""
                  << std::strerror(errno) << "\"";
    ::close(fd);
    return;
  }
  io->sessions[id] = session;
  hub_->Add(std::move(session));
  sessions_accepted_->Add();
}

void GatewayServer::CloseSession(IoShard* io, uint64_t id) {
  auto it = io->sessions.find(id);
  if (it == io->sessions.end()) return;
  {
    // Close under the writer lock so a worker's direct flush never writes
    // to a recycled descriptor.
    std::lock_guard<std::mutex> lock(it->second->wr_mu);
    if (it->second->fd >= 0) ::close(it->second->fd);
    it->second->fd = -1;
  }
  it->second->closed.store(true, std::memory_order_release);
  io->sessions.erase(it);
  hub_->Remove(id);
}

bool GatewayServer::DrainSocket(IoShard* io,
                                const std::shared_ptr<Session>& session) {
  // Edge-triggered: read until the receive queue is provably empty. A
  // full chunk may leave more behind, so only EAGAIN ends the loop then;
  // a SHORT read on a stream socket does mean the queue emptied (epoll(7)
  // documents this), which skips the guaranteed-EAGAIN syscall on the
  // sync-RPC hot path.
  char chunk[kReadChunk];
  while (true) {
    ssize_t n = ::recv(session->fd, chunk, sizeof(chunk), 0);
    if (n == 0) return false;  // Peer closed.
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    session->inbuf.append(chunk, static_cast<size_t>(n));
    if (static_cast<size_t>(n) < sizeof(chunk)) break;
  }

  // Split complete frames off the accumulation buffer, staging each on its
  // target shard's batch; one TryPushBatch per touched queue amortizes the
  // queue mutex over the whole read burst.
  size_t offset = 0;
  bool protocol_error = false;
  while (true) {
    Frame frame;
    size_t consumed = 0;
    Status error;
    std::string_view view(session->inbuf.data() + offset,
                          session->inbuf.size() - offset);
    DecodeProgress progress = TryDecodeFrame(view, options_.max_frame_body,
                                             &frame, &consumed, &error);
    if (progress == DecodeProgress::kNeedMore) break;
    if (progress == DecodeProgress::kError) {
      // Malformed stream: report once, flush, drop the connection — there
      // is no way to resynchronize a corrupt length-prefixed stream.
      protocol_errors_->Add();
      Reject(session.get(), error);
      session->drop_after_flush = true;
      session->inbuf.clear();
      protocol_error = true;
      break;
    }
    offset += consumed;
    frames_received_->Add();

    Status admit = Status::OK();
    if (FailPoints::AnyActive()) {
      admit = FailPoints::Instance().Check("gateway.ingress");
    }
    if (!admit.ok()) {
      backpressure_rejections_->Add();
      Reject(session.get(), admit);
      continue;
    }

    IngressItem item;
    item.session = session;
    if (frame.type == FrameType::kRaiseEvent) {
      // Admission quotas, right here at the socket: a producer over its
      // in-flight window gets an immediate ResourceExhausted instead of a
      // slot in the ingress queue.
      if (const char* which = ChargeRaise(options_, &item)) {
        quota_rejections_->Add();
        backpressure_rejections_->Add();
        Reject(session.get(),
               Status::ResourceExhausted(std::string(which) +
                                         " in-flight raise quota exceeded"));
        continue;
      }
    }
    size_t target = RouteFrame(*session, frame, queues_.size());
    item.frame = std::move(frame);
    io->staging[target].push_back(std::move(item));
  }
  if (!protocol_error && offset > 0) session->inbuf.erase(0, offset);

  // Sync fast path: a drain that produced exactly one raise — the shape a
  // synchronous RPC client generates — executes it right here on the IO
  // thread when the target shard is idle, cutting the round trip from
  // three context switches (client → IO → worker → client) to two. The
  // shard's exec lock guarantees the worker is not mid-drain, and because
  // the worker only pops its queue while holding that lock (WorkerLoop),
  // an empty queue observed under it proves every previously admitted
  // frame has already been processed *and its ack queued* in the FIFO
  // outbox — nothing is overtaken.
  // Bursts keep the queue handoff: the worker's drain loop is where ack
  // coalescing pays for itself.
  {
    size_t staged_total = 0;
    size_t target = 0;
    for (size_t shard = 0; shard < io->staging.size(); ++shard) {
      staged_total += io->staging[shard].size();
      if (!io->staging[shard].empty()) target = shard;
    }
    if (staged_total == 1 &&
        io->staging[target][0].frame.type == FrameType::kRaiseEvent &&
        queues_[target]->size() == 0) {
      std::unique_lock<std::mutex> exec(*exec_mu_[target],
                                        std::try_to_lock);
      if (exec.owns_lock() && queues_[target]->size() == 0) {
        Database::BindRaiseShard(target);
        AckBatcher acks(this);
        ProcessItem(target, io->staging[target][0], &acks);
        acks.FlushAll();
        exec.unlock();
        acks.WriteQueued();
        io->staging[target].clear();
        inline_raises_->Add();
        return true;
      }
    }
  }

  for (size_t shard = 0; shard < io->staging.size(); ++shard) {
    std::vector<IngressItem>& staged = io->staging[shard];
    if (staged.empty()) continue;
    queues_[shard]->TryPushBatch(&staged);
    if (!staged.empty()) {
      // Backpressure (or shutdown): answer immediately from the IO thread
      // rather than buffering without bound.
      Status reject = queues_[shard]->shutdown()
                          ? Status::FailedPrecondition(
                                "ingress queue is shut down")
                          : Status::ResourceExhausted(
                                "ingress queue full (" +
                                std::to_string(queues_[shard]->capacity()) +
                                ")");
      for (IngressItem& item : staged) ReleaseRaise(&item);
      backpressure_rejections_->Add(staged.size());
      for (size_t i = 0; i < staged.size(); ++i) Reject(session.get(), reject);
      staged.clear();
    }
  }
  return true;
}

bool GatewayServer::FlushSocket(Session* session) {
  std::lock_guard<std::mutex> lock(session->wr_mu);
  return FlushSocketLocked(session);
}

void GatewayServer::WorkerFlush(const std::shared_ptr<Session>& session) {
  {
    std::unique_lock<std::mutex> lock(session->wr_mu, std::try_to_lock);
    if (lock.owns_lock() && session->fd >= 0 &&
        !session->closed.load(std::memory_order_acquire)) {
      // Write errors are left for the IO shard: a dead peer raises an
      // EPOLLERR/EPOLLHUP edge there, which reaps the session.
      FlushSocketLocked(session.get());
      if (session->wq.empty() && !session->HasOutput()) return;
    }
  }
  // Contention, residue, or a closed socket: hand the rest to the shard.
  session->NotifyFlush();
}

bool GatewayServer::OutboxDrained(Session* session) {
  std::lock_guard<std::mutex> lock(session->wr_mu);
  return session->wq.empty() && !session->HasOutput();
}

bool GatewayServer::FlushSocketLocked(Session* session) {
  if (session->fd < 0) return false;
  while (true) {
    session->TakeOutput(&session->wq);
    if (session->wq.empty()) return true;

    // One writev per drain pass: every queued chunk (up to kMaxIov) goes
    // out in a single syscall instead of a send() per reply.
    iovec iov[kMaxIov];
    size_t niov = 0;
    size_t skip = session->wq_offset;
    size_t staged_bytes = 0;
    for (const std::string& chunk : session->wq) {
      if (niov == kMaxIov) break;
      iov[niov].iov_base = const_cast<char*>(chunk.data()) + skip;
      iov[niov].iov_len = chunk.size() - skip;
      staged_bytes += iov[niov].iov_len;
      skip = 0;
      ++niov;
    }
    ssize_t n = ::writev(session->fd, iov, static_cast<int>(niov));
    if (n < 0) {
      // EAGAIN: kernel buffer full. The socket stays registered for
      // EPOLLOUT (edge-triggered), so the next writability edge resumes
      // from wq/wq_offset.
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    size_t written = static_cast<size_t>(n);
    while (written > 0) {
      size_t avail = session->wq.front().size() - session->wq_offset;
      if (written >= avail) {
        written -= avail;
        session->wq.pop_front();
        session->wq_offset = 0;
      } else {
        session->wq_offset += written;
        written = 0;
      }
    }
    if (static_cast<size_t>(n) < staged_bytes) {
      // Partial write: the kernel buffer just filled; wait for EPOLLOUT
      // instead of burning another syscall on a guaranteed EAGAIN.
      return true;
    }
  }
}

void GatewayServer::DrainFlushQueue(IoShard* io) {
  std::vector<uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(io->flush_mu);
    ids.swap(io->flush_ids);
  }
  for (uint64_t id : ids) {
    auto it = io->sessions.find(id);
    if (it == io->sessions.end()) continue;
    std::shared_ptr<Session> session = it->second;
    // Re-arm before flushing: a reply queued mid-flush re-queues the
    // session rather than being stranded.
    session->flush_queued.store(false, std::memory_order_release);
    bool alive = FlushSocket(session.get());
    if (alive && session->drop_after_flush &&
        OutboxDrained(session.get())) {
      alive = false;
    }
    if (!alive) CloseSession(io, id);
  }
}

// --- Worker threads ----------------------------------------------------------

void GatewayServer::WorkerLoop(size_t shard) {
  // Pin this thread to its raise shard: every facade call below — raises,
  // transactions, forwarded-trigger rounds — now uses shard-local state.
  Database::BindRaiseShard(shard);
  IngressQueue* queue = queues_[shard].get();
  const bool sharded = queues_.size() > 1;
  AckBatcher acks(this);
  std::vector<IngressItem> batch;
  while (true) {
    batch.clear();
    auto now = std::chrono::steady_clock::now();
    // Parked long-polls are expired by shard 0 only (one scan, not N);
    // other shards just use the idle wait.
    auto deadline = shard == 0 ? hub_->NextDeadline(now + kMutatorIdleWait)
                               : now + kMutatorIdleWait;
    auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - now);
    if (wait < std::chrono::milliseconds(1)) {
      wait = std::chrono::milliseconds(1);
    }
    // Wait for work *outside* the exec lock, then pop *under* it: an item
    // must never leave the queue before this thread holds exec_mu_. The IO
    // threads' inline fast path infers "no admitted frame is ahead of mine"
    // from an empty queue observed under that lock, which only holds if
    // every popped item is processed and its ack queued before the lock is
    // released — popping first would let an inline raise overtake a
    // same-session request the worker had taken but not yet executed.
    queue->WaitReady(wait);
    size_t n = 0;
    {
      // The exec lock serializes this shard's mutator rounds against IO
      // threads running the inline sync fast path.
      std::lock_guard<std::mutex> exec(*exec_mu_[shard]);
      n = queue->PopBatch(options_.max_batch, std::chrono::milliseconds(0),
                          &batch);
      for (size_t i = 0; i < n; ++i) ProcessItem(shard, batch[i], &acks);
      // End of drain: coalesced acks are queued now, in order, and written
      // below once the lock is free.
      acks.FlushAll();
      // Run rules other shards forwarded to us while we were busy (or
      // idle — the WaitReady above bounds how long a forwarded trigger
      // sits).
      if (sharded) db_->DrainForwarded();
    }
    // Write the acks outside the exec lock: a sync client answered under
    // it would send its next raise while the lock is still held, miss the
    // inline path's try-lock and queue — and the miss would repeat with
    // every ack. Outboxes are FIFO, so the write adds no reordering.
    acks.WriteQueued();
    if (shard == 0) {
      hub_->ExpireParkedFetches(std::chrono::steady_clock::now());
    }
    // Exit predicate, evaluated atomically: `n == 0 && queue->shutdown()`
    // would decide from a stale pop count — a frame admitted between this
    // drain's empty pop and a separate shutdown() read would be stranded
    // (admitted, never processed, never acked). The shm doorbell protocol
    // re-checks its rings after arming the park for the same reason
    // (DESIGN.md §14).
    if (queue->DrainedAfterShutdown()) break;
  }
}

void GatewayServer::AckBatcher::Ack(const std::shared_ptr<Session>& session,
                                    const StatusReplyMsg& msg) {
  Pending* p = nullptr;
  for (Pending& candidate : pending_) {
    if (candidate.session.get() == session.get()) {
      p = &candidate;
      break;
    }
  }
  if (p == nullptr) {
    pending_.push_back(Pending{session, {}, 0});
    p = &pending_.back();
  }
  if (!p->runs.empty()) {
    BatchStatusReplyMsg::Run& last = p->runs.back();
    if (last.code == msg.code && last.message == msg.message &&
        last.payload == msg.payload) {
      ++last.count;
      ++p->total;
      return;
    }
  }
  p->runs.push_back(
      BatchStatusReplyMsg::Run{1, msg.code, msg.message, msg.payload});
  ++p->total;
}

void GatewayServer::AckBatcher::FlushSession(Session* session) {
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].session.get() != session) continue;
    Emit(&pending_[i]);
    pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(i));
    return;
  }
}

void GatewayServer::AckBatcher::FlushAll() {
  for (Pending& p : pending_) Emit(&p);
  pending_.clear();
}

void GatewayServer::AckBatcher::WriteQueued() {
  for (const std::shared_ptr<Session>& session : queued_) {
    server_->WorkerFlush(session);
  }
  queued_.clear();
}

void GatewayServer::AckBatcher::Emit(Pending* p) {
  if (p->total == 0) return;
  // Queue quietly; WriteQueued later tries to write from this thread:
  // when the writer lock is uncontended the ack skips the wake-pipe
  // handoff to the IO shard entirely, which roughly halves sync-RPC
  // round-trip cost.
  Encoder enc;
  if (p->total == 1) {
    // A lone ack is cheaper as the plain frame.
    StatusReplyMsg msg;
    msg.code = p->runs[0].code;
    msg.message = p->runs[0].message;
    msg.payload = p->runs[0].payload;
    msg.Encode(&enc);
    p->session->QueueReplyQuiet(FrameType::kStatusReply, enc.buffer());
  } else {
    BatchStatusReplyMsg batch;
    batch.runs = std::move(p->runs);
    batch.Encode(&enc);
    p->session->QueueReplyQuiet(FrameType::kBatchStatusReply, enc.buffer());
    server_->batched_acks_->Add(p->total);
  }
  if (queued_.empty() || queued_.back() != p->session) {
    queued_.push_back(p->session);
  }
}

void GatewayServer::ProcessItem(size_t shard, IngressItem& item,
                                AckBatcher* acks) {
  // Credit the quota back no matter how this item resolves.
  ChargeRelease release{item};
  const std::shared_ptr<Session>& session = item.session;
  if (session->closed.load(std::memory_order_acquire)) {
    return;  // Disconnected while queued; nobody is listening.
  }
  requests_processed_->Add();

  const std::string& body = item.frame.body;
  if (item.frame.type != FrameType::kRaiseEvent) {
    // Any non-raise reply flushes the session's coalesced acks first so
    // the client still observes strict reply order.
    acks->FlushSession(session.get());
  }
  switch (item.frame.type) {
    case FrameType::kPing: {
      Result<PingMsg> msg = PingMsg::Decode(body);
      if (!msg.ok()) return Reject(session.get(), msg.status());
      PongMsg pong;
      pong.token = msg->token;
      session->Reply(FrameType::kPong, pong);
      return;
    }
    case FrameType::kRaiseEvent: {
      Result<RaiseEventMsg> msg = RaiseEventMsg::Decode(body);
      acks->Ack(session, msg.ok()
                             ? HandleRaiseEvent(shard, *msg)
                             : StatusReplyMsg::FromStatus(msg.status()));
      return;
    }
    case FrameType::kCreateRule: {
      Result<CreateRuleMsg> msg = CreateRuleMsg::Decode(body);
      session->Reply(FrameType::kStatusReply,
                     msg.ok() ? HandleCreateRule(*msg)
                              : StatusReplyMsg::FromStatus(msg.status()));
      return;
    }
    case FrameType::kEnableRule:
    case FrameType::kDisableRule: {
      Result<RuleNameMsg> msg = RuleNameMsg::Decode(body);
      session->Reply(
          FrameType::kStatusReply,
          msg.ok() ? HandleRuleToggle(
                         *msg, item.frame.type == FrameType::kEnableRule)
                   : StatusReplyMsg::FromStatus(msg.status()));
      return;
    }
    case FrameType::kSubscribe: {
      Result<SubscribeMsg> msg = SubscribeMsg::Decode(body);
      session->Reply(FrameType::kStatusReply,
                     msg.ok() ? HandleSubscribe(session, *msg)
                              : StatusReplyMsg::FromStatus(msg.status()));
      return;
    }
    case FrameType::kFetchNotifications: {
      Result<FetchMsg> msg = FetchMsg::Decode(body);
      if (!msg.ok()) return Reject(session.get(), msg.status());
      HandleFetch(session, *msg);
      return;
    }
    case FrameType::kHello: {
      Result<HelloMsg> msg = HelloMsg::Decode(body);
      if (!msg.ok()) return Reject(session.get(), msg.status());
      HandleHello(session, *msg);
      return;
    }
    case FrameType::kGetStats: {
      Result<StatsRequestMsg> msg = StatsRequestMsg::Decode(body);
      if (!msg.ok()) return Reject(session.get(), msg.status());
      HandleGetStats(session.get(), *msg);
      return;
    }
    case FrameType::kHistoryScan: {
      Result<HistoryScanMsg> msg = HistoryScanMsg::Decode(body);
      if (!msg.ok()) return Reject(session.get(), msg.status());
      HandleHistoryScan(session.get(), *msg);
      return;
    }
    case FrameType::kReplSubscribe: {
      Result<ReplSubscribeMsg> msg = ReplSubscribeMsg::Decode(body);
      if (!msg.ok()) return Reject(session.get(), msg.status());
      HandleReplSubscribe(session.get(), *msg);
      return;
    }
    default:
      return Reject(session.get(),
                    Status::InvalidArgument("frame type is not a request"));
  }
}

Result<ReactiveObject*> GatewayServer::RelayFor(size_t shard,
                                                const std::string& class_name,
                                                const std::string& method,
                                                uint64_t oid) {
  ShardRelays& relays = relays_[shard];
  if (oid != 0) {
    // An application-registered live object wins: remote raises address
    // the same instance local code sees. Relays are live too, so this one
    // probe also finds every relay already made for `oid`.
    if (ReactiveObject* live = db_->FindLiveObject(oid)) {
      if (live->class_name() != class_name) {
        return Status::InvalidArgument(
            "oid " + std::to_string(oid) + " is a " + live->class_name() +
            ", not a " + class_name);
      }
      return live;
    }
    auto it = relays.by_oid.find(oid);
    if (it != relays.by_oid.end()) {
      if (it->second.class_name() == class_name) {
        return &it->second;  // Displaced from the live map, still ours.
      }
      relays.by_oid.erase(it);  // Displaced for good; not live, so free.
    }
  }
  SENTINEL_ASSIGN_OR_RETURN(std::unique_ptr<ReactiveObject>* default_relay,
                            DefaultRelaySlot(shard, class_name, method));
  if (oid == 0) {
    if (*default_relay == nullptr) {
      auto relay = std::make_unique<ReactiveObject>(class_name);
      SENTINEL_RETURN_IF_ERROR(db_->RegisterLiveObject(relay.get()));
      *default_relay = std::move(relay);
    }
    return default_relay->get();
  }
  ReactiveObject& relay =
      relays.by_oid.try_emplace(oid, class_name, static_cast<Oid>(oid))
          .first->second;
  Status registered = db_->RegisterLiveObject(&relay);
  if (!registered.ok()) {
    relays.by_oid.erase(oid);
    return registered;
  }
  return &relay;
}

Result<std::unique_ptr<ReactiveObject>*> GatewayServer::DefaultRelaySlot(
    size_t shard, const std::string& class_name, const std::string& method) {
  auto& by_class = relays_[shard].by_class;
  auto it = by_class.find(class_name);
  if (it != by_class.end()) return &it->second;
  // Catalog classes are never dropped, so one check per shard suffices.
  // An unknown class is registered on first raise (reactive, with the
  // raised method designated begin+end).
  if (!db_->catalog()->HasClass(class_name)) {
    SENTINEL_RETURN_IF_ERROR(db_->RegisterClass(
        ClassBuilder(class_name)
            .Reactive()
            .Method(method, {.begin = true, .end = true})
            .Build()));
  }
  return &by_class[class_name];
}

StatusReplyMsg GatewayServer::HandleRaiseEvent(size_t shard,
                                               RaiseEventMsg& msg) {
  if (db_->is_replica()) {
    // Read-only replica (or a fenced ex-primary): producers must redial
    // the current primary. FailedPrecondition is deliberate — it is not a
    // transient the client retry policy would spin on.
    return StatusReplyMsg::FromStatus(
        Status::FailedPrecondition("replica is read-only"));
  }
  if (FailPoints::AnyActive()) {
    Status fp = FailPoints::Instance().Check("gateway.raise");
    if (!fp.ok()) return StatusReplyMsg::FromStatus(fp);
  }
  Result<ReactiveObject*> relay =
      RelayFor(shard, msg.class_name, msg.method, msg.oid);
  if (!relay.ok()) return StatusReplyMsg::FromStatus(relay.status());

  ReactiveObject* object = *relay;
  Status s = db_->WithTransaction([&](Transaction*) {
    object->RaiseEvent(msg.method, msg.modifier, std::move(msg.params));
    return Status::OK();
  });
  return StatusReplyMsg::FromStatus(s, static_cast<uint64_t>(object->oid()));
}

StatusReplyMsg GatewayServer::HandleCreateRule(const CreateRuleMsg& msg) {
  if (db_->is_replica()) {
    return StatusReplyMsg::FromStatus(
        Status::FailedPrecondition("replica is read-only"));
  }
  Result<EventSignature> sig = EventSignature::Parse(msg.event_signature);
  if (!sig.ok()) return StatusReplyMsg::FromStatus(sig.status());

  // The triggering class must exist so the rule has an extent to watch.
  if (!db_->catalog()->HasClass(sig->class_name)) {
    Status reg = db_->RegisterClass(
        ClassBuilder(sig->class_name)
            .Reactive()
            .Method(sig->method, {.begin = true, .end = true})
            .Build());
    if (!reg.ok()) return StatusReplyMsg::FromStatus(reg);
  }

  Result<EventPtr> event = db_->CreatePrimitiveEvent(msg.event_signature);
  if (!event.ok()) return StatusReplyMsg::FromStatus(event.status());

  RuleSpec spec;
  spec.name = msg.name;
  spec.event = *event;
  spec.condition_name = msg.condition_name;
  spec.action_name =
      msg.action_name.empty() ? kNotifySubscribersAction : msg.action_name;
  spec.coupling = static_cast<CouplingMode>(msg.coupling);
  spec.priority = static_cast<int>(msg.priority);
  spec.enabled = msg.enabled;

  Result<RulePtr> rule = db_->DeclareClassRule(sig->class_name, spec);
  if (!rule.ok()) return StatusReplyMsg::FromStatus(rule.status());
  return StatusReplyMsg::FromStatus(Status::OK(),
                                    static_cast<uint64_t>((*rule)->oid()));
}

StatusReplyMsg GatewayServer::HandleRuleToggle(const RuleNameMsg& msg,
                                               bool enable) {
  Result<RulePtr> rule = db_->rules()->GetRule(msg.name);
  if (!rule.ok()) return StatusReplyMsg::FromStatus(rule.status());
  if (enable) {
    (*rule)->Enable();
  } else {
    (*rule)->Disable();
  }
  return StatusReplyMsg::FromStatus(Status::OK());
}

StatusReplyMsg GatewayServer::HandleSubscribe(
    const std::shared_ptr<Session>& session, const SubscribeMsg& msg) {
  hub_->Subscribe(session, msg.key);
  return StatusReplyMsg::FromStatus(Status::OK());
}

void GatewayServer::HandleHello(const std::shared_ptr<Session>& session,
                                const HelloMsg& msg) {
  session->tenant.store(TenantFor(msg.tenant), std::memory_order_release);
  HelloReplyMsg reply;
  reply.max_frame_body = options_.max_frame_body;
  reply.server = "sentinel-gateway/" + std::to_string(kProtocolV2);
  session->Reply(FrameType::kHelloReply, reply);
}

void GatewayServer::HandleFetch(const std::shared_ptr<Session>& session,
                                const FetchMsg& msg) {
  {
    std::lock_guard<std::mutex> note(session->note_mu);
    if (!session->pending.empty() || msg.wait_ms == 0) {
      ReplyWithBatchLocked(session.get(), msg.max);
      return;
    }
    if (session->fetch_parked) {
      // One long-poll per session: a sane client never overlaps them.
      return Reject(session.get(),
                    Status::FailedPrecondition(
                        "a fetch is already parked on this session"));
    }
  }
  hub_->ParkFetch(session, msg.max,
                  std::chrono::steady_clock::now() +
                      std::chrono::milliseconds(msg.wait_ms));
  // A Broadcast between the check above and ParkFetch would have appended
  // to pending without seeing the park; complete immediately in that case
  // (the stale deadline entry is lazily skipped).
  {
    std::lock_guard<std::mutex> note(session->note_mu);
    if (session->fetch_parked && !session->pending.empty()) {
      session->fetch_parked = false;
      ReplyWithBatchLocked(session.get(), msg.max);
    }
  }
}

std::string GatewayServer::BuildStatsJson(uint32_t sections) const {
  std::string out = "{";
  bool first = true;
  if (sections & StatsRequestMsg::kDatabase) {
    out.append("\"db\":");
    out.append(db_->StatsSnapshot().ToJson());
    first = false;
  }
  if (sections & StatsRequestMsg::kGateway) {
    if (!first) out.push_back(',');
    GatewayStats s = stats();
    size_t depth = 0;
    size_t capacity = 0;
    for (const auto& queue : queues_) {
      depth += queue->size();
      capacity += queue->capacity();
    }
    out.append("\"gateway\":{\"sessions\":");
    out.append(std::to_string(hub_->size()));
    out.append(",\"shards\":");
    out.append(std::to_string(queues_.size()));
    out.append(",\"io_threads\":");
    out.append(std::to_string(io_shards_.size()));
    out.append(",\"tenants\":");
    out.append(std::to_string(tenant_count()));
    out.append(",\"ingress_depth\":");
    out.append(std::to_string(depth));
    out.append(",\"ingress_capacity\":");
    out.append(std::to_string(capacity));
    out.push_back(',');
    AppendCounters(s, /*shm=*/false, &out);
    if (shm_host_ != nullptr) {
      out.append(",\"shm\":{");
      AppendCounters(s, /*shm=*/true, &out);
      out.push_back('}');
    }
    out.push_back('}');
  }
  out.push_back('}');
  return out;
}

void GatewayServer::HandleGetStats(Session* session,
                                   const StatsRequestMsg& msg) {
  StatsReplyMsg reply;
  reply.json = BuildStatsJson(msg.sections);
  session->Reply(FrameType::kStatsReply, reply);
}

void GatewayServer::HandleHistoryScan(Session* session,
                                      const HistoryScanMsg& msg) {
  // Hard row ceiling regardless of the request; the rows' bytes are bounded
  // separately below. `complete` tells the client it was clamped.
  constexpr uint32_t kMaxScanItems = 4096;
  const uint32_t limit = msg.limit == 0
                             ? kMaxScanItems
                             : std::min(msg.limit, kMaxScanItems);
  HistoryQuery query;
  query.min_seq = msg.min_seq;
  query.max_seq = msg.max_seq;
  if (msg.min_micros != 0) query.min_micros = msg.min_micros;
  if (msg.max_micros != 0) query.max_micros = msg.max_micros;
  if (msg.oid != 0) query.oid = msg.oid;
  query.after_seq = msg.after_seq;
  // One row past the page tells a full page from a clamped one.
  query.limit = static_cast<size_t>(limit) + 1;
  std::vector<EventOccurrence> rows;
  Status s = db_->HistoryScan(query, &rows);
  if (!s.ok()) return Reject(session, s);
  HistoryBatchMsg reply;
  reply.complete = rows.size() <= limit;
  if (!reply.complete) rows.resize(limit);
  reply.next_seq = msg.after_seq;
  reply.items.reserve(rows.size());
  size_t used = 0;
  for (const EventOccurrence& occ : rows) {
    Notification n = FromOccurrence("", occ);
    Encoder probe;
    n.Encode(&probe);
    if (!FitsReply(probe.size(), &used)) {
      if (used == 0) {
        return Reject(session, ReplyRowTooLarge("history row seq " +
                                    std::to_string(occ.timestamp.seq),
                                probe.size()));
      }
      reply.complete = false;  // The client's frame cap: page on.
      break;
    }
    reply.next_seq = occ.timestamp.seq;
    reply.items.push_back(std::move(n));
  }
  session->Reply(FrameType::kHistoryBatch, reply);
}

void GatewayServer::HandleReplSubscribe(Session* session,
                                        const ReplSubscribeMsg& msg) {
  if (repl_ == nullptr) {
    return Reject(session, Status::FailedPrecondition(
                               "replication not enabled on this node"));
  }
  ReplBatchMsg reply;
  Status s = repl_->HandleReplSubscribe(msg, &reply);
  if (!s.ok()) return Reject(session, s);
  session->Reply(FrameType::kReplBatch, reply);
}

}  // namespace net
}  // namespace sentinel
