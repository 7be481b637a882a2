// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Session: per-connection state of the event gateway, and NotificationHub:
// the registry that fans occurrences out to subscribed sessions.
//
// Thread ownership is strict (TSan-checked):
//   * inbuf / fd close — the owning IO shard's thread only (sessions are
//     pinned to one epoll thread for life).
//   * socket writes and the wq/wq_offset partial-write state — guarded by
//     the per-session wr_mu: the IO shard flushes on epoll edges, and a
//     worker that just queued an ack may flush directly when the writer
//     lock is uncontended (the sync-RPC fast path that skips one
//     worker→IO-thread handoff). The fd is closed under wr_mu so a direct
//     flush never races a concurrently reused descriptor.
//   * subscriptions / pending notifications / parked fetch — guarded by the
//     per-session note_mu: the session's owning worker parks fetches while
//     any raising worker's Broadcast may complete them, and the IO thread
//     reaps them on disconnect.
//   * the encoded outbox — shared; guarded by a per-session mutex, because
//     workers queue replies while the IO thread drains chunks, and a
//     backpressure rejection is queued directly from the IO thread.
//   * closed / inflight_raises / tenant — atomics crossed between
//     the IO shard and workers.
//
// Lock order: note_mu before out_mu_ (ReplyWithBatch queues the reply while
// holding note_mu); the hub's registry mutex is never held across either.

#ifndef SENTINEL_NET_SESSION_H_
#define SENTINEL_NET_SESSION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "net/wire.h"

namespace sentinel {
namespace net {

/// Admission-quota domain shared by every session that said Hello with the
/// same tenant name (plus one default domain for everything else). Owned by
/// the server; sessions hold raw pointers that stay valid until Stop().
struct TenantState {
  explicit TenantState(std::string name) : name(std::move(name)) {}
  const std::string name;
  std::atomic<uint32_t> inflight_raises{0};
};

/// One accepted gateway connection.
class Session {
 public:
  Session(uint64_t id, int fd) : fd(fd), id_(id) {}

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  uint64_t id() const { return id_; }

  /// Encodes (type, body) into a frame and appends it to the outbox.
  /// Invokes the flush notifier (outside the outbox lock) when the outbox
  /// was empty, so the owning IO shard learns it has bytes to write. A
  /// body no frame can carry (over kFrameBodyLimit) is answered with an
  /// error StatusReply in its place.
  void QueueReply(FrameType type, const std::string& body);

  /// QueueReply without invoking the flush notifier; true when the outbox
  /// was empty. The caller takes on the obligation to either flush the
  /// outbox itself or call NotifyFlush() — used by the worker direct-flush
  /// fast path, which only wakes the IO shard when its own flush left
  /// residue.
  bool QueueReplyQuiet(FrameType type, const std::string& body);

  /// Invokes the flush notifier unconditionally (pairs with
  /// QueueReplyQuiet when the direct flush could not finish the job).
  void NotifyFlush() {
    if (flush_notifier_) flush_notifier_(this);
  }

  /// Encodes `msg` into `type` and queues it.
  template <typename Msg>
  void Reply(FrameType type, const Msg& msg) {
    Encoder enc;
    msg.Encode(&enc);
    QueueReply(type, enc.buffer());
  }

  /// Appends all queued outbox chunks to `*wq` (the IO thread's write
  /// queue), preserving order with chunks the caller still holds from a
  /// partial writev.
  void TakeOutput(std::deque<std::string>* wq);

  bool HasOutput() const;

  /// Called whenever queued output transitions empty -> nonempty. Set once
  /// at accept time, before the session is shared with other threads.
  void SetFlushNotifier(std::function<void(Session*)> fn) {
    flush_notifier_ = std::move(fn);
  }

  // --- IO-shard state (owning epoll thread only) -------------------------------

  int fd = -1;                ///< Socket; closed (and set to -1) under wr_mu.
  size_t io_shard = 0;        ///< Which epoll thread owns this socket.
  std::string inbuf;          ///< Unparsed received bytes.
  bool drop_after_flush = false;  ///< Close once the outbox drains
                                  ///< (set after a protocol error).

  // --- Writer state (guarded by wr_mu) -----------------------------------------

  std::mutex wr_mu;           ///< Serializes socket writes and wq state.
  std::deque<std::string> wq; ///< Chunks taken from the outbox, writev'd.
  size_t wq_offset = 0;       ///< Bytes of wq.front() already sent.

  // --- Cross-thread flags ------------------------------------------------------

  std::atomic<bool> closed{false};       ///< Set when the IO shard reaps.
  std::atomic<bool> flush_queued{false}; ///< Deduplicates flush requests.
  std::atomic<uint32_t> inflight_raises{0};  ///< Admitted, not yet acked.
  std::atomic<TenantState*> tenant{nullptr};

  // --- Notification state (guarded by note_mu) --------------------------------

  std::mutex note_mu;                 ///< Guards everything below.
  std::set<std::string> subscriptions;
  std::deque<Notification> pending;   ///< Undelivered notifications.
  size_t pending_bytes = 0;           ///< Approximate bytes of `pending`.
  uint64_t dropped_notifications = 0; ///< Trimmed past the per-session caps.
  bool fetch_parked = false;          ///< A FetchNotifications waits here.
  uint32_t fetch_max = 0;
  std::chrono::steady_clock::time_point fetch_deadline{};

 private:
  const uint64_t id_;
  mutable std::mutex out_mu_;
  std::deque<std::string> outbox_;  ///< Encoded frames, coalesced in chunks.
  std::function<void(Session*)> flush_notifier_;
};

/// Per-session cap on the approximate bytes of pending notifications.
/// Past it (or past the count cap Broadcast takes) the oldest pending
/// entries are trimmed: delivery stays lossy-FIFO, the drop is counted, and
/// the session keeps draining.
constexpr size_t kMaxPendingNotifyBytes = 4u << 20;

/// Registry of live sessions plus the subscription fan-out. Owned via
/// shared_ptr by the server *and* by the gateway's rule-action closure, so
/// a rule firing after the server stopped broadcasts into an empty hub
/// instead of a dangling pointer.
///
/// Fan-out is indexed: Broadcast touches only the sessions subscribed to
/// the key (a key -> session-id index maintained by Subscribe/Remove), and
/// parked long-polls sit in a deadline-ordered multimap so expiry pops due
/// entries instead of scanning every session. Both structures keep
/// Broadcast/expiry cost independent of the total session count — the
/// property the 10K-session plane is built on.
class NotificationHub {
 public:
  /// Broadcast tallies net.notifications.enqueued/.dropped into `metrics`
  /// and records each reached session's post-enqueue pending-queue depth
  /// into net.session.backlog.
  explicit NotificationHub(MetricsRegistry& metrics)
      : m_enqueued_(metrics.counter("net.notifications.enqueued")),
        m_dropped_(metrics.counter("net.notifications.dropped")),
        m_backlog_(metrics.histogram("net.session.backlog")) {}

  void Add(std::shared_ptr<Session> session);
  std::shared_ptr<Session> Find(uint64_t id) const;

  /// Deregisters the session and reaps its notification state: a fetch
  /// still parked when the socket dies is cancelled here, so Broadcast and
  /// the expiry scan never resurrect a dead session's long-poll, and its
  /// subscriptions leave the fan-out index with it.
  void Remove(uint64_t id);
  void Clear();
  size_t size() const;
  std::vector<std::shared_ptr<Session>> Snapshot() const;

  /// Adds `key` to the session's subscriptions and the fan-out index (any
  /// worker thread).
  void Subscribe(const std::shared_ptr<Session>& session,
                 const std::string& key);

  /// Parks a long-poll fetch on the session and registers its deadline for
  /// expiry (worker thread). The caller must have verified no fetch is
  /// already parked.
  void ParkFetch(const std::shared_ptr<Session>& session, uint32_t max,
                 std::chrono::steady_clock::time_point deadline);

  /// Delivers `make()` to every session subscribed to `key` (mutator
  /// thread): appends to the session's pending queue (FIFO-trimmed past
  /// `max_count` entries or kMaxPendingNotifyBytes) and completes a parked
  /// fetch right away. `make` runs once, and only when `key` has
  /// subscribers. Returns the number of sessions reached.
  size_t Broadcast(const std::string& key,
                   const std::function<Notification()>& make,
                   size_t max_count);

  /// Answers parked fetches whose deadline passed with whatever is pending
  /// (possibly an empty batch). Pops only due entries. Returns the
  /// expired-fetch count.
  size_t ExpireParkedFetches(std::chrono::steady_clock::time_point now);

  /// Earliest parked-fetch deadline, or `fallback` when none is parked.
  std::chrono::steady_clock::time_point NextDeadline(
      std::chrono::steady_clock::time_point fallback) const;

 private:
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<Session>> sessions_;
  /// Fan-out index: subscription key -> subscribed session ids.
  std::map<std::string, std::set<uint64_t>> subs_by_key_;
  /// Deadline-ordered parked fetches. Entries are lazily invalidated: a
  /// park completed early by Broadcast leaves its entry behind, and expiry
  /// skips it because the session is no longer parked.
  std::multimap<std::chrono::steady_clock::time_point, uint64_t> parked_;
  /// Live subscription count across all sessions. Broadcast runs on every
  /// raising worker for every occurrence; this lets the no-subscriber case
  /// (the throughput path) return without taking any lock.
  std::atomic<size_t> sub_count_{0};
  Counter* const m_enqueued_;
  Counter* const m_dropped_;
  Histogram* const m_backlog_;

  /// Clears one session's notification state; returns the keys freed so
  /// the caller can drop them from the fan-out index.
  std::vector<std::string> ReapSessionState(Session* session);
};

/// Same as ReplyWithBatch but the caller already holds session->note_mu.
void ReplyWithBatchLocked(Session* session, uint32_t max);

/// Drains up to `max` pending notifications into a batch reply and queues
/// it on the session (mutator thread).
void ReplyWithBatch(Session* session, uint32_t max);

}  // namespace net
}  // namespace sentinel

#endif  // SENTINEL_NET_SESSION_H_
