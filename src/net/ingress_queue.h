// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// IngressQueue: the bounded multi-producer / single-consumer funnel between
// the gateway's socket side and the Database facade.
//
// The paper's system (and this reproduction's core) assumes a single mutator
// thread; the gateway keeps that model intact by letting N socket threads
// enqueue decoded request frames here while exactly one mutator thread
// drains them in batches. Capacity is bounded: when the mutator falls
// behind, TryPush fails with ResourceExhausted and the caller answers the
// client with backpressure instead of growing memory without limit.
//
// Ordering guarantee: global FIFO, which implies FIFO per producer — a
// producer's second request is never applied before its first.

#ifndef SENTINEL_NET_INGRESS_QUEUE_H_
#define SENTINEL_NET_INGRESS_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "net/wire.h"

namespace sentinel {
namespace net {

class Session;
struct TenantState;

/// One queued request: the originating session (pinned by shared_ptr so a
/// worker never races a reap — it checks session->closed instead), the
/// decoded frame, and, for admitted raises, the tenant whose in-flight
/// counter was charged at admission. The worker credits that exact tenant
/// back when it acks, so quota accounting balances even when the session's
/// tenant changes (Hello) while frames are queued.
struct IngressItem {
  std::shared_ptr<Session> session;
  TenantState* charged_tenant = nullptr;  ///< Non-null only for raises.
  Frame frame;
};

/// Bounded MPSC queue of gateway requests. All methods are thread safe.
class IngressQueue {
 public:
  /// Mirrors the live depth into the net.ingress.depth<suffix> gauge
  /// (updated on every push/pop) and rejections into
  /// net.ingress.rejected<suffix>. `suffix` distinguishes per-shard queues
  /// (e.g. ".s1") so concurrent queues do not fight over one depth gauge;
  /// shard 0 keeps the unsuffixed names.
  IngressQueue(size_t capacity, MetricsRegistry& metrics,
               const std::string& suffix = "");

  IngressQueue(const IngressQueue&) = delete;
  IngressQueue& operator=(const IngressQueue&) = delete;

  /// Enqueues without blocking. ResourceExhausted when the queue is at
  /// capacity (the backpressure signal), FailedPrecondition after Shutdown.
  Status TryPush(IngressItem item);

  /// Pushes as many of `*items` as capacity allows under one lock
  /// acquisition, consuming accepted items from the front (order
  /// preserved). Returns the number accepted; whatever remains in `*items`
  /// was rejected (backpressure, or shutdown) and is counted as such. The
  /// IO thread uses this to amortize the queue mutex across a read burst.
  size_t TryPushBatch(std::vector<IngressItem>* items);

  /// Pops up to `max_batch` items into `*out` (appended), blocking up to
  /// `wait` for the first one. Returns the number popped; 0 means the wait
  /// timed out or the queue is shut down *and* fully drained. Items already
  /// in flight at Shutdown are still delivered, so the consumer can finish
  /// cleanly: loop until Shutdown has been called and PopBatch returns 0.
  size_t PopBatch(size_t max_batch, std::chrono::milliseconds wait,
                  std::vector<IngressItem>* out);

  /// Blocks up to `wait` until the queue is nonempty or shut down, without
  /// popping anything; returns true in either of those cases. Lets the
  /// single consumer wait for work *before* taking locks that the
  /// pop-and-process step must run under (there is no other consumer to
  /// steal the items between the wait and the pop).
  bool WaitReady(std::chrono::milliseconds wait);

  /// Stops accepting pushes and wakes blocked consumers. Idempotent.
  void Shutdown();

  /// True once Shutdown() has been called *and* every admitted item has
  /// been popped — the consumer's exit predicate. Evaluating both under
  /// one lock is the point: deciding from a stale PopBatch count plus a
  /// separate shutdown() read lets a frame admitted between the two
  /// observations be stranded forever (admitted, never processed, never
  /// acked). Safe because TryPush rejects under the same mutex once
  /// shutdown_ is set: a true result can never be invalidated by a later
  /// push.
  bool DrainedAfterShutdown() const;

  bool shutdown() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<IngressItem> items_;
  bool shutdown_ = false;
  Gauge* const m_depth_;
  Counter* const m_rejected_;
};

}  // namespace net
}  // namespace sentinel

#endif  // SENTINEL_NET_INGRESS_QUEUE_H_
