// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// ShmHost: the gateway-side end of the shared-memory local transport.
//
// The host owns the segment (create/initialise/unlink) and runs one intake
// thread that scans the per-producer job rings, decodes committed frames,
// and feeds them into the *same* per-shard IngressQueues the TCP gateway
// uses, admitting and routing each through the gateway's own ChargeRaise /
// RouteFrame — so sharding, admission quotas, worker ordering, metrics, and
// ack batching are shared, not reimplemented. Each attached ring is fronted by
// a socketless net::Session (fd = -1): workers ack through
// the normal AckBatcher path, the session's flush notifier lands the
// encoded reply frames in the ring's completion region, and the handle
// decodes them exactly as a TCP client would.
//
// Flow control is lossless by deferral: when a shard queue is full or an
// admission quota is at its cap, the host simply stops advancing that
// ring's job_head — the producer sees a full ring and blocks, instead of
// receiving interleaved rejections that would reorder acks.
//
// Crash safety: a handle that dies leaves at worst a torn record past its
// committed job_tail (never visible to the host) and a charged-but-unacked
// run of admitted frames. The host's periodic pid-liveness sweep reclaims
// the ring: the fronting session is marked closed (workers skip its queued
// items, quota charges still credit back), cursors are reset, and the slot
// returns to kRingFree for the next attacher.

#ifndef SENTINEL_SHMTP_HOST_H_
#define SENTINEL_SHMTP_HOST_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "net/ingress_queue.h"
#include "net/server.h"
#include "net/session.h"
#include "shmtp/layout.h"

namespace sentinel {
namespace shmtp {

class ShmHost {
 public:
  /// Hooks into the owning gateway. All queues/pointers must outlive the
  /// host (the server guarantees this by stopping intake before tearing
  /// either down).
  struct Env {
    std::vector<net::IngressQueue*> queues;  ///< One per raise shard.
    net::TenantState* default_tenant = nullptr;
    std::function<uint64_t()> alloc_session_id;
    /// Registry the intake counts into (the gateway's database registry).
    MetricsRegistry* metrics = nullptr;
  };

  /// Reads the gateway's `options`: shm_segment (shm_open name, must start
  /// with '/'), shm_rings, max_frame_body and the admission quotas.
  ShmHost(const net::ServerOptions& options, Env env);
  ~ShmHost();

  ShmHost(const ShmHost&) = delete;
  ShmHost& operator=(const ShmHost&) = delete;

  /// Creates + maps + initialises the segment and starts the intake
  /// thread. A stale segment with the same name (a previous host that
  /// crashed) is unlinked first.
  Status Start();

  /// Stops the intake thread and marks the segment kHostShutdown so
  /// handles stop pushing. Completion writes from gateway workers remain
  /// valid until destruction — call this *before* shutting the ingress
  /// queues down, destroy after the workers are joined.
  void StopIntake();

 private:
  /// Host-private (non-shared) per-ring state.
  struct Ring {
    /// One decoded frame awaiting admission, with its precomputed shard.
    struct Pending {
      size_t shard = 0;
      net::IngressItem item;
    };

    /// Guards `session` and serializes completion-region writes against
    /// reclaim. Worker flush notifiers take it; the intake thread takes it
    /// only on attach/reclaim transitions.
    std::mutex mu;
    std::shared_ptr<net::Session> session;
    /// Decoded-but-not-admitted frames (deferred on backpressure/quota).
    /// Their job-ring bytes are already consumed; admission order is kept.
    std::vector<Pending> deferred;
    size_t deferred_offset = 0;  ///< Items before this index were admitted.
    uint64_t last_live_check_ms = 0;
  };

  RingHeader* header(uint32_t i);
  char* job_ring(uint32_t i);
  char* cpl_ring(uint32_t i);

  void IntakeLoop();
  /// One pass over every ring; returns true when any progress was made.
  bool ScanOnce(bool sweep_liveness);
  /// Handles state transitions for ring `i`; true on progress.
  bool ManageRing(uint32_t i, bool sweep_liveness);
  /// Decodes + admits committed frames from ring `i`; true on progress.
  bool DrainRing(uint32_t i);
  /// Charges and pushes `ring->deferred` items to their shard queues, in
  /// order, stopping at a quota cap or a full queue. True on progress.
  bool FlushDeferred(Ring* ring);
  void AttachRing(uint32_t i);
  /// Frees ring `i` for the next attacher. `fault` says why a ring that
  /// did not detach cleanly is being killed (logged as a warning); nullptr
  /// for a clean detach.
  void ReclaimRing(uint32_t i, const char* fault);
  /// Flush notifier target: copies `session`'s queued reply frames into
  /// ring `i`'s completion region and wakes the handle.
  void WriteCompletions(uint32_t i, net::Session* session);
  /// Parks on the doorbell after re-scanning; returns after a wake or
  /// `timeout_ms`.
  void Park(uint32_t timeout_ms);

  net::ServerOptions options_;
  Env env_;
  SegmentLayout layout_;
  char* base_ = nullptr;  ///< mmap base (nullptr until Start succeeds).
  Superblock* sb_ = nullptr;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::thread intake_;
  std::atomic<bool> stop_{false};
  bool intake_stopped_ = false;

  // shm.* counters in Env::metrics, set by Start().
  Counter* frames_ = nullptr;           ///< Raise frames admitted.
  Counter* batches_ = nullptr;          ///< Shard-queue push batches.
  Counter* parks_ = nullptr;            ///< Futex parks armed.
  Counter* wakeups_ = nullptr;          ///< Parks ended by a producer wake.
  Counter* attaches_ = nullptr;         ///< Rings claimed by handles.
  Counter* reclaims_ = nullptr;         ///< Rings reclaimed (crash or close).
  Counter* protocol_errors_ = nullptr;  ///< Rings killed for garbage.
};

}  // namespace shmtp
}  // namespace sentinel

#endif  // SENTINEL_SHMTP_HOST_H_
