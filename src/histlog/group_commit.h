// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Group commit: batches concurrent WAL syncs into one fdatasync.
//
// Every committing transaction appends its records (serialized by the WAL's
// own mutex) and then must wait for durability before acking. Syncing per
// commit serializes the whole system on fsync latency; with N producers the
// classic fix is leader/follower group commit:
//
//   * the first committer to arrive becomes the *leader*: it waits up to
//     `window_us` for more committers to append and join, then issues ONE
//     WalManager::Sync covering every append made so far,
//   * committers that arrive while a leader is in flight are *followers*:
//     they just wait; if the leader's sync covered their ticket they are
//     done, otherwise the first of them takes over as the next leader
//     (the handoff).
//
// Commit throughput then scales with producer count — one fsync pays for
// the whole batch — at the cost of up to `window_us` extra latency.
// window_us == 0 disables batching entirely (each caller syncs itself);
// that is the serialized baseline the persistence bench sweeps against.
//
// Error semantics lean on WalManager's sticky sync failures: once a sync
// fails every later sync fails too, so a waiter that observes a completed
// batch can safely read the *latest* batch status — a failure can never be
// followed by a success within one log generation.

#ifndef SENTINEL_HISTLOG_GROUP_COMMIT_H_
#define SENTINEL_HISTLOG_GROUP_COMMIT_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/metrics.h"
#include "common/status.h"
#include "txn/wal.h"

namespace sentinel {

/// Batches concurrent callers of Sync() into shared physical WAL syncs.
/// Thread safe; owned by the ObjectStore alongside its WalManager.
class GroupCommitSync {
 public:
  /// Records every batch's size (commits per fsync) into
  /// storage.group_commit_batch; its count is the number of batches synced.
  GroupCommitSync(WalManager* wal, uint32_t window_us,
                  MetricsRegistry& metrics)
      : wal_(wal),
        window_us_(window_us),
        m_batch_size_(metrics.histogram("storage.group_commit_batch")) {}

  GroupCommitSync(const GroupCommitSync&) = delete;
  GroupCommitSync& operator=(const GroupCommitSync&) = delete;

  /// Makes every WAL byte appended by the caller before this call durable.
  /// May batch with concurrent callers (see file comment). Returns the
  /// status of the physical sync that covered this caller.
  Status Sync();

  uint32_t window_us() const { return window_us_; }

 private:
  WalManager* wal_;
  const uint32_t window_us_;

  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t pending_seq_ = 0;  ///< Last join ticket issued.
  uint64_t durable_seq_ = 0;  ///< Tickets <= this are decided.
  bool leader_active_ = false;
  Status batch_status_ = Status::OK();  ///< Outcome of the latest batch.
  Histogram* const m_batch_size_;
};

}  // namespace sentinel

#endif  // SENTINEL_HISTLOG_GROUP_COMMIT_H_
