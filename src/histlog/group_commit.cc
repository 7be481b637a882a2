// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "histlog/group_commit.h"

#include <chrono>
#include <thread>

#include "common/failpoint.h"

namespace sentinel {

Status GroupCommitSync::Sync() {
  // Sticky-failure fast path: once a physical sync has failed, no later
  // sync can succeed within this log generation, so a committer arriving
  // after the failure must not take a ticket, join a doomed batch, or pay
  // the batching window — it fails immediately with the sticky IOError.
  if (wal_->sync_failed()) return wal_->Sync();
  if (window_us_ == 0) return wal_->Sync();  // Serialized baseline.

  std::unique_lock<std::mutex> lk(mu_);
  const uint64_t my_ticket = ++pending_seq_;
  for (;;) {
    if (durable_seq_ >= my_ticket) {
      // A leader's sync covered this caller's appends (sticky failures
      // guarantee the latest batch status is never better than ours was).
      return batch_status_;
    }
    if (!leader_active_) {
      // Leader handoff: this caller syncs for everyone who joins in time.
      leader_active_ = true;
      const uint64_t batch_lo = durable_seq_;
      lk.unlock();
      Status fp = Status::OK();
      if (FailPoints::AnyActive()) {
        fp = FailPoints::Instance().Check("groupcommit.leader");
      }
      // Hold the door open for followers still appending. Sleeping without
      // the lock: joiners must be able to take tickets meanwhile. Skip the
      // window when the log is already failed — the batch outcome is known.
      if (fp.ok() && window_us_ > 0 && !wal_->sync_failed()) {
        std::this_thread::sleep_for(std::chrono::microseconds(window_us_));
      }
      lk.lock();
      const uint64_t batch_hi = pending_seq_;
      lk.unlock();
      // Everything appended before this point is covered: WAL appends
      // finish before their owner calls Sync, and batch_hi was read after
      // the window closed.
      Status s = fp.ok() ? wal_->Sync() : fp;
      lk.lock();
      durable_seq_ = batch_hi;
      batch_status_ = s;
      leader_active_ = false;
      m_batch_size_->Record(static_cast<int64_t>(batch_hi - batch_lo));
      cv_.notify_all();
      return s;  // my_ticket <= batch_hi always: the leader is covered.
    }
    cv_.wait(lk, [&] {
      return durable_seq_ >= my_ticket || !leader_active_;
    });
  }
}

}  // namespace sentinel
