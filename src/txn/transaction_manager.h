// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Coordinates transaction begin/commit/abort against the WAL, lock manager,
// and the object heap. Commit protocol (no-steal / redo-only):
//
//   1. run deferred rule work (Deferred coupling); any failure aborts,
//   2. refuse if a rule action requested abort,
//   3. WAL: Begin + one Put/Delete per buffered write + Commit, then fsync
//      (any WAL failure aborts the txn, appending a synced abort record so
//      a stray commit record cannot be replayed),
//   4. apply the write set to the heap (via HeapApplier); the txn is
//      logically committed once step 3 finished, apply failures are
//      surfaced but recovery redoes the writes,
//   5. release locks, mark committed,
//   6. run detached rule work, each closure in its own new transaction.

#ifndef SENTINEL_TXN_TRANSACTION_MANAGER_H_
#define SENTINEL_TXN_TRANSACTION_MANAGER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <shared_mutex>
#include <string_view>

#include "common/metrics.h"
#include "common/status.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"
#include "txn/wal.h"

namespace sentinel {

/// Where committed writes land. Implemented by oodb::ObjectStore; abstracted
/// so the txn layer has no dependency on the object layer.
class HeapApplier {
 public:
  virtual ~HeapApplier() = default;
  /// Installs a committed create-or-update. `payload` is the staged image,
  /// read in place (the applier copies what it keeps).
  virtual Status ApplyPut(uint64_t oid, std::string_view payload) = 0;
  /// Installs a committed delete.
  virtual Status ApplyDelete(uint64_t oid) = 0;
};

/// Factory/committer for transactions. Thread safe for Begin; each
/// Transaction itself is single-owner.
class TransactionManager {
 public:
  /// Tallies every commit into txn.commits and every abort — user aborts
  /// and commit-path failures alike — into txn.aborts.
  TransactionManager(WalManager* wal, LockManager* locks,
                     MetricsRegistry& metrics)
      : wal_(wal),
        locks_(locks),
        m_commits_(metrics.counter("txn.commits")),
        m_aborts_(metrics.counter("txn.aborts")) {}

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  /// Sets the heap that receives committed writes. Must be called before the
  /// first Commit.
  void SetHeap(HeapApplier* heap) { heap_ = heap; }

  /// Starts a new transaction.
  std::unique_ptr<Transaction> Begin();

  /// Runs the commit protocol. On any failure the transaction is aborted
  /// (undo closures run, locks released) and a non-OK status is returned.
  Status Commit(Transaction* txn);

  /// Rolls back: runs undo closures, drops the write set, releases locks.
  Status Abort(Transaction* txn);

  /// Number of transactions started (for tests/benches).
  uint64_t begun_count() const { return next_id_.load() - 1; }

  /// Replaces the commit-path durability sync (WalManager::Sync by
  /// default). The ObjectStore installs GroupCommitSync here so concurrent
  /// commits across raise shards share one fdatasync.
  void SetSyncHook(std::function<Status()> hook) {
    sync_hook_ = std::move(hook);
  }

  /// The fuzzy-checkpoint apply barrier. Each commit holds it shared from
  /// its first WAL append until its heap apply finishes; the checkpointer
  /// acquires it exclusive (momentarily) after capturing the stable LSN,
  /// proving every commit logged below that LSN has reached the heap —
  /// which makes truncating those records safe once the pool flushes.
  std::shared_mutex* apply_barrier() { return &apply_barrier_; }

  LockManager* locks() { return locks_; }

 private:
  /// Abort without consuming abort_requested (shared by Commit failure
  /// path). `sync_abort` forces the abort record to disk — used when a
  /// commit record may already have reached the log and must be durably
  /// neutralized.
  Status DoAbort(Transaction* txn, const std::string& why,
                 bool sync_abort = false);

  /// Durability sync for the commit path (group commit when installed).
  Status SyncWal() { return sync_hook_ ? sync_hook_() : wal_->Sync(); }

  WalManager* wal_;
  LockManager* locks_;
  HeapApplier* heap_ = nullptr;
  std::function<Status()> sync_hook_;
  std::shared_mutex apply_barrier_;
  std::atomic<TxnId> next_id_{1};
  Counter* const m_commits_;
  Counter* const m_aborts_;
};

}  // namespace sentinel

#endif  // SENTINEL_TXN_TRANSACTION_MANAGER_H_
