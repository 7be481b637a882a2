// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "txn/transaction_manager.h"

#include "common/failpoint.h"
#include "common/logging.h"

namespace sentinel {

std::unique_ptr<Transaction> TransactionManager::Begin() {
  TxnId id = next_id_.fetch_add(1);
  return std::make_unique<Transaction>(id, locks_);
}

Status TransactionManager::DoAbort(Transaction* txn, const std::string& why,
                                   bool sync_abort) {
  txn->RunUndos();
  txn->writes_.clear();
  txn->deferred_.clear();
  txn->detached_.clear();
  if (wal_ != nullptr) {
    // Best effort: the abort record neutralizes any commit record this txn
    // may already have appended before its commit failed mid-WAL (recovery
    // treats commit+abort as aborted). `sync_abort` is set on that path so
    // the neutralization is as durable as the stray commit could be; if
    // appending or syncing fails too, the outcome is crash-indeterminate —
    // which is what the caller was already told.
    if (wal_->Append(WalRecordType::kAbort, txn->id(), 0).ok() &&
        sync_abort) {
      SyncWal().ok();
    }
  }
  if (txn->locked_any()) locks_->ReleaseAll(txn->id());
  txn->state_ = TxnState::kAborted;
  m_aborts_->Add();
  SENTINEL_DEBUG << "event=txn_aborted txn=" << txn->id() << " reason=\""
                 << why << "\"";
  return Status::OK();
}

Status TransactionManager::Abort(Transaction* txn) {
  if (!txn->active()) {
    return Status::FailedPrecondition("abort of finished transaction");
  }
  return DoAbort(txn, txn->abort_requested() ? txn->abort_reason()
                                             : "user abort");
}

Status TransactionManager::Commit(Transaction* txn) {
  if (!txn->active()) {
    return Status::FailedPrecondition("commit of finished transaction");
  }
  {
    Status fp = Status::OK();
    if (FailPoints::AnyActive()) {
      fp = FailPoints::Instance().Check("txn.commit.begin");
    }
    if (!fp.ok()) {
      DoAbort(txn, "commit failed at entry: " + fp.ToString());
      return fp;
    }
  }
  // After a sync failure the log is poisoned (the kernel may have dropped
  // dirty pages without saying which): refuse up front instead of
  // appending records that can never be made durable.
  if (wal_ != nullptr && wal_->sync_failed()) {
    Status sticky = Status::IOError(
        "wal sync previously failed; reopen required before further "
        "commits");
    DoAbort(txn, sticky.ToString());
    return sticky;
  }

  // (1) Deferred rule work runs at the commit point, still inside the txn.
  Status deferred = txn->RunDeferred();
  if (!deferred.ok()) {
    DoAbort(txn, "deferred rule failed: " + deferred.ToString());
    return deferred.IsAborted()
               ? deferred
               : Status::Aborted("deferred rule failed: " +
                                 deferred.ToString());
  }

  // (2) A rule action may have vetoed the transaction.
  if (txn->abort_requested()) {
    std::string reason = txn->abort_reason();
    DoAbort(txn, reason);
    return Status::Aborted(reason);
  }

  // (3) Make the write set durable before touching the heap. Any WAL
  // failure here aborts the transaction — returning with the txn still
  // active would leak its locks and strand the caller (a bug the crash-
  // torture harness flushed out). The abort path appends a synced abort
  // record so a commit record that did reach the log cannot be replayed.
  //
  // The apply barrier is held shared from the first WAL append until the
  // heap apply in (4) finishes: a fuzzy checkpoint acquiring it exclusive
  // after capturing a stable LSN thereby waits out every commit whose
  // records it is about to truncate (see apply_barrier()).
  std::shared_lock<std::shared_mutex> apply_guard(apply_barrier_);
  if (wal_ != nullptr && !txn->write_set().empty()) {
    Status wal_status = [&]() -> Status {
      const TxnId id = txn->id();
      SENTINEL_RETURN_IF_ERROR(wal_->Append(WalRecordType::kBegin, id, 0));
      for (const auto& [oid, write] : txn->write_set()) {
        SENTINEL_RETURN_IF_ERROR(
            write.op == PendingWrite::Op::kPut
                ? wal_->Append(WalRecordType::kPut, id, oid, write.payload)
                : wal_->Append(WalRecordType::kDelete, id, oid));
      }
      SENTINEL_RETURN_IF_ERROR(wal_->Append(WalRecordType::kCommit, id, 0));
      return SyncWal();
    }();
    if (!wal_status.ok()) {
      DoAbort(txn, "commit WAL write failed: " + wal_status.ToString(),
              /*sync_abort=*/true);
      return wal_status;
    }
  }
  // The commit record is durable past this point: whatever fails from here
  // on, the transaction is logically committed — recovery will redo it.
  Status apply_error = Status::OK();
  if (FailPoints::AnyActive()) {
    apply_error = FailPoints::Instance().Check("txn.commit.durable");
  }

  // (4) Install the writes. Surface the first error but still finish the
  // commit — in particular the locks MUST be released either way.
  if (apply_error.ok() && heap_ != nullptr) {
    for (const auto& [oid, write] : txn->write_set()) {
      Status s = write.op == PendingWrite::Op::kPut
                     ? heap_->ApplyPut(oid, write.payload)
                     : heap_->ApplyDelete(oid);
      if (!s.ok() && apply_error.ok()) {
        SENTINEL_ERROR << "event=heap_apply_failed txn=" << txn->id()
                       << " oid=" << oid << " status=\"" << s.ToString()
                       << "\"";
        apply_error = s;
      }
    }
  }

  // The heap now holds the write set: the checkpointer may flush and
  // truncate past this commit. Released before (6) — detached work commits
  // fresh transactions on this thread, and re-acquiring the barrier shared
  // while a checkpointer waits exclusive would deadlock.
  apply_guard.unlock();

  // (5) Done: release locks.
  if (txn->locked_any()) locks_->ReleaseAll(txn->id());
  txn->state_ = TxnState::kCommitted;
  m_commits_->Add();
  if (!apply_error.ok()) return apply_error;

  // (6) Detached rule work: each closure runs logically in its own
  // transaction; the closures themselves Begin/Commit via the database
  // facade, so here we just invoke them.
  auto detached = txn->TakeDetached();
  for (auto& work : detached) {
    Status s = work();
    if (!s.ok()) {
      SENTINEL_WARN << "event=detached_rule_failed txn=" << txn->id()
                    << " status=\"" << s.ToString() << "\"";
    }
  }
  return Status::OK();
}

}  // namespace sentinel
