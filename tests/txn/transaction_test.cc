// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "txn/transaction.h"

#include <gtest/gtest.h>

#include "txn/transaction_manager.h"
#include "txn/wal.h"

#include "../test_util.h"

namespace sentinel {
namespace {

using testing_util::TempDir;

TEST(TransactionTest, WriteSetLastWriteWins) {
  LockManager lm;
  Transaction txn(1, &lm);
  txn.StagePut(10, "v1");
  txn.StagePut(10, "v2");
  const PendingWrite* w = txn.FindWrite(10);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->payload, "v2");
  txn.StageDelete(10);
  w = txn.FindWrite(10);
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->op, PendingWrite::Op::kDelete);
  EXPECT_EQ(txn.FindWrite(11), nullptr);
}

TEST(TransactionTest, UndosRunInReverseOrder) {
  LockManager lm;
  Transaction txn(1, &lm);
  std::vector<int> order;
  txn.AddUndo([&]() { order.push_back(1); });
  txn.AddUndo([&]() { order.push_back(2); });
  txn.AddUndo([&]() { order.push_back(3); });
  txn.RunUndos();
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
  // Idempotent: a second run does nothing.
  txn.RunUndos();
  EXPECT_EQ(order.size(), 3u);
}

TEST(TransactionTest, DeferredRunsToFixpoint) {
  LockManager lm;
  Transaction txn(1, &lm);
  int runs = 0;
  txn.AddDeferred([&]() {
    ++runs;
    if (runs < 3) {
      txn.AddDeferred([&]() {
        ++runs;
        return Status::OK();
      });
    }
    return Status::OK();
  });
  ASSERT_TRUE(txn.RunDeferred().ok());
  EXPECT_EQ(runs, 2);  // Initial + one cascade.
  EXPECT_FALSE(txn.HasDeferred());
}

TEST(TransactionTest, DeferredCascadeBoundAborts) {
  LockManager lm;
  Transaction txn(1, &lm);
  std::function<Status()> self_feeding = [&]() -> Status {
    txn.AddDeferred(self_feeding);
    return Status::OK();
  };
  txn.AddDeferred(self_feeding);
  EXPECT_TRUE(txn.RunDeferred(100).IsAborted());
}

TEST(TransactionTest, DeferredStopsAtFirstError) {
  LockManager lm;
  Transaction txn(1, &lm);
  int runs = 0;
  txn.AddDeferred([&]() {
    ++runs;
    return Status::Aborted("rule veto");
  });
  txn.AddDeferred([&]() {
    ++runs;
    return Status::OK();
  });
  EXPECT_TRUE(txn.RunDeferred().IsAborted());
  EXPECT_EQ(runs, 1);
}

TEST(TransactionTest, AbortRequestIsSticky) {
  LockManager lm;
  Transaction txn(1, &lm);
  EXPECT_FALSE(txn.abort_requested());
  txn.RequestAbort("first reason");
  txn.RequestAbort("second reason");
  EXPECT_TRUE(txn.abort_requested());
  EXPECT_EQ(txn.abort_reason(), "first reason");
}

class TxnManagerTest : public ::testing::Test {
 protected:
  TxnManagerTest() : dir_("txnmgr") {
    EXPECT_TRUE(wal_.Open(dir_.path() + "/wal.log").ok());
    mgr_ = std::make_unique<TransactionManager>(&wal_, &locks_, metrics_);
  }

  TempDir dir_;
  MetricsRegistry metrics_;
  WalManager wal_{metrics_};
  LockManager locks_;
  std::unique_ptr<TransactionManager> mgr_;
};

/// Captures committed writes for verification.
class RecordingHeap : public HeapApplier {
 public:
  Status ApplyPut(uint64_t oid, std::string_view payload) override {
    puts.emplace_back(oid, payload);
    return Status::OK();
  }
  Status ApplyDelete(uint64_t oid) override {
    deletes.push_back(oid);
    return Status::OK();
  }

  std::vector<std::pair<uint64_t, std::string>> puts;
  std::vector<uint64_t> deletes;
};

TEST_F(TxnManagerTest, CommitAppliesWritesAndLogs) {
  RecordingHeap heap;
  mgr_->SetHeap(&heap);
  auto txn = mgr_->Begin();
  txn->StagePut(100, "alpha");
  txn->StageDelete(200);
  ASSERT_TRUE(mgr_->Commit(txn.get()).ok());
  EXPECT_EQ(txn->state(), TxnState::kCommitted);
  ASSERT_EQ(heap.puts.size(), 1u);
  EXPECT_EQ(heap.puts[0], std::make_pair(uint64_t{100}, std::string("alpha")));
  EXPECT_EQ(heap.deletes, std::vector<uint64_t>{200});
  // WAL contains begin/put/delete/commit.
  std::vector<WalRecord> records;
  ASSERT_TRUE(wal_.ReadAll(&records).ok());
  EXPECT_EQ(records.size(), 4u);
}

TEST_F(TxnManagerTest, AbortRunsUndosAndSkipsHeap) {
  RecordingHeap heap;
  mgr_->SetHeap(&heap);
  auto txn = mgr_->Begin();
  bool undone = false;
  txn->StagePut(100, "alpha");
  txn->AddUndo([&]() { undone = true; });
  ASSERT_TRUE(mgr_->Abort(txn.get()).ok());
  EXPECT_EQ(txn->state(), TxnState::kAborted);
  EXPECT_TRUE(undone);
  EXPECT_TRUE(heap.puts.empty());
}

TEST_F(TxnManagerTest, AbortRequestVetoesCommit) {
  RecordingHeap heap;
  mgr_->SetHeap(&heap);
  auto txn = mgr_->Begin();
  txn->StagePut(100, "alpha");
  txn->RequestAbort("rule said no");
  Status s = mgr_->Commit(txn.get());
  EXPECT_TRUE(s.IsAborted());
  EXPECT_EQ(s.message(), "rule said no");
  EXPECT_EQ(txn->state(), TxnState::kAborted);
  EXPECT_TRUE(heap.puts.empty());
}

TEST_F(TxnManagerTest, DeferredFailureAbortsCommit) {
  RecordingHeap heap;
  mgr_->SetHeap(&heap);
  auto txn = mgr_->Begin();
  txn->StagePut(100, "alpha");
  txn->AddDeferred([]() { return Status::Aborted("deferred veto"); });
  EXPECT_TRUE(mgr_->Commit(txn.get()).IsAborted());
  EXPECT_TRUE(heap.puts.empty());
}

TEST_F(TxnManagerTest, DetachedWorkRunsAfterCommit) {
  RecordingHeap heap;
  mgr_->SetHeap(&heap);
  auto txn = mgr_->Begin();
  bool heap_applied_when_detached_ran = false;
  txn->StagePut(100, "alpha");
  txn->AddDetached([&]() {
    heap_applied_when_detached_ran = !heap.puts.empty();
    return Status::OK();
  });
  ASSERT_TRUE(mgr_->Commit(txn.get()).ok());
  EXPECT_TRUE(heap_applied_when_detached_ran);
}

TEST_F(TxnManagerTest, DetachedWorkSkippedOnAbort) {
  auto txn = mgr_->Begin();
  bool ran = false;
  txn->AddDetached([&]() {
    ran = true;
    return Status::OK();
  });
  ASSERT_TRUE(mgr_->Abort(txn.get()).ok());
  EXPECT_FALSE(ran);
}

TEST_F(TxnManagerTest, DoubleFinishFails) {
  auto txn = mgr_->Begin();
  ASSERT_TRUE(mgr_->Commit(txn.get()).ok());
  EXPECT_TRUE(mgr_->Commit(txn.get()).IsFailedPrecondition());
  EXPECT_TRUE(mgr_->Abort(txn.get()).IsFailedPrecondition());
}

TEST_F(TxnManagerTest, CommitReleasesLocks) {
  auto txn = mgr_->Begin();
  ASSERT_TRUE(txn->Lock(77, LockMode::kExclusive).ok());
  EXPECT_EQ(locks_.LockedResourceCount(), 1u);
  ASSERT_TRUE(mgr_->Commit(txn.get()).ok());
  EXPECT_EQ(locks_.LockedResourceCount(), 0u);
}

TEST_F(TxnManagerTest, ReadOnlyCommitWritesNoLog) {
  auto txn = mgr_->Begin();
  ASSERT_TRUE(mgr_->Commit(txn.get()).ok());
  std::vector<WalRecord> records;
  ASSERT_TRUE(wal_.ReadAll(&records).ok());
  EXPECT_TRUE(records.empty());
}

}  // namespace
}  // namespace sentinel
