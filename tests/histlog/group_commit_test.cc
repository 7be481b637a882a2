// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// GroupCommitSync: concurrent committers share physical WAL syncs; a
// leader's sync failure reaches every follower in its batch.

#include "histlog/group_commit.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "../test_util.h"
#include "common/failpoint.h"
#include "txn/wal.h"

namespace sentinel {
namespace {

using testing_util::TempDir;

// Physical WAL syncs and group-commit batches, as the registry counts them.
uint64_t Syncs(MetricsRegistry& metrics) {
  return metrics.histogram("txn.wal_sync_ns")->Count();
}
uint64_t Batches(MetricsRegistry& metrics) {
  return metrics.histogram("storage.group_commit_batch")->Count();
}

TEST(GroupCommitTest, ZeroWindowSyncsEveryCallerIndividually) {
  TempDir dir("gc");
  MetricsRegistry metrics;
  WalManager wal(metrics);
  ASSERT_TRUE(wal.Open(dir.path() + "/wal.log").ok());
  GroupCommitSync gc(&wal, /*window_us=*/0, metrics);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(wal.Append(WalRecordType::kCommit, 1, 0, "").ok());
    ASSERT_TRUE(gc.Sync().ok());
  }
  // The serialized baseline: one physical sync per call, no batches formed.
  EXPECT_EQ(Syncs(metrics), 5u);
  EXPECT_EQ(Batches(metrics), 0u);
}

TEST(GroupCommitTest, ConcurrentCommittersShareSyncs) {
  TempDir dir("gc");
  MetricsRegistry metrics;
  WalManager wal(metrics);
  ASSERT_TRUE(wal.Open(dir.path() + "/wal.log").ok());
  GroupCommitSync gc(&wal, /*window_us=*/2000, metrics);

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        TxnId txn = static_cast<TxnId>(t * kItersPerThread + i + 1);
        if (!wal.Append(WalRecordType::kCommit, txn, 0, "").ok() ||
            !gc.Sync().ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  // The whole point: far fewer physical syncs than commits. With a 2 ms
  // window and 8 threads hammering, batching is overwhelmingly likely;
  // assert only the conservative bound to stay timing-robust.
  constexpr uint64_t kCommits = kThreads * kItersPerThread;
  EXPECT_LT(Syncs(metrics), kCommits);
  EXPECT_EQ(Batches(metrics), Syncs(metrics));

  // Everything acked is on disk.
  std::vector<WalRecord> records;
  ASSERT_TRUE(wal.ReadAll(&records).ok());
  EXPECT_EQ(records.size(), kCommits);
}

TEST(GroupCommitTest, BatchSizesLandInHistogram) {
  TempDir dir("gc");
  MetricsRegistry metrics;
  WalManager wal(metrics);
  ASSERT_TRUE(wal.Open(dir.path() + "/wal.log").ok());
  GroupCommitSync gc(&wal, /*window_us=*/100, metrics);
  ASSERT_TRUE(wal.Append(WalRecordType::kCommit, 1, 0, "").ok());
  ASSERT_TRUE(gc.Sync().ok());
  auto snap = metrics.Snapshot();
  ASSERT_TRUE(snap.histograms.count("storage.group_commit_batch"));
  EXPECT_EQ(snap.histograms.at("storage.group_commit_batch").count, 1u);
}

TEST(GroupCommitTest, LeaderFailureReachesWholeBatch) {
  TempDir dir("gc");
  MetricsRegistry metrics;
  WalManager wal(metrics);
  ASSERT_TRUE(wal.Open(dir.path() + "/wal.log").ok());
  // A long window so every thread below joins one batch whose leader dies.
  GroupCommitSync gc(&wal, /*window_us=*/50000, metrics);

  FailPoints::Instance().Reset();
  ASSERT_TRUE(
      FailPoints::Instance().EnableFromSpec("groupcommit.leader=ioerror")
          .ok());

  constexpr int kThreads = 4;
  std::atomic<int> io_errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TxnId txn = static_cast<TxnId>(t + 1);
      ASSERT_TRUE(wal.Append(WalRecordType::kCommit, txn, 0, "").ok());
      if (gc.Sync().IsIOError()) io_errors.fetch_add(1);
    });
  }
  for (std::thread& th : threads) th.join();
  FailPoints::Instance().Reset();

  // The injected leader failure fans out: every committer in the batch —
  // leader and followers alike — sees the IOError. (Threads that became
  // their own leader hit the still-armed failpoint themselves.)
  EXPECT_EQ(io_errors.load(), kThreads);
}

TEST(GroupCommitTest, CommittersAfterStickyFailureFailFastWithIOError) {
  TempDir dir("gc");
  MetricsRegistry metrics;
  WalManager wal(metrics);
  ASSERT_TRUE(wal.Open(dir.path() + "/wal.log").ok());
  // A window long enough that "joined a doomed batch and slept it out"
  // versus "failed fast" is unmistakable in wall-clock terms.
  constexpr uint32_t kWindowUs = 150000;
  GroupCommitSync gc(&wal, kWindowUs, metrics);

  // Poison the log: one failed physical sync; failures are sticky.
  FailPoints::Instance().Reset();
  ASSERT_TRUE(
      FailPoints::Instance().EnableFromSpec("wal.sync=ioerror@hit(1)").ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kCommit, 1, 0, "").ok());
  EXPECT_TRUE(gc.Sync().IsIOError());
  FailPoints::Instance().Reset();
  ASSERT_TRUE(wal.sync_failed());

  // Committers enqueued after the failure epoch: each must surface the
  // sticky IOError immediately — no fresh batch, no batching window.
  const uint64_t batches_before = Batches(metrics);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        wal.Append(WalRecordType::kCommit, static_cast<TxnId>(i + 2), 0, "")
            .ok());
    EXPECT_TRUE(gc.Sync().IsIOError());
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Three windows would be 450 ms; the fast path is microseconds. A loose
  // bound (under one window) keeps the assertion robust on slow CI.
  EXPECT_LT(elapsed, std::chrono::microseconds(kWindowUs));
  EXPECT_EQ(Batches(metrics), batches_before);
}

}  // namespace
}  // namespace sentinel
