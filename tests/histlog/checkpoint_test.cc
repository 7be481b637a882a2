// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Fuzzy checkpoints: CheckpointNow truncates the WAL behind the stable
// LSN so recovery replays only the suffix, and the background
// checkpointer fires on its WAL-size trigger without any caller.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "../test_util.h"
#include "common/failpoint.h"
#include "core/database.h"
#include "histlog/checkpointer.h"

namespace sentinel {
namespace {

using testing_util::TempDir;

class CheckpointTest : public ::testing::Test {
 protected:
  std::unique_ptr<Database> OpenDb(const std::string& dir,
                                   Database::Options extra = {}) {
    extra.dir = dir;
    auto opened = Database::Open(extra);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return std::move(opened).value();
  }

  // Commits `n` single-object transactions (each appends Begin + Put +
  // Commit to the WAL).
  void Churn(Database* db, int n) {
    if (!db->catalog()->HasClass("Doc")) {
      ASSERT_TRUE(db->RegisterClass(ClassBuilder("Doc").Build()).ok());
    }
    for (int i = 0; i < n; ++i) {
      ReactiveObject doc("Doc");
      doc.SetAttrRaw("n", Value(static_cast<int64_t>(i)));
      ASSERT_TRUE(db->RegisterLiveObject(&doc).ok());
      ASSERT_TRUE(db->WithTransaction([&](Transaction* txn) {
        return db->Persist(txn, &doc);
      }).ok());
      ASSERT_TRUE(db->UnregisterLiveObject(&doc).ok());
    }
  }
};

TEST_F(CheckpointTest, CheckpointTruncatesWalAndBoundsRecovery) {
  TempDir dir("ckpt");
  auto db = OpenDb(dir.path());
  Churn(db.get(), 25);

  auto before = db->store()->wal()->SizeBytes();
  ASSERT_TRUE(before.ok());
  ASSERT_GT(*before, 0u);

  ASSERT_TRUE(db->CheckpointNow().ok());

  // The log behind the stable LSN is gone; only the checkpoint record
  // itself (appended after the stable LSN was captured) remains.
  auto after = db->store()->wal()->SizeBytes();
  ASSERT_TRUE(after.ok());
  EXPECT_LT(*after, *before / 4);
  EXPECT_EQ(db->StatsSnapshot().counters.at("storage.checkpoints"), 1u);
  EXPECT_GT(
      db->StatsSnapshot().counters.at("storage.wal_truncated_bytes"), 0u);

  // Post-checkpoint commits land after the truncation point...
  Churn(db.get(), 3);
  ASSERT_TRUE(db->Close().ok());

  // ...and a reopen replays ONLY that small suffix: the 25 pre-checkpoint
  // transactions are already durably in the heap.
  auto db2 = OpenDb(dir.path());
  int64_t replayed =
      db2->StatsSnapshot().gauges.at("storage.recovery_records");
  EXPECT_GT(replayed, 0);
  EXPECT_LT(replayed, 25);
  ASSERT_TRUE(db2->Close().ok());
}

TEST_F(CheckpointTest, DataSurvivesCheckpointAndReopen) {
  TempDir dir("ckpt");
  Oid oid = kInvalidOid;
  {
    auto db = OpenDb(dir.path());
    ASSERT_TRUE(db->RegisterClass(ClassBuilder("Doc").Build()).ok());
    ReactiveObject doc("Doc");
    doc.SetAttrRaw("title", Value("durable"));
    ASSERT_TRUE(db->RegisterLiveObject(&doc).ok());
    ASSERT_TRUE(db->WithTransaction([&](Transaction* txn) {
      return db->Persist(txn, &doc);
    }).ok());
    oid = doc.oid();
    ASSERT_TRUE(db->UnregisterLiveObject(&doc).ok());
    ASSERT_TRUE(db->CheckpointNow().ok());
    ASSERT_TRUE(db->Close().ok());
  }
  auto db = OpenDb(dir.path());
  auto materialized = db->Materialize(nullptr, oid);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  EXPECT_EQ((*materialized)->GetAttr("title"), Value("durable"));
  ASSERT_TRUE(db->UnregisterLiveObject(materialized->get()).ok());
  ASSERT_TRUE(db->Close().ok());
}

TEST_F(CheckpointTest, RepeatedCheckpointsAreIdempotent) {
  TempDir dir("ckpt");
  auto db = OpenDb(dir.path());
  Churn(db.get(), 5);
  ASSERT_TRUE(db->CheckpointNow().ok());
  // Nothing new since the last one: still fine, still bounded.
  ASSERT_TRUE(db->CheckpointNow().ok());
  ASSERT_TRUE(db->CheckpointNow().ok());
  EXPECT_EQ(db->StatsSnapshot().counters.at("storage.checkpoints"), 3u);
  ASSERT_TRUE(db->Close().ok());
}

TEST_F(CheckpointTest, BackgroundCheckpointerFiresOnWalSizeTrigger) {
  TempDir dir("ckpt");
  Database::Options opts;
  opts.checkpoint_wal_bytes = 512;  // Tiny: a few commits trip it.
  auto db = OpenDb(dir.path(), opts);
  Churn(db.get(), 20);

  // The checkpointer polls every <=50ms; give it a generous deadline.
  const Counter* checkpoints = db->metrics()->counter("storage.checkpoints");
  for (int i = 0; i < 100 && checkpoints->Value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GT(checkpoints->Value(), 0u);
  ASSERT_TRUE(db->Close().ok());
}

TEST_F(CheckpointTest, ConcurrentCheckpointsAndCloseNeverDoubleTruncate) {
  TempDir dir("ckpt");
  auto db = OpenDb(dir.path());
  Churn(db.get(), 10);

  // An aggressive background checkpointer wired exactly as Database wires
  // its own (WAL-size trigger, 256 bytes), but owned here so the test can
  // stop it and count its successes: the WAL-size trigger fires while the
  // explicit Checkpoint callers below are mid-flight.
  std::atomic<int> background_ok{0};
  Checkpointer background(
      /*wal_bytes=*/256,
      [&]() -> uint64_t {
        Result<uint64_t> size = db->store()->wal()->SizeBytes();
        return size.ok() ? *size : 0;
      },
      [&] {
        Status s = db->store()->Checkpoint();
        if (s.ok()) background_ok.fetch_add(1);
        return s;
      });
  background.Start();

  // Hammer explicit checkpoints from several threads while the background
  // thread races them. Before checkpoints were serialized, two interleaved
  // capture/flush/truncate sequences could truncate twice against one
  // captured LSN; now each OK checkpoint bumps the generation exactly once.
  std::atomic<int> explicit_ok{0};
  std::atomic<int> unexpected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        Status s = db->store()->Checkpoint();
        if (s.ok()) {
          explicit_ok.fetch_add(1);
        } else if (!s.IsFailedPrecondition()) {
          unexpected.fetch_add(1);
        }
      }
    });
  }
  Churn(db.get(), 10);
  for (std::thread& th : threads) th.join();
  // Read the generation only once no background checkpoint can land
  // before Close (Database::Close stops its own checkpointer first too).
  background.Stop();
  EXPECT_EQ(unexpected.load(), 0);
  const uint64_t generation = db->store()->checkpoint_generation();
  EXPECT_EQ(generation, static_cast<uint64_t>(explicit_ok.load() +
                                              background_ok.load()));
  EXPECT_GT(generation, 0u);

  ASSERT_TRUE(db->Close().ok());
  // Close's final checkpoint ran under the same serialization.
  EXPECT_EQ(db->store()->checkpoint_generation(), generation + 1);
  // A straggler arriving after Close is fenced off the teardown path.
  EXPECT_TRUE(db->store()->Checkpoint().IsFailedPrecondition());

  // The log is intact: reopen replays cleanly.
  auto reopened = OpenDb(dir.path());
  EXPECT_EQ(reopened->store()->ObjectCount(), 20u);
  ASSERT_TRUE(reopened->Close().ok());
}

TEST(CheckpointerTest, DisabledOptionsStartNoThread) {
  std::atomic<int> calls{0};
  Checkpointer ckpt(/*wal_bytes=*/0, [] { return 1u << 30; },
                    [&] {
                      calls.fetch_add(1);
                      return Status::OK();
                    });
  ckpt.Start();
  ckpt.Stop();
  EXPECT_EQ(calls.load(), 0);
}

TEST(CheckpointerTest, WalSizeTriggerRunsAndCountsFailures) {
  std::atomic<int> calls{0};
  // The WAL never shrinks below the threshold here, so every poll tick
  // (50 ms) is due.
  Checkpointer ckpt(
      /*wal_bytes=*/256, [] { return 1024; },
      [&] {
        int n = calls.fetch_add(1);
        return n == 0 ? Status::IOError("flaky disk") : Status::OK();
      });
  ckpt.Start();
  for (int i = 0; i < 200 && calls.load() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ckpt.Stop();
  // The first attempt failed and did not kill the loop. (The store, not
  // the driver, counts the failure: storage.checkpoint_failures.)
  EXPECT_GE(calls.load(), 2);
}

TEST_F(CheckpointTest, CheckpointSyncsHeapBeforeCuttingWal) {
  TempDir dir("ckpt");
  auto db = OpenDb(dir.path());
  Churn(db.get(), 5);
  const Counter* heap_syncs = db->metrics()->counter("storage.heap_syncs");
  const uint64_t syncs = heap_syncs->Value();

  // Fail the WAL cut itself: the heap must already be on disk by then,
  // because the cut drops the only other copy of those pages.
  ASSERT_TRUE(
      FailPoints::Instance().EnableFromSpec("wal.truncate=ioerror@once").ok());
  Status failed = db->CheckpointNow();
  FailPoints::Instance().Reset();
  EXPECT_TRUE(failed.IsIOError()) << failed.ToString();
  EXPECT_EQ(heap_syncs->Value(), syncs + 1);

  // Nothing written since: the next checkpoint cuts without a second sync.
  ASSERT_TRUE(db->CheckpointNow().ok());
  EXPECT_EQ(heap_syncs->Value(), syncs + 1);

  // New commits dirty pages again, and the checkpoint syncs them.
  Churn(db.get(), 2);
  ASSERT_TRUE(db->CheckpointNow().ok());
  EXPECT_EQ(heap_syncs->Value(), syncs + 2);
  ASSERT_TRUE(db->Close().ok());
}

TEST_F(CheckpointTest, RecoverySyncsInheritedHeapBeforeResettingWal) {
  TempDir dir("ckpt");
  {
    auto db = OpenDb(dir.path());
    // Fresh: nothing to sync.
    EXPECT_EQ(db->metrics()->counter("storage.heap_syncs")->Value(), 0u);
    Churn(db.get(), 3);
    ASSERT_TRUE(db->Close().ok());
  }
  // The earlier process's pages may sit unsynced in the page cache, and
  // recovery resets the WAL right after flushing: it must sync them.
  auto db = OpenDb(dir.path());
  EXPECT_EQ(db->metrics()->counter("storage.heap_syncs")->Value(), 1u);
  ASSERT_TRUE(db->Close().ok());
}

TEST_F(CheckpointTest, HeapSyncFailureLeavesWalPrefixIntact) {
  TempDir dir("ckpt");
  {
    auto db = OpenDb(dir.path());
    Churn(db.get(), 10);
    auto base = db->store()->wal()->BaseLsn();
    auto size = db->store()->wal()->SizeBytes();
    ASSERT_TRUE(base.ok() && size.ok());

    ASSERT_TRUE(
        FailPoints::Instance().EnableFromSpec("disk.sync=ioerror@once").ok());
    Status failed = db->CheckpointNow();
    FailPoints::Instance().Reset();
    EXPECT_TRUE(failed.IsIOError()) << failed.ToString();

    // The WAL keeps every record the heap may not hold durably.
    auto base_after = db->store()->wal()->BaseLsn();
    auto size_after = db->store()->wal()->SizeBytes();
    ASSERT_TRUE(base_after.ok() && size_after.ok());
    EXPECT_EQ(*base_after, *base);
    EXPECT_GE(*size_after, *size);
    const MetricsSnapshot stats = db->StatsSnapshot();
    EXPECT_EQ(stats.counters.at("storage.checkpoints"), 0u);
    EXPECT_EQ(stats.counters.at("storage.checkpoint_failures"), 1u);
    ASSERT_TRUE(db->Close().ok());
  }
  auto db = OpenDb(dir.path());
  EXPECT_EQ(db->store()->Extent("Doc").size(), 10u);
  ASSERT_TRUE(db->Close().ok());
}

}  // namespace
}  // namespace sentinel
