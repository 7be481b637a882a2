// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "oodb/object_store.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>

#include "oodb/attribute_index.h"
#include "oodb/object.h"
#include "storage/disk_manager.h"
#include "storage/slotted_page.h"

#include "../test_util.h"

namespace sentinel {
namespace {

using testing_util::TempDir;

class ObjectStoreTest : public ::testing::Test {
 protected:
  ObjectStoreTest() : dir_("store") {
    EXPECT_TRUE(store_.Open(dir_.path()).ok());
  }

  /// Puts (oid, class, state) in its own committed transaction.
  Status CommitPut(Oid oid, const std::string& cls,
                   const std::string& state) {
    auto txn = store_.txns()->Begin();
    SENTINEL_RETURN_IF_ERROR(store_.Put(txn.get(), oid, cls, state));
    return store_.txns()->Commit(txn.get());
  }

  TempDir dir_;
  MetricsRegistry metrics_;
  ObjectStore store_{metrics_};
};

TEST_F(ObjectStoreTest, NewOidsAreUniqueAndUserRange) {
  Oid a = store_.NewOid();
  Oid b = store_.NewOid();
  EXPECT_GE(a, kFirstUserOid);
  EXPECT_NE(a, b);
}

TEST_F(ObjectStoreTest, PutGetRoundTrip) {
  Oid oid = store_.NewOid();
  ASSERT_TRUE(CommitPut(oid, "Employee", "state-bytes").ok());
  std::string cls, state;
  auto txn = store_.txns()->Begin();
  ASSERT_TRUE(store_.Get(txn.get(), oid, &cls, &state).ok());
  EXPECT_EQ(cls, "Employee");
  EXPECT_EQ(state, "state-bytes");
  ASSERT_TRUE(store_.txns()->Commit(txn.get()).ok());
}

TEST_F(ObjectStoreTest, GetWithoutTransactionReadsCommitted) {
  Oid oid = store_.NewOid();
  ASSERT_TRUE(CommitPut(oid, "C", "v").ok());
  std::string cls, state;
  ASSERT_TRUE(store_.Get(nullptr, oid, &cls, &state).ok());
  EXPECT_EQ(state, "v");
}

TEST_F(ObjectStoreTest, TransactionSeesOwnWrites) {
  Oid oid = store_.NewOid();
  auto txn = store_.txns()->Begin();
  ASSERT_TRUE(store_.Put(txn.get(), oid, "C", "uncommitted").ok());
  std::string cls, state;
  ASSERT_TRUE(store_.Get(txn.get(), oid, &cls, &state).ok());
  EXPECT_EQ(state, "uncommitted");
  // Not visible outside the transaction before commit.
  EXPECT_FALSE(store_.Exists(oid));
  ASSERT_TRUE(store_.txns()->Commit(txn.get()).ok());
  EXPECT_TRUE(store_.Exists(oid));
}

TEST_F(ObjectStoreTest, AbortDiscardsWrites) {
  Oid oid = store_.NewOid();
  auto txn = store_.txns()->Begin();
  ASSERT_TRUE(store_.Put(txn.get(), oid, "C", "x").ok());
  ASSERT_TRUE(store_.txns()->Abort(txn.get()).ok());
  EXPECT_FALSE(store_.Exists(oid));
  EXPECT_EQ(store_.ObjectCount(), 0u);
}

TEST_F(ObjectStoreTest, UpdateReplacesState) {
  Oid oid = store_.NewOid();
  ASSERT_TRUE(CommitPut(oid, "C", "v1").ok());
  ASSERT_TRUE(CommitPut(oid, "C", "v2-is-a-bit-longer").ok());
  std::string cls, state;
  ASSERT_TRUE(store_.Get(nullptr, oid, &cls, &state).ok());
  EXPECT_EQ(state, "v2-is-a-bit-longer");
  EXPECT_EQ(store_.ObjectCount(), 1u);
}

TEST_F(ObjectStoreTest, DeleteRemovesObjectAndExtentEntry) {
  Oid oid = store_.NewOid();
  ASSERT_TRUE(CommitPut(oid, "C", "v").ok());
  auto txn = store_.txns()->Begin();
  ASSERT_TRUE(store_.Delete(txn.get(), oid).ok());
  ASSERT_TRUE(store_.txns()->Commit(txn.get()).ok());
  EXPECT_FALSE(store_.Exists(oid));
  EXPECT_TRUE(store_.Extent("C").empty());
  std::string cls, state;
  EXPECT_TRUE(store_.Get(nullptr, oid, &cls, &state).IsNotFound());
}

TEST_F(ObjectStoreTest, DeleteOfMissingObjectIsNotFound) {
  auto txn = store_.txns()->Begin();
  EXPECT_TRUE(store_.Delete(txn.get(), 9999).IsNotFound());
  ASSERT_TRUE(store_.txns()->Abort(txn.get()).ok());
}

TEST_F(ObjectStoreTest, GetAfterDeleteInSameTxnIsNotFound) {
  Oid oid = store_.NewOid();
  ASSERT_TRUE(CommitPut(oid, "C", "v").ok());
  auto txn = store_.txns()->Begin();
  ASSERT_TRUE(store_.Delete(txn.get(), oid).ok());
  std::string cls, state;
  EXPECT_TRUE(store_.Get(txn.get(), oid, &cls, &state).IsNotFound());
  ASSERT_TRUE(store_.txns()->Abort(txn.get()).ok());
  // Abort restores visibility.
  EXPECT_TRUE(store_.Exists(oid));
}

TEST_F(ObjectStoreTest, ExtentsTrackClasses) {
  Oid e1 = store_.NewOid(), e2 = store_.NewOid(), m1 = store_.NewOid();
  ASSERT_TRUE(CommitPut(e1, "Employee", "a").ok());
  ASSERT_TRUE(CommitPut(e2, "Employee", "b").ok());
  ASSERT_TRUE(CommitPut(m1, "Manager", "c").ok());
  EXPECT_EQ(store_.Extent("Employee"), (std::vector<Oid>{e1, e2}));
  EXPECT_EQ(store_.Extent("Manager"), (std::vector<Oid>{m1}));
  EXPECT_TRUE(store_.Extent("Ghost").empty());
  EXPECT_EQ(store_.ObjectCount(), 3u);
}

TEST_F(ObjectStoreTest, DeepExtentFollowsSubclasses) {
  ClassCatalog catalog;
  ASSERT_TRUE(catalog.RegisterClass(
      ClassBuilder("Employee").Reactive().Build()).ok());
  ASSERT_TRUE(catalog.RegisterClass(
      ClassBuilder("Manager").Extends("Employee").Build()).ok());
  Oid e1 = store_.NewOid(), m1 = store_.NewOid();
  ASSERT_TRUE(CommitPut(e1, "Employee", "a").ok());
  ASSERT_TRUE(CommitPut(m1, "Manager", "b").ok());
  EXPECT_EQ(store_.DeepExtent("Employee", catalog),
            (std::vector<Oid>{e1, m1}));
  EXPECT_EQ(store_.DeepExtent("Manager", catalog), (std::vector<Oid>{m1}));
}

TEST_F(ObjectStoreTest, StateSurvivesReopen) {
  Oid oid = store_.NewOid();
  ASSERT_TRUE(CommitPut(oid, "Employee", "durable").ok());
  ASSERT_TRUE(store_.Close().ok());

  ObjectStore reopened(metrics_);
  ASSERT_TRUE(reopened.Open(dir_.path()).ok());
  std::string cls, state;
  ASSERT_TRUE(reopened.Get(nullptr, oid, &cls, &state).ok());
  EXPECT_EQ(cls, "Employee");
  EXPECT_EQ(state, "durable");
  EXPECT_EQ(reopened.Extent("Employee"), std::vector<Oid>{oid});
  // Oid generation resumes above existing ids.
  EXPECT_GT(reopened.NewOid(), oid);
}

TEST_F(ObjectStoreTest, RecoveryReplaysCommittedWal) {
  // Write straight into the WAL (simulating a crash after commit record but
  // before the heap was updated), then reopen.
  Oid oid = store_.NewOid();
  std::string framed = ObjectStore::FrameRecord(oid, "C", "recovered");
  ASSERT_TRUE(store_.Close().ok());
  {
    WalManager wal(metrics_);
    ASSERT_TRUE(wal.Open(dir_.path() + "/wal.log").ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kBegin, 42, 0, "").ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kPut, 42, oid, framed).ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kCommit, 42, 0, "").ok());
    ASSERT_TRUE(wal.Sync().ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  ObjectStore reopened(metrics_);
  ASSERT_TRUE(reopened.Open(dir_.path()).ok());
  std::string cls, state;
  ASSERT_TRUE(reopened.Get(nullptr, oid, &cls, &state).ok());
  EXPECT_EQ(state, "recovered");
}

TEST_F(ObjectStoreTest, RecoveryIgnoresUncommittedWal) {
  Oid oid = store_.NewOid();
  std::string framed = ObjectStore::FrameRecord(oid, "C", "ghost");
  ASSERT_TRUE(store_.Close().ok());
  {
    WalManager wal(metrics_);
    ASSERT_TRUE(wal.Open(dir_.path() + "/wal.log").ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kBegin, 42, 0, "").ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kPut, 42, oid, framed).ok());
    // No commit record: the transaction never finished.
    ASSERT_TRUE(wal.Sync().ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  ObjectStore reopened(metrics_);
  ASSERT_TRUE(reopened.Open(dir_.path()).ok());
  EXPECT_FALSE(reopened.Exists(oid));
}

// A crash tears the first frame of a header-only WAL (the state a fresh
// store, or Recover's Reset, leaves). Open reads no record, so recovery has
// nothing to redo; the next synced commit must still survive a crash, not
// sit behind the torn length prefix where replay would take it for the
// same torn tail.
TEST_F(ObjectStoreTest, TornFirstWalRecordDoesNotHideLaterCommits) {
  TempDir dir("store-torn");
  {
    WalManager wal(metrics_);  // A header-only log.
    ASSERT_TRUE(wal.Open(dir.path() + "/wal.log").ok());
    ASSERT_TRUE(wal.Close().ok());
    std::ofstream out(dir.path() + "/wal.log",
                      std::ios::binary | std::ios::app);
    const uint32_t len = 1000;
    out.write(reinterpret_cast<const char*>(&len), 4);
    out.write("torn-bytes", 8);  // 12 of 1008 framed bytes.
  }
  ObjectStore reopened(metrics_);
  ASSERT_TRUE(reopened.Open(dir.path()).ok());
  const Oid oid = reopened.NewOid();
  ASSERT_TRUE(reopened
                  .SystemApplyBatch(
                      {{.oid = oid, .class_name = "C", .state = "synced"}})
                  .ok());

  // The crash image: the files as they are now, with no Close.
  TempDir image("store-image");
  for (const char* name : {"/wal.log", "/heap.db"}) {
    std::filesystem::copy_file(dir.path() + name, image.path() + name);
  }
  ObjectStore recovered(metrics_);
  ASSERT_TRUE(recovered.Open(image.path()).ok());
  std::string cls, state;
  Status s = recovered.Get(nullptr, oid, &cls, &state);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(state, "synced");
  ASSERT_TRUE(recovered.Close().ok());
  ASSERT_TRUE(reopened.Close().ok());
}

TEST_F(ObjectStoreTest, ManyObjectsSpanPages) {
  std::string big_state(800, 'x');
  std::vector<Oid> oids;
  for (int i = 0; i < 50; ++i) {
    Oid oid = store_.NewOid();
    oids.push_back(oid);
    ASSERT_TRUE(CommitPut(oid, "Bulk", big_state + std::to_string(i)).ok());
  }
  EXPECT_EQ(store_.ObjectCount(), 50u);
  // Spot-check across page boundaries.
  std::string cls, state;
  ASSERT_TRUE(store_.Get(nullptr, oids[0], &cls, &state).ok());
  EXPECT_EQ(state, big_state + "0");
  ASSERT_TRUE(store_.Get(nullptr, oids[49], &cls, &state).ok());
  EXPECT_EQ(state, big_state + "49");
}

TEST_F(ObjectStoreTest, GrownRecordMovesAcrossPages) {
  Oid oid = store_.NewOid();
  ASSERT_TRUE(CommitPut(oid, "C", "small").ok());
  // Fill the page so the grown record cannot stay.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(CommitPut(store_.NewOid(), "C", std::string(350, 'f')).ok());
  }
  std::string grown(2000, 'G');
  ASSERT_TRUE(CommitPut(oid, "C", grown).ok());
  std::string cls, state;
  ASSERT_TRUE(store_.Get(nullptr, oid, &cls, &state).ok());
  EXPECT_EQ(state, grown);
}

TEST_F(ObjectStoreTest, ObjectLargerThanPageIsChunked) {
  Oid oid = store_.NewOid();
  std::string huge;
  for (int i = 0; i < 3000; ++i) {
    huge += "chunk payload " + std::to_string(i) + ";";
  }
  ASSERT_GT(huge.size(), kPageSize * 10);
  ASSERT_TRUE(CommitPut(oid, "Big", huge).ok());
  std::string cls, state;
  ASSERT_TRUE(store_.Get(nullptr, oid, &cls, &state).ok());
  EXPECT_EQ(cls, "Big");
  EXPECT_EQ(state, huge);
  EXPECT_EQ(store_.Extent("Big"), std::vector<Oid>{oid});
}

TEST_F(ObjectStoreTest, ChunkedObjectSurvivesReopenAndUpdateAndDelete) {
  Oid oid = store_.NewOid();
  std::string huge(kPageSize * 3, 'H');
  ASSERT_TRUE(CommitPut(oid, "Big", huge).ok());
  // Shrink it to a single-chunk image.
  ASSERT_TRUE(CommitPut(oid, "Big", "now small").ok());
  std::string cls, state;
  ASSERT_TRUE(store_.Get(nullptr, oid, &cls, &state).ok());
  EXPECT_EQ(state, "now small");
  // Grow again, reopen, verify.
  std::string huge2(kPageSize * 2, 'G');
  ASSERT_TRUE(CommitPut(oid, "Big", huge2).ok());
  ASSERT_TRUE(store_.Close().ok());
  ObjectStore reopened(metrics_);
  ASSERT_TRUE(reopened.Open(dir_.path()).ok());
  ASSERT_TRUE(reopened.Get(nullptr, oid, &cls, &state).ok());
  EXPECT_EQ(state, huge2);
  // Delete removes all chunks.
  auto txn = reopened.txns()->Begin();
  ASSERT_TRUE(reopened.Delete(txn.get(), oid).ok());
  ASSERT_TRUE(reopened.txns()->Commit(txn.get()).ok());
  EXPECT_FALSE(reopened.Exists(oid));
  EXPECT_TRUE(reopened.Extent("Big").empty());
}

TEST_F(ObjectStoreTest, CatalogSaveLoadRoundTrip) {
  ClassCatalog catalog;
  ASSERT_TRUE(catalog.RegisterClass(
      ClassBuilder("Stock").Reactive().Method("SetPrice", {.end = true})
          .Build()).ok());
  ASSERT_TRUE(store_.SaveCatalog(catalog).ok());
  ClassCatalog restored;
  ASSERT_TRUE(store_.LoadCatalog(&restored).ok());
  EXPECT_TRUE(restored.HasClass("Stock"));
  EXPECT_TRUE(restored.EventSpecFor("Stock", "SetPrice").end);
  // The catalog record is a system record: not in any extent.
  EXPECT_EQ(store_.ObjectCount(), 0u);
}

TEST_F(ObjectStoreTest, LoadCatalogWithoutSaveIsNotFound) {
  ClassCatalog catalog;
  EXPECT_TRUE(store_.LoadCatalog(&catalog).IsNotFound());
}

TEST_F(ObjectStoreTest, WriteConflictWaitDie) {
  Oid oid = store_.NewOid();
  ASSERT_TRUE(CommitPut(oid, "C", "v").ok());
  auto older = store_.txns()->Begin();
  auto younger = store_.txns()->Begin();
  ASSERT_TRUE(store_.Put(older.get(), oid, "C", "older").ok());
  // Younger conflicting writer dies immediately.
  EXPECT_TRUE(store_.Put(younger.get(), oid, "C", "younger").IsAborted());
  ASSERT_TRUE(store_.txns()->Abort(younger.get()).ok());
  ASSERT_TRUE(store_.txns()->Commit(older.get()).ok());
  std::string cls, state;
  ASSERT_TRUE(store_.Get(nullptr, oid, &cls, &state).ok());
  EXPECT_EQ(state, "older");
}

TEST_F(ObjectStoreTest, CheckpointTruncatesWal) {
  Oid oid = store_.NewOid();
  ASSERT_TRUE(CommitPut(oid, "C", "v").ok());
  ASSERT_TRUE(store_.Checkpoint().ok());
  // After checkpoint + reopen the data is still there (from the heap).
  ASSERT_TRUE(store_.Close().ok());
  ObjectStore reopened(metrics_);
  ASSERT_TRUE(reopened.Open(dir_.path()).ok());
  EXPECT_TRUE(reopened.Exists(oid));
}

/// Feeds committed puts and deletes into an AttributeIndex, the way the
/// Database facade does.
class IndexingObserver : public CommitObserver {
 public:
  explicit IndexingObserver(AttributeIndex* index) : index_(index) {}
  void OnCommittedPut(Oid oid, std::string_view class_name,
                      std::string_view state) override {
    index_->OnCommittedPut(oid, class_name, state);
  }
  void OnCommittedDelete(Oid oid) override { index_->OnCommittedDelete(oid); }

 private:
  AttributeIndex* index_;
};

// A seeded sweep across the chunk boundaries: images of MaxFragment - 1,
// MaxFragment, MaxFragment + 1 and 2 * MaxFragment bytes (plus small ones),
// updates that move objects between chunk counts, deletes, and a reopen
// after every phase, all checked against a std::map model.
TEST_F(ObjectStoreTest, ChunkBoundarySweepMatchesModelAcrossReopens) {
  const size_t m = ObjectStore::MaxFragment("Blob");
  const std::vector<size_t> sizes = {0, 1, 300, m - 1, m, m + 1, 2 * m,
                                     2 * m + 1};
  std::mt19937 rng(7331);
  auto image = [&](size_t n) {
    std::string s(n, '\0');
    for (char& c : s) c = static_cast<char>(rng());
    return s;
  };
  std::map<Oid, std::string> model;
  std::vector<Oid> oids;
  for (int i = 0; i < 24; ++i) oids.push_back(store_.NewOid());

  auto check = [&](const char* phase) {
    SCOPED_TRACE(phase);
    EXPECT_EQ(store_.ObjectCount(), model.size());
    EXPECT_EQ(store_.Extent("Blob").size(), model.size());
    for (Oid oid : oids) {
      std::string cls, state;
      Status s = store_.Get(nullptr, oid, &cls, &state);
      auto it = model.find(oid);
      if (it == model.end()) {
        EXPECT_TRUE(s.IsNotFound()) << OidToString(oid);
        continue;
      }
      ASSERT_TRUE(s.ok()) << OidToString(oid) << ": " << s.ToString();
      EXPECT_EQ(cls, "Blob");
      EXPECT_EQ(state.size(), it->second.size()) << OidToString(oid);
      EXPECT_TRUE(state == it->second) << OidToString(oid);
    }
  };
  auto reopen = [&] {
    ASSERT_TRUE(store_.Close().ok());
    ASSERT_TRUE(store_.Open(dir_.path()).ok());
  };

  // Phase 1: create every object, cycling through the sizes.
  for (size_t i = 0; i < oids.size(); ++i) {
    model[oids[i]] = image(sizes[i % sizes.size()]);
    ASSERT_TRUE(CommitPut(oids[i], "Blob", model[oids[i]]).ok());
  }
  check("created");
  reopen();
  check("created, reopened");

  // Phases 2 and 3: random resizes (crossing chunk counts both ways),
  // several per transaction, plus deletes and re-creates.
  for (int phase = 0; phase < 2; ++phase) {
    for (int round = 0; round < 40; ++round) {
      auto txn = store_.txns()->Begin();
      std::map<Oid, std::string> staged;
      std::vector<Oid> deleted;
      for (int k = 0; k < 3; ++k) {
        const Oid oid = oids[rng() % oids.size()];
        if (staged.count(oid) != 0) continue;
        if (rng() % 6 == 0 && model.count(oid) != 0) {
          ASSERT_TRUE(store_.Delete(txn.get(), oid).ok());
          deleted.push_back(oid);
          staged[oid] = "";
          continue;
        }
        std::string next = image(sizes[rng() % sizes.size()]);
        ASSERT_TRUE(store_.Put(txn.get(), oid, "Blob", next).ok());
        staged[oid] = std::move(next);
      }
      ASSERT_TRUE(store_.txns()->Commit(txn.get()).ok());
      for (auto& [oid, next] : staged) model[oid] = std::move(next);
      for (Oid oid : deleted) model.erase(oid);
    }
    check("updated");
    reopen();
    check("updated, reopened");
  }
}

// The commit observer sees each committed image through string views,
// multi-chunk images whole: an index over an attribute stays exact as
// objects grow across chunk counts and shrink back.
TEST_F(ObjectStoreTest, ObserverIndexesChunkedImagesThroughViews) {
  AttributeIndex index;
  ASSERT_TRUE(index.CreateIndex({"Stock", "price"}).ok());
  IndexingObserver observer(&index);
  store_.SetCommitObserver(&observer);
  const size_t m = ObjectStore::MaxFragment("Stock");
  auto stock = [](double price, size_t pad) {
    PersistentObject obj("Stock");
    obj.SetAttrRaw("price", Value(price));
    obj.SetAttrRaw("notes", Value(std::string(pad, 'n')));
    Encoder enc;
    obj.SerializeState(&enc);
    return enc.Release();
  };
  const Oid small = store_.NewOid();
  const Oid large = store_.NewOid();
  ASSERT_TRUE(CommitPut(small, "Stock", stock(10.0, 8)).ok());
  ASSERT_TRUE(CommitPut(large, "Stock", stock(20.0, 2 * m)).ok());
  auto lookup = [&](double price) {
    auto found = index.Lookup({"Stock", "price"}, Value(price));
    EXPECT_TRUE(found.ok());
    return found.ok() ? found.value() : std::vector<Oid>{};
  };
  EXPECT_EQ(lookup(10.0), std::vector<Oid>{small});
  EXPECT_EQ(lookup(20.0), std::vector<Oid>{large});

  // Grow the small one to three chunks and shrink the large one to one.
  ASSERT_TRUE(CommitPut(small, "Stock", stock(30.0, 2 * m + 5)).ok());
  ASSERT_TRUE(CommitPut(large, "Stock", stock(40.0, 1)).ok());
  EXPECT_TRUE(lookup(10.0).empty());
  EXPECT_TRUE(lookup(20.0).empty());
  EXPECT_EQ(lookup(30.0), std::vector<Oid>{small});
  EXPECT_EQ(lookup(40.0), std::vector<Oid>{large});
  EXPECT_EQ(index.unindexable_count(), 0u);
  store_.SetCommitObserver(nullptr);
}

// A heap page that never reached the file below one that did (a hole)
// reads as zeros, and the open-time directory scan skips it: the objects
// on the written page are found and new pages land above both.
TEST_F(ObjectStoreTest, RebuildDirectorySkipsHolePages) {
  const Oid before = store_.NewOid();
  ASSERT_TRUE(CommitPut(before, "Doc", "written before the hole").ok());
  ASSERT_TRUE(store_.Close().ok());

  // Append a hole and then a slotted page holding one chunk record,
  // [oid][class]["index"][count][fragment], of a new object.
  const Oid after = before + 1000;
  PageId hole = kInvalidPageId;
  {
    MetricsRegistry metrics;
    DiskManager disk(metrics);
    ASSERT_TRUE(disk.Open(dir_.path() + "/heap.db").ok());
    auto h = disk.AllocatePage();
    auto p = disk.AllocatePage();
    ASSERT_TRUE(h.ok() && p.ok());
    hole = h.value();
    Page page;
    SlottedPage sp(&page);
    sp.Init();
    Encoder chunk;
    chunk.PutU64(after);
    chunk.PutString("Doc");
    chunk.PutU32(0);
    chunk.PutU32(1);
    chunk.PutString("written above the hole");
    ASSERT_TRUE(sp.Insert(chunk.buffer()).ok());
    ASSERT_TRUE(disk.WritePage(p.value(), page.data()).ok());
    ASSERT_TRUE(disk.Close().ok());
  }
  {
    MetricsRegistry metrics;
    DiskManager disk(metrics);
    ASSERT_TRUE(disk.Open(dir_.path() + "/heap.db").ok());
    char bytes[kPageSize];
    ASSERT_TRUE(disk.ReadPage(hole, bytes).ok());
    const char zeros[kPageSize] = {};
    EXPECT_EQ(std::memcmp(bytes, zeros, kPageSize), 0);
  }

  ASSERT_TRUE(store_.Open(dir_.path()).ok());
  EXPECT_EQ(store_.ObjectCount(), 2u);
  std::string cls, state;
  ASSERT_TRUE(store_.Get(nullptr, before, &cls, &state).ok());
  EXPECT_EQ(state, "written before the hole");
  ASSERT_TRUE(store_.Get(nullptr, after, &cls, &state).ok());
  EXPECT_EQ(state, "written above the hole");

  // The store keeps working on top: new images and a reopen.
  const Oid next = store_.NewOid();
  EXPECT_GT(next, after);
  ASSERT_TRUE(CommitPut(next, "Doc", std::string(3000, 'z')).ok());
  ASSERT_TRUE(store_.Close().ok());
  ASSERT_TRUE(store_.Open(dir_.path()).ok());
  EXPECT_EQ(store_.ObjectCount(), 3u);
  ASSERT_TRUE(store_.Get(nullptr, next, &cls, &state).ok());
  EXPECT_EQ(state, std::string(3000, 'z'));
}

}  // namespace
}  // namespace sentinel
