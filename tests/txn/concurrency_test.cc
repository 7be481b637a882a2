// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Multi-threaded stress over the transactional object store: wait-die
// conflicts with retry must serialize correctly (no lost updates), readers
// see only committed states, and the lock table drains to empty.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/codec.h"
#include "oodb/object_store.h"

#include "../test_util.h"

namespace sentinel {
namespace {

using testing_util::TempDir;

std::string EncodeCounter(int64_t n) {
  Encoder enc;
  enc.PutI64(n);
  return enc.Release();
}

int64_t DecodeCounter(const std::string& state) {
  Decoder dec(state);
  int64_t n = 0;
  EXPECT_TRUE(dec.GetI64(&n).ok());
  return n;
}

class ConcurrencyTest : public ::testing::Test {
 protected:
  ConcurrencyTest() : dir_("conc") {
    EXPECT_TRUE(store_.Open(dir_.path()).ok());
  }

  /// Read-modify-write increment with wait-die retry.
  void IncrementWithRetry(Oid oid) {
    for (;;) {
      auto txn = store_.txns()->Begin();
      std::string cls, state;
      Status s = store_.Get(txn.get(), oid, &cls, &state);
      if (s.ok()) {
        s = store_.Put(txn.get(), oid, cls,
                       EncodeCounter(DecodeCounter(state) + 1));
      }
      if (s.ok()) s = store_.txns()->Commit(txn.get());
      if (s.ok()) return;
      EXPECT_TRUE(s.IsAborted()) << s.ToString();
      store_.txns()->Abort(txn.get()).ok();  // Idempotent cleanup.
    }
  }

  TempDir dir_;
  MetricsRegistry metrics_;
  ObjectStore store_{metrics_};
};

TEST_F(ConcurrencyTest, ConcurrentIncrementsAreNotLost) {
  Oid oid = store_.NewOid();
  {
    auto txn = store_.txns()->Begin();
    ASSERT_TRUE(store_.Put(txn.get(), oid, "Counter",
                           EncodeCounter(0)).ok());
    ASSERT_TRUE(store_.txns()->Commit(txn.get()).ok());
  }
  constexpr int kThreads = 8;
  constexpr int kIncrements = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, oid]() {
      for (int i = 0; i < kIncrements; ++i) IncrementWithRetry(oid);
    });
  }
  for (auto& thread : threads) thread.join();

  std::string cls, state;
  ASSERT_TRUE(store_.Get(nullptr, oid, &cls, &state).ok());
  EXPECT_EQ(DecodeCounter(state), kThreads * kIncrements);
  EXPECT_EQ(store_.locks()->LockedResourceCount(), 0u);
}

TEST_F(ConcurrencyTest, DisjointWritersDoNotConflict) {
  constexpr int kThreads = 8;
  std::vector<Oid> oids;
  for (int i = 0; i < kThreads; ++i) oids.push_back(store_.NewOid());
  std::atomic<int> aborts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, &oids, &aborts, t]() {
      for (int i = 0; i < 50; ++i) {
        auto txn = store_.txns()->Begin();
        Status s = store_.Put(txn.get(), oids[static_cast<size_t>(t)],
                              "Own", EncodeCounter(i));
        if (s.ok()) s = store_.txns()->Commit(txn.get());
        if (!s.ok()) {
          ++aborts;
          store_.txns()->Abort(txn.get()).ok();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(aborts.load(), 0);  // Disjoint resources: never a conflict.
  for (Oid oid : oids) {
    std::string cls, state;
    ASSERT_TRUE(store_.Get(nullptr, oid, &cls, &state).ok());
    EXPECT_EQ(DecodeCounter(state), 49);
  }
}

TEST_F(ConcurrencyTest, ReadersSeeOnlyCommittedStates) {
  Oid oid = store_.NewOid();
  {
    auto txn = store_.txns()->Begin();
    ASSERT_TRUE(store_.Put(txn.get(), oid, "Counter",
                           EncodeCounter(0)).ok());
    ASSERT_TRUE(store_.txns()->Commit(txn.get()).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> bad_reads{0};
  // Writers commit only even values.
  std::thread writer([&]() {
    int64_t v = 0;
    while (!stop.load()) {
      v += 2;
      auto txn = store_.txns()->Begin();
      if (store_.Put(txn.get(), oid, "Counter", EncodeCounter(v)).ok()) {
        store_.txns()->Commit(txn.get()).ok();
      } else {
        store_.txns()->Abort(txn.get()).ok();
      }
    }
  });
  // Readers must never observe an odd value (and snapshot reads without a
  // txn read the committed heap image).
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&]() {
      for (int i = 0; i < 2000; ++i) {
        std::string cls, state;
        if (store_.Get(nullptr, oid, &cls, &state).ok()) {
          if (DecodeCounter(state) % 2 != 0) ++bad_reads;
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(bad_reads.load(), 0);
}

TEST_F(ConcurrencyTest, MixedReadWriteWorkloadDrainsCleanly) {
  std::vector<Oid> oids;
  for (int i = 0; i < 4; ++i) {
    Oid oid = store_.NewOid();
    auto txn = store_.txns()->Begin();
    ASSERT_TRUE(store_.Put(txn.get(), oid, "Hot", EncodeCounter(0)).ok());
    ASSERT_TRUE(store_.txns()->Commit(txn.get()).ok());
    oids.push_back(oid);
  }
  std::atomic<int64_t> committed_increments{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t]() {
      std::mt19937 rng(static_cast<unsigned>(t));
      for (int i = 0; i < 120; ++i) {
        Oid a = oids[rng() % oids.size()];
        Oid b = oids[rng() % oids.size()];
        auto txn = store_.txns()->Begin();
        std::string cls, state;
        Status s = store_.Get(txn.get(), a, &cls, &state);
        int64_t va = s.ok() ? DecodeCounter(state) : 0;
        if (s.ok() && a != b) s = store_.Get(txn.get(), b, &cls, &state);
        if (s.ok()) {
          s = store_.Put(txn.get(), a, "Hot", EncodeCounter(va + 1));
        }
        if (s.ok()) s = store_.txns()->Commit(txn.get());
        if (s.ok()) {
          committed_increments.fetch_add(1);
        } else {
          store_.txns()->Abort(txn.get()).ok();
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Conservation: the sum of counters equals the committed increments.
  int64_t total = 0;
  for (Oid oid : oids) {
    std::string cls, state;
    ASSERT_TRUE(store_.Get(nullptr, oid, &cls, &state).ok());
    total += DecodeCounter(state);
  }
  EXPECT_EQ(total, committed_increments.load());
  EXPECT_EQ(store_.locks()->LockedResourceCount(), 0u);
  // And the final state is durable.
  ASSERT_TRUE(store_.Close().ok());
  ObjectStore reopened(metrics_);
  ASSERT_TRUE(reopened.Open(dir_.path()).ok());
  int64_t total2 = 0;
  for (Oid oid : oids) {
    std::string cls, state;
    ASSERT_TRUE(reopened.Get(nullptr, oid, &cls, &state).ok());
    total2 += DecodeCounter(state);
  }
  EXPECT_EQ(total2, total);
}

}  // namespace
}  // namespace sentinel
