// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Sharded raise path: routing determinism, thread-to-shard binding, and —
// the property everything else rests on — a sharded database observing
// exactly the occurrences and rule dispatches an unsharded one would, with
// cross-shard triggers forwarded instead of dropped or doubled.

#include "core/shard.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "../test_util.h"

namespace sentinel {
namespace {

using testing_util::TempDir;

TEST(ShardRoutingTest, OidRoutingIsDeterministicAndInRange) {
  for (size_t shards : {1u, 2u, 4u, 7u}) {
    for (Oid oid = 1; oid < 200; ++oid) {
      size_t s = ShardIndexForOid(oid, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, ShardIndexForOid(oid, shards)) << "unstable for " << oid;
    }
  }
}

TEST(ShardRoutingTest, NameRoutingIsDeterministicAndInRange) {
  for (size_t shards : {1u, 3u, 4u}) {
    for (const char* name : {"Stock", "Sensor", "Employee", ""}) {
      size_t s = ShardIndexForName(name, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, ShardIndexForName(name, shards));
    }
  }
}

TEST(ShardRoutingTest, RouteUsesOidWhenPresentElseClassName) {
  EXPECT_EQ(ShardIndexForRoute("Stock", 42, 4), ShardIndexForOid(42, 4));
  EXPECT_EQ(ShardIndexForRoute("Stock", 0, 4), ShardIndexForName("Stock", 4));
  EXPECT_EQ(ShardIndexForRoute("Stock", 42, 1), 0u);
}

TEST(ShardRoutingTest, OidsSpreadAcrossShards) {
  // Not a distribution-quality test, just "the hash is not constant":
  // 256 consecutive oids must hit every one of 4 shards.
  std::vector<int> hits(4, 0);
  for (Oid oid = 1; oid <= 256; ++oid) ++hits[ShardIndexForOid(oid, 4)];
  for (int h : hits) EXPECT_GT(h, 0);
}

TEST(SpscRingTest, PushPopOrdering) {
  SpscRing<int> ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  int out = 0;
  EXPECT_FALSE(ring.TryPop(&out));
  for (int i = 0; i < 8; ++i) {
    int item = i;
    EXPECT_TRUE(ring.TryPush(item));
  }
  int overflow = 99;
  EXPECT_FALSE(ring.TryPush(overflow));  // Full.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, i);  // FIFO.
  }
  EXPECT_FALSE(ring.TryPop(&out));
}

// Ordering regression stress, written to fail loudly under TSan if either
// release/acquire pair in SpscRing (documented in core/shard.h) is ever
// weakened: the payload is a heap-owning type, so a consumer reading a
// half-published slot (tail pair broken) or a producer reusing a slot
// before the move-out completes (head pair broken) is a data race on the
// string's heap cell, not just a wrong value. A tiny ring maximizes
// wrap-around and full/empty boundary crossings, where the races live.
TEST(SpscRingTest, ConcurrentPushPopStress) {
  constexpr uint64_t kItems = 50000;
  SpscRing<std::string> ring(4);
  std::thread consumer([&ring] {
    std::string out;
    for (uint64_t expect = 0; expect < kItems;) {
      if (!ring.TryPop(&out)) {
        // Yield on empty: on a single core a bare spin burns the whole
        // scheduling quantum before the producer can refill.
        std::this_thread::yield();
        continue;
      }
      ASSERT_EQ(out, std::to_string(expect)) << "at item " << expect;
      ++expect;
    }
  });
  for (uint64_t i = 0; i < kItems;) {
    std::string item = std::to_string(i);
    if (!ring.TryPush(item)) {
      std::this_thread::yield();
      continue;
    }
    ++i;
  }
  consumer.join();
  std::string leftover;
  EXPECT_FALSE(ring.TryPop(&leftover));
}

class ShardedDatabaseTest : public ::testing::Test {
 protected:
  ShardedDatabaseTest() : dir_("shard") {}

  void Open(size_t shards) {
    Database::Options options;
    options.dir = dir_.path();
    options.raise_shards = shards;
    auto opened = Database::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db_ = std::move(opened).value();
    ASSERT_TRUE(db_->RegisterClass(ClassBuilder("Stock")
                                       .Reactive()
                                       .Method("SetPrice", {.end = true})
                                       .Build())
                    .ok());
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(ShardedDatabaseTest, SingleShardBindIsANoop) {
  Open(1);
  EXPECT_EQ(db_->raise_shards(), 1u);
  Database::BindRaiseShard(3);  // Ignored in effect: everything is shard 0.
  EXPECT_EQ(db_->CurrentShardIndex(), 0u);
  Database::BindRaiseShard(0);
}

TEST_F(ShardedDatabaseTest, BindClampsToShardCount) {
  Open(2);
  Database::BindRaiseShard(7);
  EXPECT_EQ(db_->CurrentShardIndex(), 1u);  // Clamped to the last shard.
  Database::BindRaiseShard(1);
  EXPECT_EQ(db_->CurrentShardIndex(), 1u);
  Database::BindRaiseShard(0);
  EXPECT_EQ(db_->CurrentShardIndex(), 0u);
}

TEST_F(ShardedDatabaseTest, ParallelRaisesMatchSingleShardCounts) {
  // The acceptance property: occurrence counts and rule-dispatch counts
  // from a 4-shard parallel run must equal the single-shard sequential
  // run of the same workload.
  constexpr size_t kShards = 4;
  constexpr int kObjectsPerShard = 4;
  constexpr int kRaisesPerObject = 50;

  Open(kShards);
  ASSERT_EQ(db_->raise_shards(), kShards);

  std::atomic<int> fired{0};
  auto event = db_->CreatePrimitiveEvent("end Stock::SetPrice");
  ASSERT_TRUE(event.ok());
  RuleSpec spec;
  spec.name = "count";
  spec.event = event.value();
  spec.action = [&fired](RuleContext&) {
    fired.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  };
  ASSERT_TRUE(db_->DeclareClassRule("Stock", spec).ok());

  // Bucket registered objects by their owning shard until every shard has
  // its quota (registration hands out sequential oids; splitmix spreads
  // them, so a few extras may land before the last bucket fills).
  std::vector<std::vector<ReactiveObject*>> by_shard(kShards);
  std::vector<std::unique_ptr<ReactiveObject>> objects;
  size_t filled = 0;
  while (filled < kShards) {
    auto obj = std::make_unique<ReactiveObject>("Stock");
    ASSERT_TRUE(db_->RegisterLiveObject(obj.get()).ok());
    size_t shard = ShardIndexForOid(obj->oid(), kShards);
    if (by_shard[shard].size() <
        static_cast<size_t>(kObjectsPerShard)) {
      by_shard[shard].push_back(obj.get());
      if (by_shard[shard].size() == kObjectsPerShard) ++filled;
      objects.push_back(std::move(obj));
    } else {
      ASSERT_TRUE(db_->UnregisterLiveObject(obj.get()).ok());
    }
  }

  // One thread per shard — the gateway's threading contract — raising
  // only on objects its shard owns.
  std::vector<std::thread> threads;
  for (size_t shard = 0; shard < kShards; ++shard) {
    threads.emplace_back([this, shard, &by_shard] {
      Database::BindRaiseShard(shard);
      for (int i = 0; i < kRaisesPerObject; ++i) {
        for (ReactiveObject* obj : by_shard[shard]) {
          obj->RaiseEvent("SetPrice", EventModifier::kEnd,
                          {Value(static_cast<double>(i))});
        }
        // Rules forwarded here by the other shards must run on this
        // thread; a real gateway worker drains between batches too.
        db_->DrainForwarded();
      }
      db_->DrainForwarded();
    });
  }
  for (auto& t : threads) t.join();
  // Stragglers forwarded after a peer's last drain. The workers are
  // quiesced, so draining from this thread is safe.
  db_->DrainAllForwardedShards();

  const uint64_t expected =
      static_cast<uint64_t>(kShards) * kObjectsPerShard * kRaisesPerObject;
  EXPECT_EQ(db_->metrics()->counter("events.occurrences")->Value(), expected);
  EXPECT_EQ(static_cast<uint64_t>(fired.load()), expected);
  EXPECT_EQ(db_->metrics()->histogram("rules.dispatch_ns")->Count(), expected);

  for (auto& obj : objects) {
    ASSERT_TRUE(db_->UnregisterLiveObject(obj.get()).ok());
  }
  ASSERT_TRUE(db_->Close().ok());

  // The same workload, single-shard and sequential, for the baseline.
  db_.reset();
  TempDir baseline_dir("shard_base");
  Database::Options options;
  options.dir = baseline_dir.path();
  options.raise_shards = 1;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok());
  auto base = std::move(opened).value();
  ASSERT_TRUE(base->RegisterClass(ClassBuilder("Stock")
                                      .Reactive()
                                      .Method("SetPrice", {.end = true})
                                      .Build())
                  .ok());
  std::atomic<int> base_fired{0};
  auto base_event = base->CreatePrimitiveEvent("end Stock::SetPrice");
  ASSERT_TRUE(base_event.ok());
  RuleSpec base_spec;
  base_spec.name = "count";
  base_spec.event = base_event.value();
  base_spec.action = [&base_fired](RuleContext&) {
    base_fired.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  };
  ASSERT_TRUE(base->DeclareClassRule("Stock", base_spec).ok());
  std::vector<std::unique_ptr<ReactiveObject>> base_objects;
  for (size_t i = 0; i < kShards * kObjectsPerShard; ++i) {
    auto obj = std::make_unique<ReactiveObject>("Stock");
    ASSERT_TRUE(base->RegisterLiveObject(obj.get()).ok());
    base_objects.push_back(std::move(obj));
  }
  for (int i = 0; i < kRaisesPerObject; ++i) {
    for (auto& obj : base_objects) {
      obj->RaiseEvent("SetPrice", EventModifier::kEnd,
                      {Value(static_cast<double>(i))});
    }
  }
  EXPECT_EQ(base->metrics()->counter("events.occurrences")->Value(), expected);
  EXPECT_EQ(static_cast<uint64_t>(base_fired.load()), expected);
  EXPECT_EQ(base->metrics()->histogram("rules.dispatch_ns")->Count(), expected);
  for (auto& obj : base_objects) {
    ASSERT_TRUE(base->UnregisterLiveObject(obj.get()).ok());
  }
  ASSERT_TRUE(base->Close().ok());
  Database::BindRaiseShard(0);
}

TEST_F(ShardedDatabaseTest, CrossShardTriggerForwardsToOwningShard) {
  // An instance rule is owned by its object's shard; a class rule by the
  // class-name hash shard. A raise on any *other* shard must forward the
  // trigger, and the owning shard's drain must run it.
  Open(4);
  std::atomic<int> fired{0};
  auto event = db_->CreatePrimitiveEvent("end Stock::SetPrice");
  ASSERT_TRUE(event.ok());
  RuleSpec spec;
  spec.name = "count";
  spec.event = event.value();
  spec.action = [&fired](RuleContext&) {
    fired.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  };
  ASSERT_TRUE(db_->DeclareClassRule("Stock", spec).ok());
  const size_t owner = ShardIndexForName("Stock", 4);

  // Find an object owned by a different shard than the rule.
  std::vector<std::unique_ptr<ReactiveObject>> objects;
  ReactiveObject* foreign = nullptr;
  while (foreign == nullptr) {
    auto obj = std::make_unique<ReactiveObject>("Stock");
    ASSERT_TRUE(db_->RegisterLiveObject(obj.get()).ok());
    if (ShardIndexForOid(obj->oid(), 4) != owner) foreign = obj.get();
    objects.push_back(std::move(obj));
  }
  const size_t raiser = ShardIndexForOid(foreign->oid(), 4);
  ASSERT_NE(raiser, owner);

  std::thread t([this, raiser, foreign] {
    Database::BindRaiseShard(raiser);
    foreign->RaiseEvent("SetPrice", EventModifier::kEnd, {Value(1.0)});
  });
  t.join();

  // The occurrence was logged by the raising shard, but the rule has not
  // run yet: its trigger sits in the owner's inbox.
  EXPECT_EQ(db_->metrics()->counter("events.occurrences")->Value(), 1u);
  EXPECT_EQ(fired.load(), 0);

  std::thread drainer([this, owner] {
    Database::BindRaiseShard(owner);
    while (db_->DrainForwarded() == 0) std::this_thread::yield();
  });
  drainer.join();
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(db_->metrics()->histogram("rules.dispatch_ns")->Count(), 1u);

  for (auto& obj : objects) {
    ASSERT_TRUE(db_->UnregisterLiveObject(obj.get()).ok());
  }
  Database::BindRaiseShard(0);
}

}  // namespace
}  // namespace sentinel
