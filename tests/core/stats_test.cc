// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// StatsSnapshot plumbing: a scripted workload must be reflected *exactly*
// in the database's metrics snapshot — N raises produce N occurrence
// counts, each coupling mode tallies its own dispatches, transactions
// count their commits and aborts. Tests open the database with
// metrics_sample_mask = 0 so every raise is timed (no sampling noise).

#include <gtest/gtest.h>

#include <random>

#include "common/failpoint.h"
#include "common/json.h"
#include "common/metrics.h"
#include "core/database.h"
#include "repl/replicator.h"
#include "rules/rule_manager.h"

#include "../test_util.h"

namespace sentinel {
namespace {

using testing_util::TempDir;

class StatsTest : public ::testing::Test {
 protected:
  StatsTest() : dir_("stats") {
    Database::Options options;
    options.dir = dir_.path();
    options.metrics_sample_mask = 0;  // Time every top-level raise.
    auto opened = Database::Open(options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    db_ = std::move(opened).value();
    EXPECT_TRUE(db_->RegisterClass(ClassBuilder("Stock")
                                       .Reactive()
                                       .Method("SetPrice", {.end = true})
                                       .Build())
                    .ok());
  }

  /// One scripted update: a transaction raising "end Stock::SetPrice" once.
  Status Update(ReactiveObject* stock, double price) {
    return db_->WithTransaction([&](Transaction* txn) {
      MethodEventScope scope(stock, "SetPrice", {Value(price)});
      stock->SetAttr(txn, "price", Value(price));
      return Status::OK();
    });
  }

  static uint64_t CounterOf(const MetricsSnapshot& s, const std::string& k) {
    auto it = s.counters.find(k);
    return it == s.counters.end() ? 0 : it->second;
  }

  static uint64_t HistCountOf(const MetricsSnapshot& s,
                              const std::string& k) {
    auto it = s.histograms.find(k);
    return it == s.histograms.end() ? 0 : it->second.count;
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(StatsTest, RaisesAndCommitsAreCountedExactly) {
  ReactiveObject stock("Stock");
  ASSERT_TRUE(db_->RegisterLiveObject(&stock).ok());

  constexpr int kRaises = 10;
  MetricsSnapshot before = db_->StatsSnapshot();
  for (int i = 0; i < kRaises; ++i) {
    ASSERT_TRUE(Update(&stock, 100.0 + i).ok());
  }
  MetricsSnapshot after = db_->StatsSnapshot();

  // No rules attached: each update raises exactly one occurrence (the
  // designated end event) and commits exactly one transaction.
  EXPECT_EQ(CounterOf(after, "events.occurrences") -
                CounterOf(before, "events.occurrences"),
            static_cast<uint64_t>(kRaises));
  EXPECT_EQ(CounterOf(after, "txn.commits") - CounterOf(before, "txn.commits"),
            static_cast<uint64_t>(kRaises));
  EXPECT_EQ(CounterOf(after, "txn.aborts") - CounterOf(before, "txn.aborts"),
            0u);
  // mask = 0: every top-level raise lands in the latency histogram.
  EXPECT_EQ(HistCountOf(after, "events.raise_notify_ns") -
                HistCountOf(before, "events.raise_notify_ns"),
            static_cast<uint64_t>(kRaises));

  ASSERT_TRUE(db_->UnregisterLiveObject(&stock).ok());
}

TEST_F(StatsTest, DispatchCountersTallyPerCouplingMode) {
  ReactiveObject stock("Stock");
  ASSERT_TRUE(db_->RegisterLiveObject(&stock).ok());

  auto make_rule = [&](const std::string& name, CouplingMode coupling) {
    auto event = db_->CreatePrimitiveEvent("end Stock::SetPrice").value();
    RuleSpec spec;
    spec.name = name;
    spec.event = event;
    spec.coupling = coupling;
    spec.action = [](RuleContext&) { return Status::OK(); };
    auto rule = db_->CreateRule(spec).value();
    EXPECT_TRUE(db_->ApplyRuleToInstance(rule, &stock).ok());
    return rule;
  };
  make_rule("imm", CouplingMode::kImmediate);
  make_rule("def", CouplingMode::kDeferred);
  make_rule("det", CouplingMode::kDetached);

  constexpr int kRaises = 7;
  MetricsSnapshot before = db_->StatsSnapshot();
  for (int i = 0; i < kRaises; ++i) {
    ASSERT_TRUE(Update(&stock, 100.0 + i).ok());
  }
  MetricsSnapshot after = db_->StatsSnapshot();

  // Each raise triggers all three rules once, and each lands on its own
  // coupling counter exactly once.
  for (const char* key : {"rules.dispatch.immediate", "rules.dispatch.deferred",
                          "rules.dispatch.detached"}) {
    EXPECT_EQ(CounterOf(after, key) - CounterOf(before, key),
              static_cast<uint64_t>(kRaises))
        << key;
  }
  // Every execution records a body latency and a cascade depth.
  EXPECT_EQ(HistCountOf(after, "rules.dispatch_ns") -
                HistCountOf(before, "rules.dispatch_ns"),
            static_cast<uint64_t>(3 * kRaises));
  EXPECT_EQ(HistCountOf(after, "rules.cascade_depth") -
                HistCountOf(before, "rules.cascade_depth"),
            static_cast<uint64_t>(3 * kRaises));
  // Detached rules each ran in their own follow-on transaction.
  EXPECT_EQ(CounterOf(after, "txn.commits") - CounterOf(before, "txn.commits"),
            static_cast<uint64_t>(2 * kRaises));

  ASSERT_TRUE(db_->UnregisterLiveObject(&stock).ok());
}

TEST_F(StatsTest, AbortsAreCounted) {
  ReactiveObject stock("Stock");
  ASSERT_TRUE(db_->RegisterLiveObject(&stock).ok());

  auto event = db_->CreatePrimitiveEvent("end Stock::SetPrice").value();
  RuleSpec spec;
  spec.name = "veto";
  spec.event = event;
  spec.action = [](RuleContext& ctx) {
    if (ctx.txn != nullptr) ctx.txn->RequestAbort("vetoed");
    return Status::OK();
  };
  auto rule = db_->CreateRule(spec).value();
  ASSERT_TRUE(db_->ApplyRuleToInstance(rule, &stock).ok());

  MetricsSnapshot before = db_->StatsSnapshot();
  EXPECT_TRUE(Update(&stock, 1.0).IsAborted());
  MetricsSnapshot after = db_->StatsSnapshot();

  EXPECT_EQ(CounterOf(after, "txn.aborts") - CounterOf(before, "txn.aborts"),
            1u);
  EXPECT_EQ(CounterOf(after, "txn.commits") - CounterOf(before, "txn.commits"),
            0u);

  ASSERT_TRUE(db_->UnregisterLiveObject(&stock).ok());
}

TEST_F(StatsTest, StorageAndWalMetricsArePopulated) {
  ReactiveObject stock("Stock");
  ASSERT_TRUE(db_->RegisterLiveObject(&stock).ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(Update(&stock, 10.0 + i).ok());
  }
  MetricsSnapshot snapshot = db_->StatsSnapshot();

  // Commits sync the WAL; the workload touched heap pages through the pool.
  EXPECT_GT(HistCountOf(snapshot, "txn.wal_sync_ns"), 0u);
  EXPECT_GT(CounterOf(snapshot, "storage.pool.hits") +
                CounterOf(snapshot, "storage.pool.misses"),
            0u);

  ASSERT_TRUE(db_->UnregisterLiveObject(&stock).ok());
}

TEST_F(StatsTest, SnapshotJsonRoundTripsThroughParser) {
  ReactiveObject stock("Stock");
  ASSERT_TRUE(db_->RegisterLiveObject(&stock).ok());
  ASSERT_TRUE(Update(&stock, 42.0).ok());

  std::string json = db_->StatsSnapshot().ToJson();
  auto doc = JsonValue::Parse(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_NE(doc->Find("counters"), nullptr);
  EXPECT_NE(doc->Find("counters")->Find("events.occurrences"), nullptr);
  ASSERT_NE(doc->Find("histograms"), nullptr);
  EXPECT_NE(doc->Find("histograms")->Find("events.raise_notify_ns"), nullptr);

  ASSERT_TRUE(db_->UnregisterLiveObject(&stock).ok());
}

// Every layer of a replicating, spilling primary counts into the one
// registry, and only there: the spill stores and the replication mirror
// are both HistorySegmentStores, yet histlog.* counts only spill appends
// and repl.mirror.* only the mirror's.
TEST(OnePlaneTest, SpillMirrorAndCheckpointCountsShareOneRegistry) {
  TempDir dir("one_plane");
  Database::Options options;
  options.dir = dir.path();
  options.raise_shards = 2;
  options.history_spill = true;
  options.occurrence_log_capacity = 4;
  auto opened = Database::Open(options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(opened).value();
  repl::ReplicatorOptions ropts;
  ropts.mirror_dir = dir.path() + "/repllog";
  repl::Replicator replicator(db.get(), ropts);
  ASSERT_TRUE(replicator.Start().ok());
  ASSERT_TRUE(db->RegisterClass(ClassBuilder("Stock")
                                    .Reactive()
                                    .Method("SetPrice", {.end = true})
                                    .Build())
                  .ok());

  // Seeded raises, each object always raised from its own shard.
  std::mt19937_64 rng(18);
  ReactiveObject stocks[2] = {ReactiveObject("Stock"),
                              ReactiveObject("Stock")};
  for (ReactiveObject& stock : stocks) {
    ASSERT_TRUE(db->RegisterLiveObject(&stock).ok());
  }
  const uint64_t raises = 40 + rng() % 40;
  for (uint64_t i = 0; i < raises; ++i) {
    const size_t shard = rng() % 2;
    Database::BindRaiseShard(shard);
    ReactiveObject& stock = stocks[shard];
    ASSERT_TRUE(db->WithTransaction([&](Transaction* txn) {
                    stock.RaiseEvent("SetPrice", EventModifier::kEnd,
                                     {Value(static_cast<double>(rng() % 100))});
                    return db->Persist(txn, &stock);
                  })
                    .ok());
  }
  Database::BindRaiseShard(0);

  const uint64_t heap_syncs_before =
      db->StatsSnapshot().counters.at("storage.heap_syncs");
  ASSERT_TRUE(
      FailPoints::Instance().EnableFromSpec("store.checkpoint=ioerror").ok());
  EXPECT_FALSE(db->CheckpointNow().ok());
  FailPoints::Instance().Reset();
  ASSERT_TRUE(db->CheckpointNow().ok());

  const MetricsSnapshot snap = db->StatsSnapshot();
  EXPECT_EQ(snap.counters.at("events.occurrences"), raises);
  uint64_t spilled = 0;
  for (size_t shard = 0; shard < db->raise_shards(); ++shard) {
    spilled += db->history_store(shard)->TotalRecords();
  }
  EXPECT_GT(spilled, 0u);
  EXPECT_EQ(snap.counters.at("histlog.appends"), spilled);
  EXPECT_EQ(snap.counters.at("repl.mirror.appends"),
            replicator.mirror()->TotalRecords());
  EXPECT_EQ(snap.counters.at("repl.mirror.appends"), raises);
  EXPECT_EQ(snap.counters.at("storage.checkpoint_failures"), 1u);
  EXPECT_EQ(snap.counters.at("storage.checkpoints"), 1u);
  EXPECT_GT(snap.counters.at("storage.heap_syncs"), heap_syncs_before);

  // No name is registered as two kinds of metric.
  for (const auto& [name, value] : snap.counters) {
    EXPECT_EQ(snap.gauges.count(name), 0u) << name;
    EXPECT_EQ(snap.histograms.count(name), 0u) << name;
  }
  for (const auto& [name, value] : snap.gauges) {
    EXPECT_EQ(snap.histograms.count(name), 0u) << name;
  }

  for (ReactiveObject& stock : stocks) {
    ASSERT_TRUE(db->UnregisterLiveObject(&stock).ok());
  }
  ASSERT_TRUE(replicator.Stop().ok());
  ASSERT_TRUE(db->Close().ok());
}

}  // namespace
}  // namespace sentinel
