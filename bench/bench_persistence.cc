// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// E12 — Events and rules as persistent first-class objects (paper §3.3,
// §3.4): the cost of the first-class citizenship — creating, persisting,
// and restoring rule/event objects through the object store, plus plain
// object persist/materialize throughput and database reopen latency.

// Durability additions (DESIGN.md §12): the group-commit producer×window
// sweep (commit throughput must scale with producers once windows open),
// bounded-recovery replay after a fuzzy checkpoint, HistoryScan over the
// spilled occurrence segment store, the replication mirror's tail read,
// and the object store's bulk commit, snapshot apply and cold read paths.

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include <filesystem>
#include <random>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/database.h"
#include "events/operators.h"
#include "histlog/segment_store.h"
#include "oodb/object_store.h"

namespace sentinel {
namespace {

std::string FreshDir(const std::string& tag) {
  auto dir = std::filesystem::temp_directory_path() /
             ("sentinel_bench_persist_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

void BM_PersistObject(benchmark::State& state) {
  std::string dir = FreshDir("obj");
  auto db = std::move(Database::Open({.dir = dir})).value();
  db->RegisterClass(ClassBuilder("Doc").Reactive().Build()).ok();
  ReactiveObject doc("Doc");
  doc.SetAttrRaw("title", Value("benchmark document"));
  doc.SetAttrRaw("version", Value(int64_t{0}));
  db->RegisterLiveObject(&doc).ok();
  int64_t version = 0;
  for (auto _ : state) {
    doc.SetAttrRaw("version", Value(++version));
    db->WithTransaction([&](Transaction* txn) {
      return db->Persist(txn, &doc);
    }).ok();
  }
  db->UnregisterLiveObject(&doc).ok();
  db->Close().ok();
  db.reset();
  std::filesystem::remove_all(dir);
}

void BM_MaterializeObject(benchmark::State& state) {
  std::string dir = FreshDir("mat");
  auto db = std::move(Database::Open({.dir = dir})).value();
  db->RegisterClass(ClassBuilder("Doc").Reactive().Build()).ok();
  ReactiveObject doc("Doc");
  doc.SetAttrRaw("title", Value("benchmark document"));
  db->RegisterLiveObject(&doc).ok();
  db->WithTransaction([&](Transaction* txn) {
    return db->Persist(txn, &doc);
  }).ok();
  Oid oid = doc.oid();
  db->UnregisterLiveObject(&doc).ok();
  for (auto _ : state) {
    auto restored = db->Materialize(nullptr, oid);
    benchmark::DoNotOptimize(restored);
    db->UnregisterLiveObject(restored.value().get()).ok();
  }
  db->Close().ok();
  db.reset();
  std::filesystem::remove_all(dir);
}

/// Saving N rules (each with a 3-node event tree) in one transaction.
void BM_SaveRulesAndEvents(benchmark::State& state) {
  const int rules = static_cast<int>(state.range(0));
  std::string dir = FreshDir("save" + std::to_string(rules));
  auto db = std::move(Database::Open({.dir = dir})).value();
  db->RegisterClass(ClassBuilder("Stock")
                        .Reactive()
                        .Method("SetPrice", {.end = true})
                        .Method("SetVolume", {.end = true})
                        .Build()).ok();
  for (int i = 0; i < rules; ++i) {
    auto p1 = db->CreatePrimitiveEvent("end Stock::SetPrice").value();
    auto p2 = db->CreatePrimitiveEvent("end Stock::SetVolume").value();
    EventPtr tree = And(p1, p2);
    db->detector()->RegisterEvent("e" + std::to_string(i), tree).ok();
    RuleSpec spec;
    spec.name = std::string("r").append(std::to_string(i));
    spec.event = tree;
    db->CreateRule(spec).ok();
  }
  for (auto _ : state) {
    db->SaveRulesAndEvents().ok();
  }
  state.counters["rules"] = rules;
  db->Close().ok();
  db.reset();
  std::filesystem::remove_all(dir);
}

/// Reopen latency with N persisted rules + event graphs (restores the whole
/// rule base).
void BM_ReopenWithRules(benchmark::State& state) {
  const int rules = static_cast<int>(state.range(0));
  std::string dir = FreshDir("reopen" + std::to_string(rules));
  {
    auto db = std::move(Database::Open({.dir = dir})).value();
    db->RegisterClass(ClassBuilder("Stock")
                          .Reactive()
                          .Method("SetPrice", {.end = true})
                          .Build()).ok();
    for (int i = 0; i < rules; ++i) {
      auto p = db->CreatePrimitiveEvent("end Stock::SetPrice").value();
      db->detector()->RegisterEvent("e" + std::to_string(i), p).ok();
      RuleSpec spec;
      spec.name = std::string("r").append(std::to_string(i));
      spec.event = p;
      db->CreateRule(spec).ok();
    }
    db->SaveRulesAndEvents().ok();
    db->Close().ok();
  }
  for (auto _ : state) {
    auto db = Database::Open({.dir = dir});
    benchmark::DoNotOptimize(db);
    if (db.ok()) {
      if (db.value()->rules()->rule_count() != static_cast<size_t>(rules)) {
        state.SkipWithError("rule base not fully restored");
        break;
      }
      db.value()->Close().ok();
    }
  }
  state.counters["rules"] = rules;
  std::filesystem::remove_all(dir);
}

/// The headline storage sweep: `producers` threads each commit a run of
/// single-object transactions against a store opened with a group-commit
/// window of `window_us`. With window 0 every commit pays its own fsync
/// (throughput flat in producers); with a window open, concurrent commits
/// share physical syncs and throughput scales. `commits_per_sync` reports
/// the realized batching factor.
void BM_GroupCommitSweep(benchmark::State& state) {
  const int producers = static_cast<int>(state.range(0));
  const auto window_us = static_cast<uint32_t>(state.range(1));
  std::string dir = FreshDir("gc" + std::to_string(producers) + "w" +
                             std::to_string(window_us));
  MetricsRegistry metrics;
  const Histogram* wal_syncs = metrics.histogram("txn.wal_sync_ns");
  auto store = std::make_unique<ObjectStore>(metrics, 256, window_us);
  store->Open(dir).ok();
  std::vector<Oid> oids;
  oids.reserve(producers);
  for (int p = 0; p < producers; ++p) oids.push_back(store->NewOid());
  const std::string image(256, 'x');

  constexpr int kCommitsPerProducer = 8;
  const uint64_t syncs_before = wal_syncs->Count();
  uint64_t commits = 0;
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(producers);
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        for (int i = 0; i < kCommitsPerProducer; ++i) {
          auto txn = store->txns()->Begin();
          store->Put(txn.get(), oids[p], "Doc", image).ok();
          store->txns()->Commit(txn.get()).ok();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    commits += static_cast<uint64_t>(producers) * kCommitsPerProducer;
  }
  state.SetItemsProcessed(static_cast<int64_t>(commits));
  const uint64_t syncs = wal_syncs->Count() - syncs_before;
  state.counters["producers"] = producers;
  state.counters["window_us"] = window_us;
  state.counters["wal_syncs"] = static_cast<double>(syncs);
  state.counters["commits_per_sync"] =
      syncs == 0 ? 0.0
                 : static_cast<double>(commits) / static_cast<double>(syncs);
  store->Close().ok();
  store.reset();
  std::filesystem::remove_all(dir);
}

/// Reopen cost after a simulated crash, with and without a prior fuzzy
/// checkpoint. The checkpointed variant must replay only the post-
/// checkpoint suffix: the bench fails (SkipWithError) if recovery touched
/// more than a handful of records, pinning the bounded-recovery claim.
void BM_RecoveryReplay(benchmark::State& state) {
  const bool checkpointed = state.range(0) != 0;
  constexpr int kCommits = 64;
  int64_t recovery_records = 0;
  int64_t recovery_ms = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::string dir = FreshDir(checkpointed ? "rec_ckpt" : "rec_full");
    {
      auto db = std::move(Database::Open({.dir = dir})).value();
      db->RegisterClass(ClassBuilder("Doc").Reactive().Build()).ok();
      for (int i = 0; i < kCommits; ++i) {
        ReactiveObject doc("Doc");
        doc.SetAttrRaw("n", Value(int64_t{i}));
        db->RegisterLiveObject(&doc).ok();
        db->WithTransaction([&](Transaction* txn) {
          return db->Persist(txn, &doc);
        }).ok();
        db->UnregisterLiveObject(&doc).ok();
      }
      if (checkpointed) db->CheckpointNow().ok();
      // Crash-close: the heap flush is skipped and unsynced buffers drop,
      // so the reopen below has real replay work (all of it, or only the
      // post-checkpoint suffix).
      FailPoints::Instance().EnableFromSpec("store.checkpoint=crash").ok();
      db->Close().ok();
      FailPoints::Instance().Reset();
    }
    state.ResumeTiming();

    auto reopened = Database::Open({.dir = dir});

    state.PauseTiming();
    if (!reopened.ok()) {
      state.SkipWithError("reopen failed");
      state.ResumeTiming();
      break;
    }
    auto snap = reopened.value()->StatsSnapshot();
    recovery_records = snap.gauges.at("storage.recovery_records");
    recovery_ms = snap.gauges.at("storage.recovery_ms");
    if (checkpointed && recovery_records > 8) {
      state.SkipWithError("checkpoint did not bound recovery");
      state.ResumeTiming();
      break;
    }
    reopened.value()->Close().ok();
    reopened.value().reset();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
  }
  state.counters["checkpointed"] = checkpointed ? 1 : 0;
  state.counters["recovery_records"] = static_cast<double>(recovery_records);
  state.counters["recovery_ms"] = static_cast<double>(recovery_ms);
}

// --- The object store's own path (DESIGN.md §12) ----------------------------
// The store layer under perfbench's history_repl set-up: populating its
// state objects (BM_BulkCommit), the follower's snapshot catch-up
// (BM_SnapshotApply), and rule reads of objects mostly not in the pool
// (BM_ColdGet). Same shapes: 320 B images of class "State", 256 frames.

constexpr size_t kStoreObjects = 20000;
constexpr size_t kImageBytes = 320;
constexpr size_t kPoolFrames = 256;

/// 20 000 puts, 500 per commit, into a fresh store per iteration.
void BM_BulkCommit(benchmark::State& state) {
  const std::string image(kImageBytes, 's');
  for (auto _ : state) {
    state.PauseTiming();
    std::string dir = FreshDir("bulk");
    MetricsRegistry metrics;
    auto store = std::make_unique<ObjectStore>(metrics, kPoolFrames);
    store->Open(dir).ok();
    state.ResumeTiming();
    for (size_t start = 0; start < kStoreObjects; start += 500) {
      auto txn = store->txns()->Begin();
      for (size_t i = start; i < start + 500; ++i) {
        store->Put(txn.get(), kFirstUserOid + i, "State", image).ok();
      }
      if (!store->txns()->Commit(txn.get()).ok()) {
        state.SkipWithError("commit failed");
        break;
      }
    }
    state.PauseTiming();
    store->Close().ok();
    store.reset();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kStoreObjects));
}

/// One replication apply batch of 4 096 new images into a fresh store.
void BM_SnapshotApply(benchmark::State& state) {
  constexpr size_t kBatch = 4096;
  std::vector<ObjectStore::ReplOp> ops(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    ops[i].oid = kFirstUserOid + i;
    ops[i].class_name = "State";
    ops[i].state = std::string(kImageBytes, 's');
  }
  for (auto _ : state) {
    state.PauseTiming();
    std::string dir = FreshDir("apply");
    MetricsRegistry metrics;
    auto store = std::make_unique<ObjectStore>(metrics, kPoolFrames);
    store->Open(dir).ok();
    state.ResumeTiming();
    if (!store->SystemApplyBatch(ops).ok()) {
      state.SkipWithError("apply failed");
      break;
    }
    state.PauseTiming();
    store->Close().ok();
    store.reset();
    std::filesystem::remove_all(dir);
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBatch));
}

/// Uniform Gets over 20 000 objects: most miss the 256-frame pool.
void BM_ColdGet(benchmark::State& state) {
  std::string dir = FreshDir("cold");
  MetricsRegistry metrics;
  auto store = std::make_unique<ObjectStore>(metrics, kPoolFrames);
  store->Open(dir).ok();
  const std::string image(kImageBytes, 's');
  for (size_t start = 0; start < kStoreObjects; start += 500) {
    auto txn = store->txns()->Begin();
    for (size_t i = start; i < start + 500; ++i) {
      store->Put(txn.get(), kFirstUserOid + i, "State", image).ok();
    }
    store->txns()->Commit(txn.get()).ok();
  }
  std::mt19937_64 rng(42);
  std::string cls, got;
  for (auto _ : state) {
    const Oid oid = kFirstUserOid + rng() % kStoreObjects;
    if (!store->Get(nullptr, oid, &cls, &got).ok()) {
      state.SkipWithError("get failed");
      break;
    }
    benchmark::DoNotOptimize(got.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  store->Close().ok();
  store.reset();
  std::filesystem::remove_all(dir);
}

/// Scanning the spilled history: N occurrences forced through the
/// detector's FIFO trim into segment files, then a full-range HistoryScan.
void BM_HistoryScanSpilled(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::string dir = FreshDir("hist" + std::to_string(n));
  Database::Options opts;
  opts.dir = dir;
  opts.occurrence_log_capacity = 64;
  opts.history_spill = true;
  auto db = std::move(Database::Open(opts)).value();
  db->RegisterClass(ClassBuilder("Stock")
                        .Reactive()
                        .Method("SetPrice", {.end = true})
                        .Build()).ok();
  ReactiveObject stock("Stock");
  db->RegisterLiveObject(&stock).ok();
  for (int i = 0; i < n; ++i) {
    stock.RaiseEvent("SetPrice", EventModifier::kEnd,
                     {Value(static_cast<double>(i))});
  }
  for (auto _ : state) {
    std::vector<EventOccurrence> out;
    db->HistoryScan({}, &out).ok();
    benchmark::DoNotOptimize(out.data());
    if (out.size() != static_cast<size_t>(n) - 64) {
      state.SkipWithError("scan did not return the spilled history");
      break;
    }
  }
  state.counters["spilled"] = n - 64;
  db->UnregisterLiveObject(&stock).ok();
  db->Close().ok();
  db.reset();
  std::filesystem::remove_all(dir);
}

/// A follower poll on the replication mirror: a 64-row ScanFrom at the
/// tail of an active 1 MiB segment (the default mirror segment size) that
/// is range(0)% full, the cursor 64 rows behind the end as a follower that
/// keeps up leaves it. The cost should not grow with the fill.
void BM_MirrorScanFrom(benchmark::State& state) {
  constexpr size_t kSegmentBytes = 1 << 20;
  constexpr uint64_t kRows = 64;
  std::string dir = FreshDir("mirror" + std::to_string(state.range(0)));
  MetricsRegistry metrics;
  HistorySegmentStore store(dir, kSegmentBytes, metrics, "repl.mirror");
  store.Open().ok();
  EventOccurrence occ;
  occ.class_name = "Sensor";
  occ.method = "Report";
  occ.params = {Value(1.5), Value(int64_t{7})};
  const size_t framed = HistorySegmentStore::EncodeRecord(occ).size();
  const size_t records =
      kSegmentBytes * static_cast<size_t>(state.range(0)) / 100 / framed;
  for (uint64_t i = 1; i <= records; ++i) {
    occ.oid = i;
    occ.timestamp.seq = i;
    store.Append(occ).ok();
  }
  store.Flush().ok();
  std::vector<EventOccurrence> rows;
  for (auto _ : state) {
    rows.clear();
    uint64_t next = 0;
    store.ScanFrom(records - kRows, kRows, &rows, &next).ok();
    benchmark::DoNotOptimize(rows.data());
    if (rows.size() != kRows) {
      state.SkipWithError("ScanFrom did not return the tail");
      break;
    }
  }
  state.counters["segment_records"] = static_cast<double>(records);
  store.Close().ok();
  std::filesystem::remove_all(dir);
}

BENCHMARK(BM_PersistObject)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MaterializeObject)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SaveRulesAndEvents)
    ->Arg(10)
    ->Arg(100)
    ->Arg(500)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ReopenWithRules)
    ->Arg(10)
    ->Arg(100)
    ->Arg(500)
    ->Unit(benchmark::kMicrosecond);
// The storage sweep: producers × group-commit window (µs). Window 0 is the
// serialized per-commit-fsync baseline each row is read against.
BENCHMARK(BM_GroupCommitSweep)
    ->ArgsProduct({{1, 2, 4, 8}, {0, 500, 2000}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MeasureProcessCPUTime();
BENCHMARK(BM_RecoveryReplay)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BulkCommit)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SnapshotApply)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColdGet)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_HistoryScanSpilled)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MirrorScanFrom)
    ->Arg(10)
    ->Arg(50)
    ->Arg(90)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace sentinel

SENTINEL_BENCHMARK_MAIN();
