// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Database::HistoryScan end to end: occurrences FIFO-trimmed out of the
// detector's bounded in-memory log spill into the per-shard segment
// stores and stay queryable — the full history, not just the tail.

#include <gtest/gtest.h>

#include <set>

#include "../test_util.h"
#include "common/clock.h"
#include "core/database.h"

namespace sentinel {
namespace {

using testing_util::TempDir;

class HistoryScanTest : public ::testing::Test {
 protected:
  std::unique_ptr<Database> OpenDb(const std::string& dir,
                                   Database::Options extra = {}) {
    extra.dir = dir;
    auto opened = Database::Open(extra);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    return std::move(opened).value();
  }

  /// One page of a cursor-driven scan, as the gateway serves it: up to
  /// `limit` spilled rows after `query->after_seq`, `*complete` when no row
  /// was left over; advances the cursor past the last row returned.
  static Status ScanPage(Database* db, HistoryQuery* query, size_t limit,
                         std::vector<EventOccurrence>* rows, bool* complete) {
    HistoryQuery q = *query;
    q.limit = limit + 1;
    rows->clear();
    SENTINEL_RETURN_IF_ERROR(db->HistoryScan(q, rows));
    *complete = rows->size() <= limit;
    if (!*complete) rows->resize(limit);
    if (!rows->empty()) query->after_seq = rows->back().timestamp.seq;
    return Status::OK();
  }

  /// Raises SetPrice(base + i) for i in [0, count).
  static void RaisePrices(ReactiveObject* stock, int count, double base) {
    for (int i = 0; i < count; ++i) {
      stock->RaiseEvent("SetPrice", EventModifier::kEnd, {Value(base + i)});
    }
  }

  static std::vector<double> Prices(const std::vector<EventOccurrence>& rows) {
    std::vector<double> out;
    for (const EventOccurrence& occ : rows) {
      out.push_back(occ.params[0].AsDouble());
    }
    return out;
  }

  void RegisterStock(Database* db) {
    ASSERT_TRUE(db->RegisterClass(
        ClassBuilder("Stock")
            .Reactive()
            .Method("SetPrice", {.begin = false, .end = true})
            .Build()).ok());
  }
};

TEST_F(HistoryScanTest, ScanWithoutSpillIsFailedPrecondition) {
  TempDir dir("hist_db");
  auto db = OpenDb(dir.path());  // history_spill defaults off.
  std::vector<EventOccurrence> out;
  EXPECT_TRUE(db->HistoryScan({}, &out).IsFailedPrecondition());
  ASSERT_TRUE(db->Close().ok());
}

TEST_F(HistoryScanTest, TrimmedOccurrencesSpillAndStayQueryable) {
  TempDir dir("hist_db");
  Database::Options opts;
  opts.occurrence_log_capacity = 8;  // Tiny: raises past 8 must trim.
  opts.history_spill = true;
  auto db = OpenDb(dir.path(), opts);
  RegisterStock(db.get());

  ReactiveObject stock("Stock");
  ASSERT_TRUE(db->RegisterLiveObject(&stock).ok());
  constexpr int kRaises = 50;
  for (int i = 0; i < kRaises; ++i) {
    stock.RaiseEvent("SetPrice", EventModifier::kEnd,
                     {Value(static_cast<double>(i))});
  }
  EXPECT_EQ(db->metrics()->counter("events.occurrences")->Value(),
            static_cast<uint64_t>(kRaises));
  EXPECT_EQ(db->metrics()->counter("events.log_trimmed")->Value(),
            static_cast<uint64_t>(kRaises) - 8);

  // Spilled history alone = everything the memory log no longer holds.
  std::vector<EventOccurrence> spilled;
  ASSERT_TRUE(db->HistoryScan({}, &spilled).ok());
  ASSERT_EQ(spilled.size(), static_cast<size_t>(kRaises) - 8);
  for (size_t i = 0; i < spilled.size(); ++i) {
    EXPECT_EQ(spilled[i].class_name, "Stock");
    EXPECT_EQ(spilled[i].params[0].AsDouble(), static_cast<double>(i));
    if (i > 0) {
      EXPECT_GT(spilled[i].timestamp.seq, spilled[i - 1].timestamp.seq);
    }
  }

  // Merging the in-memory tail back in reconstructs the complete log.
  std::vector<EventOccurrence> all;
  ASSERT_TRUE(db->HistoryScan({}, &all, /*include_memory=*/true).ok());
  ASSERT_EQ(all.size(), static_cast<size_t>(kRaises));
  for (int i = 0; i < kRaises; ++i) {
    EXPECT_EQ(all[i].params[0].AsDouble(), static_cast<double>(i));
  }
  ASSERT_TRUE(db->UnregisterLiveObject(&stock).ok());
  ASSERT_TRUE(db->Close().ok());
}

TEST_F(HistoryScanTest, OidFilterAndLimitApply) {
  TempDir dir("hist_db");
  Database::Options opts;
  opts.occurrence_log_capacity = 4;
  opts.history_spill = true;
  auto db = OpenDb(dir.path(), opts);
  RegisterStock(db.get());

  ReactiveObject a("Stock");
  ReactiveObject b("Stock");
  ASSERT_TRUE(db->RegisterLiveObject(&a).ok());
  ASSERT_TRUE(db->RegisterLiveObject(&b).ok());
  for (int i = 0; i < 20; ++i) {
    ReactiveObject& obj = (i % 2 == 0) ? a : b;
    obj.RaiseEvent("SetPrice", EventModifier::kEnd,
                   {Value(static_cast<double>(i))});
  }

  HistoryQuery by_oid;
  by_oid.oid = a.oid();
  std::vector<EventOccurrence> got;
  ASSERT_TRUE(db->HistoryScan(by_oid, &got, /*include_memory=*/true).ok());
  ASSERT_EQ(got.size(), 10u);
  for (const EventOccurrence& occ : got) EXPECT_EQ(occ.oid, a.oid());

  HistoryQuery limited;
  limited.limit = 5;
  got.clear();
  ASSERT_TRUE(db->HistoryScan(limited, &got, /*include_memory=*/true).ok());
  EXPECT_EQ(got.size(), 5u);
  // The limit keeps the OLDEST matches — a replay consumer pages forward
  // by passing the last row's seq as after_seq.
  EXPECT_EQ(got[0].params[0].AsDouble(), 0.0);

  ASSERT_TRUE(db->UnregisterLiveObject(&a).ok());
  ASSERT_TRUE(db->UnregisterLiveObject(&b).ok());
  ASSERT_TRUE(db->Close().ok());
}

TEST_F(HistoryScanTest, SpilledHistorySurvivesReopen) {
  TempDir dir("hist_db");
  Database::Options opts;
  opts.occurrence_log_capacity = 4;
  opts.history_spill = true;
  {
    auto db = OpenDb(dir.path(), opts);
    RegisterStock(db.get());
    ReactiveObject stock("Stock");
    ASSERT_TRUE(db->RegisterLiveObject(&stock).ok());
    for (int i = 0; i < 30; ++i) {
      stock.RaiseEvent("SetPrice", EventModifier::kEnd,
                       {Value(static_cast<double>(i))});
    }
    ASSERT_TRUE(db->UnregisterLiveObject(&stock).ok());
    ASSERT_TRUE(db->Close().ok());
  }
  auto db = OpenDb(dir.path(), opts);
  std::vector<EventOccurrence> got;
  ASSERT_TRUE(db->HistoryScan({}, &got).ok());
  // 26 spilled before close; the reopened store still serves them.
  EXPECT_EQ(got.size(), 26u);
  EXPECT_EQ(got.front().params[0].AsDouble(), 0.0);
  EXPECT_EQ(got.back().params[0].AsDouble(), 25.0);
  ASSERT_TRUE(db->Close().ok());
}

TEST_F(HistoryScanTest, ShardedSpillMergesIntoLogicalOrder) {
  TempDir dir("hist_db");
  Database::Options opts;
  opts.occurrence_log_capacity = 2;
  opts.history_spill = true;
  opts.raise_shards = 2;
  auto db = OpenDb(dir.path(), opts);
  RegisterStock(db.get());

  // Single-threaded raises routed to shard 0 (the unbound default); the
  // second shard's store simply stays empty. This exercises the
  // multi-store merge path without concurrent raising.
  ReactiveObject stock("Stock");
  ASSERT_TRUE(db->RegisterLiveObject(&stock).ok());
  for (int i = 0; i < 12; ++i) {
    stock.RaiseEvent("SetPrice", EventModifier::kEnd,
                     {Value(static_cast<double>(i))});
  }
  ASSERT_NE(db->history_store(0), nullptr);
  ASSERT_NE(db->history_store(1), nullptr);
  std::vector<EventOccurrence> got;
  ASSERT_TRUE(db->HistoryScan({}, &got).ok());
  EXPECT_EQ(got.size(), 10u);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_GT(got[i].timestamp.seq, got[i - 1].timestamp.seq);
  }
  ASSERT_TRUE(db->UnregisterLiveObject(&stock).ok());
  ASSERT_TRUE(db->Close().ok());
}

TEST_F(HistoryScanTest, PagedScanResumesWithoutDuplicatesOrGaps) {
  TempDir dir("hist_db");
  Database::Options opts;
  opts.occurrence_log_capacity = 2;
  opts.history_spill = true;
  opts.history_segment_bytes = 512;  // Force several sealed segments.
  opts.raise_shards = 2;
  auto db = OpenDb(dir.path(), opts);
  RegisterStock(db.get());

  ReactiveObject stock("Stock");
  ASSERT_TRUE(db->RegisterLiveObject(&stock).ok());
  constexpr int kRaises = 60;
  for (int i = 0; i < kRaises; ++i) {
    stock.RaiseEvent("SetPrice", EventModifier::kEnd,
                     {Value(static_cast<double>(i))});
  }

  std::vector<EventOccurrence> full;
  ASSERT_TRUE(db->HistoryScan({}, &full).ok());
  ASSERT_EQ(full.size(), static_cast<size_t>(kRaises) - 2);

  // Page through with a limit far below the total; the cursor must hand
  // back exactly the full scan, in order, with no duplicate or skipped seq.
  std::vector<EventOccurrence> paged;
  HistoryQuery page;
  bool complete = false;
  int pages = 0;
  while (!complete) {
    ASSERT_LT(pages++, 32) << "cursor failed to advance";
    std::vector<EventOccurrence> rows;
    ASSERT_TRUE(ScanPage(db.get(), &page, 7, &rows, &complete).ok());
    if (!complete) {
      EXPECT_EQ(rows.size(), 7u);
    }
    paged.insert(paged.end(), rows.begin(), rows.end());
  }
  ASSERT_EQ(paged.size(), full.size());
  for (size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(paged[i].timestamp.seq, full[i].timestamp.seq) << "row " << i;
    EXPECT_EQ(paged[i].params[0], full[i].params[0]) << "row " << i;
  }

  // Regression: before the cursor existed, a clamped page followed by a
  // re-scan of the same query re-delivered the first rows. With the cursor
  // the second page starts strictly after the first.
  HistoryQuery cursor;
  std::vector<EventOccurrence> first, second;
  ASSERT_TRUE(ScanPage(db.get(), &cursor, 10, &first, &complete).ok());
  ASSERT_FALSE(complete);
  ASSERT_TRUE(ScanPage(db.get(), &cursor, 10, &second, &complete).ok());
  ASSERT_FALSE(second.empty());
  EXPECT_GT(second.front().timestamp.seq, first.back().timestamp.seq);

  ASSERT_TRUE(db->UnregisterLiveObject(&stock).ok());
  ASSERT_TRUE(db->Close().ok());
}

TEST_F(HistoryScanTest, RestartContinuesSeqsAboveTheSpilledHistory) {
  TempDir dir("hist_db");
  Database::Options opts;
  opts.occurrence_log_capacity = 2;
  opts.history_spill = true;
  uint64_t old_max_seq = 0;
  {
    auto db = OpenDb(dir.path(), opts);
    RegisterStock(db.get());
    ReactiveObject stock("Stock");
    ASSERT_TRUE(db->RegisterLiveObject(&stock).ok());
    RaisePrices(&stock, 10, 0);  // 0..7 spill; 8 and 9 die with the process.
    std::vector<EventOccurrence> spilled;
    ASSERT_TRUE(db->HistoryScan({}, &spilled).ok());
    ASSERT_EQ(spilled.size(), 8u);
    old_max_seq = spilled.back().timestamp.seq;
    ASSERT_TRUE(db->UnregisterLiveObject(&stock).ok());
    ASSERT_TRUE(db->Close().ok());
  }
  // A new process starts its logical clock over.
  Clock::ResetSequenceForTest(1);
  auto db = OpenDb(dir.path(), opts);
  ReactiveObject stock("Stock");
  ASSERT_TRUE(db->RegisterLiveObject(&stock).ok());
  RaisePrices(&stock, 10, 100);

  std::vector<EventOccurrence> all;
  ASSERT_TRUE(db->HistoryScan({}, &all, /*include_memory=*/true).ok());
  std::vector<double> expected;
  for (int i = 0; i < 8; ++i) expected.push_back(i);
  for (int i = 0; i < 10; ++i) expected.push_back(100 + i);
  EXPECT_EQ(Prices(all), expected);  // Raise order, not interleaved.
  for (size_t i = 8; i < all.size(); ++i) {
    EXPECT_GT(all[i].timestamp.seq, old_max_seq) << "row " << i;
  }

  // Paging one row at a time returns every spilled row once, in order.
  std::vector<EventOccurrence> spilled;
  ASSERT_TRUE(db->HistoryScan({}, &spilled).ok());
  ASSERT_EQ(spilled.size(), 16u);
  std::vector<EventOccurrence> paged;
  HistoryQuery cursor;
  bool complete = false;
  for (int pages = 0; !complete; ++pages) {
    ASSERT_LT(pages, 20) << "cursor failed to advance";
    std::vector<EventOccurrence> rows;
    ASSERT_TRUE(ScanPage(db.get(), &cursor, 1, &rows, &complete).ok());
    paged.insert(paged.end(), rows.begin(), rows.end());
  }
  EXPECT_EQ(Prices(paged), Prices(spilled));
  ASSERT_TRUE(db->UnregisterLiveObject(&stock).ok());
  ASSERT_TRUE(db->Close().ok());
}

TEST_F(HistoryScanTest, ShardCountChangeKeepsEveryRowOnce) {
  TempDir dir("hist_db");
  Database::Options opts;
  opts.occurrence_log_capacity = 2;
  opts.history_spill = true;
  // Opens the database with `shards` raise shards as a new process would
  // (the logical clock starts over), checks the spilled history it finds,
  // raises 5 prices from `base` on shard 0 (the oldest 3 spill) and closes.
  auto reopen = [&](size_t shards, const std::vector<double>& expected,
                    double base) {
    Clock::ResetSequenceForTest(1);
    opts.raise_shards = shards;
    auto db = OpenDb(dir.path(), opts);
    std::vector<EventOccurrence> rows;
    ASSERT_TRUE(db->HistoryScan({}, &rows).ok());
    EXPECT_EQ(Prices(rows), expected) << shards << " shards";
    std::set<uint64_t> seqs;
    for (const EventOccurrence& occ : rows) seqs.insert(occ.timestamp.seq);
    EXPECT_EQ(seqs.size(), rows.size()) << "a seq is held by two rows";
    ReactiveObject stock("Stock");
    ASSERT_TRUE(db->RegisterLiveObject(&stock).ok());
    RaisePrices(&stock, 5, base);
    ASSERT_TRUE(db->UnregisterLiveObject(&stock).ok());
    ASSERT_TRUE(db->Close().ok());
  };

  {  // Two shards: shard 0 spills 0..2, then shard 1 spills 10..12.
    opts.raise_shards = 2;
    auto db = OpenDb(dir.path(), opts);
    RegisterStock(db.get());
    ReactiveObject stock("Stock");
    ASSERT_TRUE(db->RegisterLiveObject(&stock).ok());
    RaisePrices(&stock, 5, 0);
    Database::BindRaiseShard(1);
    RaisePrices(&stock, 5, 10);
    Database::BindRaiseShard(0);
    ASSERT_TRUE(db->UnregisterLiveObject(&stock).ok());
    ASSERT_TRUE(db->Close().ok());
  }
  reopen(1, {0, 1, 2, 10, 11, 12}, 100);
  reopen(2, {0, 1, 2, 10, 11, 12, 100, 101, 102}, 200);
}

TEST_F(HistoryScanTest, ShardedLimitKeepsTheOldestRows) {
  TempDir dir("hist_db");
  Database::Options opts;
  opts.occurrence_log_capacity = 2;
  opts.history_spill = true;
  opts.raise_shards = 2;
  auto db = OpenDb(dir.path(), opts);
  RegisterStock(db.get());

  // The older rows spill into shard 1's store, the newer into shard 0's,
  // so the store scanned first holds none of the oldest five.
  ReactiveObject older("Stock");
  ReactiveObject newer("Stock");
  ASSERT_TRUE(db->RegisterLiveObject(&older).ok());
  ASSERT_TRUE(db->RegisterLiveObject(&newer).ok());
  Database::BindRaiseShard(1);
  RaisePrices(&older, 10, 0);
  Database::BindRaiseShard(0);
  RaisePrices(&newer, 10, 100);

  HistoryQuery limited;
  limited.limit = 5;
  for (bool include_memory : {false, true}) {
    std::vector<EventOccurrence> got;
    ASSERT_TRUE(db->HistoryScan(limited, &got, include_memory).ok());
    EXPECT_EQ(Prices(got), (std::vector<double>{0, 1, 2, 3, 4}))
        << "include_memory=" << include_memory;
  }
  ASSERT_TRUE(db->UnregisterLiveObject(&older).ok());
  ASSERT_TRUE(db->UnregisterLiveObject(&newer).ok());
  ASSERT_TRUE(db->Close().ok());
}

}  // namespace
}  // namespace sentinel
