// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// RecordLog, the framed-record file under the WAL and the history
// segments: why a reader stops, and readers that run outside the writer's
// lock while it appends, syncs, truncates (WAL) and rotates (segments).

#include "common/record_log.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <random>
#include <thread>
#include <vector>

#include "../test_util.h"
#include "histlog/segment_store.h"
#include "txn/wal.h"

namespace sentinel {
namespace {

using testing_util::TempDir;

/// Reads every record of `path`; returns why the reader stopped.
RecordLog::Stop ReadAll(const std::string& path, size_t* records) {
  auto snap = RecordLog::OpenSnapshot(path);
  EXPECT_TRUE(snap.ok());
  RecordLog::Reader reader(*snap, 0);
  std::string_view body;
  *records = 0;
  while (reader.Next(&body)) ++*records;
  return reader.stop();
}

TEST(RecordLogTest, WalAndSegmentReadersSayWhyTheyStopped) {
  TempDir dir("recordlog");
  const std::string path = dir.path() + "/log";
  std::string image;
  {
    RecordLog log("test.append");
    std::string header;
    ASSERT_TRUE(log.Open(path, {}, &header).ok());
    ASSERT_TRUE(log.Recover(0, false, nullptr).ok());
    for (const char* body : {"one", "two", "three"}) {
      ASSERT_TRUE(log.Append(body).ok());
      image += RecordLog::Frame(body);
    }
    ASSERT_TRUE(log.Close(false).ok());
  }
  auto write = [&](const std::string& bytes) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  };
  size_t records = 0;
  EXPECT_EQ(ReadAll(path, &records), RecordLog::Stop::kEnd);
  EXPECT_EQ(records, 3u);

  write(image.substr(0, image.size() - 2));
  EXPECT_EQ(ReadAll(path, &records), RecordLog::Stop::kTorn);
  EXPECT_EQ(records, 2u);

  std::string flipped = image;
  flipped[8 + 1] ^= 0x20;  // A body byte of the first record.
  write(flipped);
  EXPECT_EQ(ReadAll(path, &records), RecordLog::Stop::kCrcMismatch);
  EXPECT_EQ(records, 0u);

  write(image + std::string(4, '\xFF') + "footer body");
  EXPECT_EQ(ReadAll(path, &records), RecordLog::Stop::kFooter);
  EXPECT_EQ(records, 3u);

  // Recovery cuts the torn tail so an append lands after the last whole
  // record.
  write(image + std::string("\x40\0\0\0torn", 8));
  RecordLog log("test.append");
  std::string header;
  ASSERT_TRUE(log.Open(path, {}, &header).ok());
  ASSERT_TRUE(log.Recover(0, false, nullptr).ok());
  EXPECT_EQ(log.end(), image.size());
  ASSERT_TRUE(log.Append("four").ok());
  ASSERT_TRUE(log.Flush().ok());
  EXPECT_EQ(ReadAll(path, &records), RecordLog::Stop::kEnd);
  EXPECT_EQ(records, 4u);
}

// One thread appends, syncs and truncates the WAL (only below what both
// readers have passed, as a checkpoint behind a follower would); two
// readers tail it with ReadFrom, outside the lock appends take. Each reader
// sees every record once, in order, and OutOfRange only below the base.
TEST(RecordLogTest, WalReadersOutsideTheLockSeeEveryRecordOnce) {
  TempDir dir("recordlog-wal");
  MetricsRegistry metrics;
  WalManager wal(metrics);
  ASSERT_TRUE(wal.Open(dir.path() + "/wal.log").ok());
  constexpr uint64_t kRecords = 3000;
  const uint64_t start = *wal.CurrentLsn();
  std::atomic<uint64_t> reader_lsn[2] = {start, start};
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    std::mt19937 rng(7);
    for (uint64_t i = 0; i < kRecords; ++i) {
      std::string payload(rng() % 300, static_cast<char>('a' + i % 26));
      if (!wal.Append(WalRecordType::kPut, i, i, payload).ok()) failed = true;
      if (rng() % 16 == 0 && !wal.Sync().ok()) failed = true;
      if (rng() % 128 == 0) {
        const uint64_t behind = std::min(reader_lsn[0].load(),
                                         reader_lsn[1].load());
        if (!wal.TruncateTo(behind).ok()) failed = true;
      }
    }
    if (!wal.Sync().ok()) failed = true;
  });
  auto tail = [&](int r) {
    uint64_t lsn = start, seen = 0;
    std::vector<WalRecord> batch;
    while (seen < kRecords && !failed) {
      uint64_t next = 0;
      Status s = wal.ReadFrom(lsn, 1 + seen % 37, &batch, &next);
      if (s.IsOutOfRange()) {
        EXPECT_LT(lsn, *wal.BaseLsn()) << s.ToString();
        failed = true;
        return;
      }
      ASSERT_TRUE(s.ok()) << s.ToString();
      for (const WalRecord& rec : batch) {
        ASSERT_EQ(rec.txn, seen) << "reader " << r;
        ASSERT_EQ(rec.oid, seen);
        ++seen;
      }
      if (batch.empty()) std::this_thread::yield();
      lsn = next;
      reader_lsn[r] = lsn;
    }
    EXPECT_EQ(seen, kRecords);
  };
  std::thread r0(tail, 0), r1(tail, 1);
  writer.join();
  r0.join();
  r1.join();
  EXPECT_FALSE(failed);
}

// The same for the history segments: tiny segments rotate every few
// records while two readers tail the store with ScanFrom.
TEST(RecordLogTest, SegmentStoreReadersSeeEveryRecordOnceAcrossRotations) {
  TempDir dir("recordlog-hist");
  MetricsRegistry metrics;
  HistorySegmentStore store(dir.path(), 1024, metrics);
  ASSERT_TRUE(store.Open().ok());
  constexpr uint64_t kRecords = 3000;
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    std::mt19937 rng(11);
    for (uint64_t i = 1; i <= kRecords; ++i) {
      EventOccurrence occ = testing_util::MakeOccurrence(i, "S", "M");
      occ.timestamp.seq = i;
      for (size_t p = rng() % 4; p > 0; --p) {
        occ.params.emplace_back(static_cast<int64_t>(rng()));
      }
      if (!store.Append(occ).ok()) failed = true;
    }
  });
  auto tail = [&](int r) {
    uint64_t ordinal = 0;
    std::vector<EventOccurrence> batch;
    while (ordinal < kRecords && !failed) {
      batch.clear();
      uint64_t next = 0;
      Status s = store.ScanFrom(ordinal, 1 + ordinal % 97, &batch, &next);
      ASSERT_TRUE(s.ok()) << s.ToString();
      for (const EventOccurrence& occ : batch) {
        ASSERT_EQ(occ.timestamp.seq, ++ordinal) << "reader " << r;
      }
      if (batch.empty()) {
        std::this_thread::yield();
      } else {
        ASSERT_EQ(next, ordinal);
      }
    }
    EXPECT_EQ(ordinal, kRecords);
  };
  std::thread r0(tail, 0), r1(tail, 1);
  writer.join();
  r0.join();
  r1.join();
  EXPECT_FALSE(failed);
  EXPECT_EQ(store.TotalRecords(), kRecords);
  EXPECT_GT(store.segment_count(), 100u);
  ASSERT_TRUE(store.Close().ok());
}

}  // namespace
}  // namespace sentinel
