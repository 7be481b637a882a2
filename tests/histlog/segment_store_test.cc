// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// HistorySegmentStore: append/scan round trips, rotation + footers,
// footer-based scan pruning, torn-tail recovery, reopen-resume, and what
// each record walker does with a damaged segment.

#include "histlog/segment_store.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>

#include "../test_util.h"
#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/metrics.h"

namespace sentinel {
namespace {

using testing_util::MakeOccurrence;
using testing_util::TempDir;

TEST(SegmentStoreTest, AppendScanRoundTrip) {
  TempDir dir("hist");
  MetricsRegistry metrics;
  HistorySegmentStore store(dir.path(), 1 << 20, metrics);
  ASSERT_TRUE(store.Open().ok());

  std::vector<EventOccurrence> written;
  for (int i = 0; i < 20; ++i) {
    EventOccurrence occ = MakeOccurrence(
        100 + i, "Stock", "SetPrice", EventModifier::kEnd,
        {Value(static_cast<double>(i))});
    ASSERT_TRUE(store.Append(occ).ok());
    written.push_back(occ);
  }
  EXPECT_EQ(metrics.counter("histlog.appends")->Value(), 20u);

  std::vector<EventOccurrence> got;
  ASSERT_TRUE(store.Scan({}, &got).ok());
  ASSERT_EQ(got.size(), written.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].oid, written[i].oid);
    EXPECT_EQ(got[i].class_name, "Stock");
    EXPECT_EQ(got[i].method, "SetPrice");
    EXPECT_EQ(got[i].modifier, EventModifier::kEnd);
    ASSERT_EQ(got[i].params.size(), 1u);
    EXPECT_EQ(got[i].params[0].AsDouble(), static_cast<double>(i));
    EXPECT_EQ(got[i].timestamp.seq, written[i].timestamp.seq);
    EXPECT_EQ(got[i].timestamp.micros, written[i].timestamp.micros);
  }
  ASSERT_TRUE(store.Close().ok());
}

TEST(SegmentStoreTest, QueryFiltersSeqOidAndLimit) {
  TempDir dir("hist");
  MetricsRegistry metrics;
  HistorySegmentStore store(dir.path(), 1 << 20, metrics);
  ASSERT_TRUE(store.Open().ok());

  std::vector<EventOccurrence> written;
  for (int i = 0; i < 10; ++i) {
    // Alternate between two generating objects.
    EventOccurrence occ = MakeOccurrence(i % 2 == 0 ? 7 : 8, "S", "M");
    ASSERT_TRUE(store.Append(occ).ok());
    written.push_back(occ);
  }

  // Seq range: drop the first three and the last three.
  HistoryQuery range;
  range.min_seq = written[3].timestamp.seq;
  range.max_seq = written[6].timestamp.seq;
  std::vector<EventOccurrence> got;
  ASSERT_TRUE(store.Scan(range, &got).ok());
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got.front().timestamp.seq, written[3].timestamp.seq);
  EXPECT_EQ(got.back().timestamp.seq, written[6].timestamp.seq);

  // Oid filter.
  HistoryQuery by_oid;
  by_oid.oid = 7;
  got.clear();
  ASSERT_TRUE(store.Scan(by_oid, &got).ok());
  ASSERT_EQ(got.size(), 5u);
  for (const EventOccurrence& occ : got) EXPECT_EQ(occ.oid, 7u);

  // Limit stops the scan early, keeping the oldest matches.
  HistoryQuery limited;
  limited.limit = 3;
  got.clear();
  ASSERT_TRUE(store.Scan(limited, &got).ok());
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].timestamp.seq, written[0].timestamp.seq);
  ASSERT_TRUE(store.Close().ok());
}

TEST(SegmentStoreTest, RotationSealsSegments) {
  TempDir dir("hist");
  MetricsRegistry metrics;
  // Tiny rotation threshold: nearly every record lands in its own segment.
  HistorySegmentStore store(dir.path(), 64, metrics);
  ASSERT_TRUE(store.Open().ok());
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(store.Append(MakeOccurrence(i, "Stock", "SetPrice")).ok());
  }
  EXPECT_GT(metrics.counter("histlog.rotations")->Value(), 4u);
  EXPECT_GT(store.segment_count(), 4u);

  // Every record survives rotation, in append order.
  std::vector<EventOccurrence> got;
  ASSERT_TRUE(store.Scan({}, &got).ok());
  ASSERT_EQ(got.size(), 12u);
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_GT(got[i].timestamp.seq, got[i - 1].timestamp.seq);
  }
  ASSERT_TRUE(store.Close().ok());
}

TEST(SegmentStoreTest, FooterPrunesSealedSegments) {
  TempDir dir("hist");
  MetricsRegistry metrics;
  HistorySegmentStore store(dir.path(), 64, metrics);
  const Counter* sealed = metrics.counter("histlog.rotations");
  ASSERT_TRUE(store.Open().ok());
  std::vector<EventOccurrence> written;
  for (int i = 0; i < 12; ++i) {
    EventOccurrence occ = MakeOccurrence(100 + i, "Stock", "SetPrice");
    ASSERT_TRUE(store.Append(occ).ok());
    written.push_back(occ);
  }
  ASSERT_GT(sealed->Value(), 4u);

  // A narrow seq window only touches the segments whose footer range
  // intersects it; the rest are skipped without reading a record.
  HistoryQuery narrow;
  narrow.min_seq = written[9].timestamp.seq;
  std::vector<EventOccurrence> got;
  ASSERT_TRUE(store.Scan(narrow, &got).ok());
  EXPECT_EQ(got.size(), 3u);
  uint64_t skipped =
      metrics.Snapshot().counters.at("histlog.scan_segments_skipped");
  EXPECT_GT(skipped, 0u);

  // An oid no record carries: the bloom filter rejects every sealed
  // segment.
  HistoryQuery absent;
  absent.oid = 999999;
  got.clear();
  ASSERT_TRUE(store.Scan(absent, &got).ok());
  EXPECT_TRUE(got.empty());
  uint64_t skipped2 =
      metrics.Snapshot().counters.at("histlog.scan_segments_skipped");
  EXPECT_GE(skipped2, skipped + sealed->Value());
  ASSERT_TRUE(store.Close().ok());
}

TEST(SegmentStoreTest, ReopenResumesActiveSegmentAndIds) {
  TempDir dir("hist");
  MetricsRegistry metrics;
  uint64_t first_seq = 0;
  {
    HistorySegmentStore store(dir.path(), 1 << 20, metrics);
    ASSERT_TRUE(store.Open().ok());
    EventOccurrence occ = MakeOccurrence(1, "S", "A");
    first_seq = occ.timestamp.seq;
    ASSERT_TRUE(store.Append(occ).ok());
    ASSERT_TRUE(store.Close().ok());
  }
  {
    // The unsealed tail is recovered and appending resumes into it.
    HistorySegmentStore store(dir.path(), 1 << 20, metrics);
    ASSERT_TRUE(store.Open().ok());
    EXPECT_EQ(store.segment_count(), 1u);
    ASSERT_TRUE(store.Append(MakeOccurrence(2, "S", "B")).ok());
    std::vector<EventOccurrence> got;
    ASSERT_TRUE(store.Scan({}, &got).ok());
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0].timestamp.seq, first_seq);
    EXPECT_EQ(got[0].method, "A");
    EXPECT_EQ(got[1].method, "B");
    ASSERT_TRUE(store.Close().ok());
  }
}

TEST(SegmentStoreTest, TornTailIsTruncatedOnReopen) {
  TempDir dir("hist");
  MetricsRegistry metrics;
  {
    HistorySegmentStore store(dir.path(), 1 << 20, metrics);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.Append(MakeOccurrence(1, "S", "Whole")).ok());
    ASSERT_TRUE(store.Close().ok());
  }
  // Simulate a crash mid-append: a length prefix with only part of a body.
  std::string seg0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path())) {
    seg0 = entry.path().string();
  }
  ASSERT_FALSE(seg0.empty());
  {
    std::ofstream out(seg0, std::ios::binary | std::ios::app);
    uint32_t bogus_len = 500;
    out.write(reinterpret_cast<const char*>(&bogus_len), 4);
    out.write("torn", 4);
  }
  {
    HistorySegmentStore store(dir.path(), 1 << 20, metrics);
    ASSERT_TRUE(store.Open().ok());
    std::vector<EventOccurrence> got;
    ASSERT_TRUE(store.Scan({}, &got).ok());
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].method, "Whole");
    // The torn bytes were cut away; new appends extend a clean tail.
    ASSERT_TRUE(store.Append(MakeOccurrence(2, "S", "After")).ok());
    got.clear();
    ASSERT_TRUE(store.Scan({}, &got).ok());
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[1].method, "After");
    ASSERT_TRUE(store.Close().ok());
  }
}

TEST(SegmentStoreTest, CrcCatchesRecordCorruption) {
  EventOccurrence occ = MakeOccurrence(5, "S", "M");
  std::string framed = HistorySegmentStore::EncodeRecord(occ);
  // Corrupt one body byte; the body starts after [len][crc].
  std::string body = framed.substr(8);
  body[2] ^= 0x40;
  EventOccurrence decoded;
  EXPECT_TRUE(
      HistorySegmentStore::DecodeRecordBody(body, &decoded).ok());
  // DecodeRecordBody itself doesn't checksum — the store's scan does; feed
  // a malformed (truncated) body and decoding must refuse.
  EXPECT_TRUE(HistorySegmentStore::DecodeRecordBody(body.substr(0, 4),
                                                    &decoded)
                  .IsCorruption());
}

TEST(SegmentStoreTest, AppendFailpointSurfacesIOError) {
  TempDir dir("hist");
  MetricsRegistry metrics;
  HistorySegmentStore store(dir.path(), 1 << 20, metrics);
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.Append(MakeOccurrence(1, "S", "A")).ok());

  FailPoints::Instance().Reset();
  ASSERT_TRUE(
      FailPoints::Instance().EnableFromSpec("histlog.append=ioerror@hit(1)")
          .ok());
  EXPECT_TRUE(store.Append(MakeOccurrence(2, "S", "B")).IsIOError());
  FailPoints::Instance().Reset();

  // Unlike the WAL, history appends are not sticky — the store is a cache.
  ASSERT_TRUE(store.Append(MakeOccurrence(3, "S", "C")).ok());
  std::vector<EventOccurrence> got;
  ASSERT_TRUE(store.Scan({}, &got).ok());
  ASSERT_EQ(got.size(), 2u);
  ASSERT_TRUE(store.Close().ok());
}

// --- Damaged segments, read by every record walker ---------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string OnlySegment(const std::string& dir) {
  std::string path;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    path = entry.path().string();
  }
  return path;
}

enum class Damage { kTruncate, kFlipBit, kTornTail, kUndecodable };

// Seeded damage to an active segment, read back by recovery (Open), Scan
// and ScanFrom. The outcomes pinned here:
//   * a torn tail or a CRC mismatch ends the records: recovery truncates
//     the file to the last record that checks, Scan and ScanFrom stop
//     cleanly there;
//   * a CRC-valid record that does not decode was written whole, so it is
//     Corruption for every reader: recovery refuses to open and leaves the
//     file byte-identical, Scan fails, and ScanFrom fails for any cursor
//     before it (a cursor already past it still counts it as an ordinal).
TEST(SegmentStoreReaderTest, SeededDamageOutcomesPerCaller) {
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    TempDir dir("hist");
    MetricsRegistry metrics;
    HistorySegmentStore store(dir.path(), 1 << 20, metrics);
    ASSERT_TRUE(store.Open().ok());
    const size_t n = 3 + rng() % 10;
    std::vector<EventOccurrence> written;
    std::vector<size_t> ends;  // File offset just past record i.
    std::string image;
    for (size_t i = 0; i < n; ++i) {
      std::string method = "M";
      method += std::to_string(i);
      EventOccurrence occ = MakeOccurrence(1 + rng() % 50, "S", method);
      for (size_t p = rng() % 4; p > 0; --p) {
        occ.params.emplace_back(static_cast<int64_t>(rng() % 1000));
      }
      ASSERT_TRUE(store.Append(occ).ok());
      image += HistorySegmentStore::EncodeRecord(occ);
      ends.push_back(image.size());
      written.push_back(std::move(occ));
    }
    ASSERT_TRUE(store.Flush().ok());
    const std::string path = OnlySegment(dir.path());
    ASSERT_EQ(ReadFile(path), image);

    // `valid` records survive the damage, in append order.
    const Damage damage = static_cast<Damage>(rng() % 4);
    size_t valid = 0;
    std::string damaged = image;
    switch (damage) {
      case Damage::kTruncate: {
        const size_t cut = rng() % image.size();
        damaged.resize(cut);
        while (valid < n && ends[valid] <= cut) ++valid;
        break;
      }
      case Damage::kFlipBit: {
        valid = rng() % n;
        const size_t begin = valid == 0 ? 0 : ends[valid - 1];
        const size_t at = begin + rng() % (ends[valid] - begin);
        damaged[at] ^= static_cast<char>(1u << (rng() % 8));
        break;
      }
      case Damage::kTornTail: {
        // A length prefix promising more bytes than follow it.
        valid = n;
        const uint32_t len = 64 + static_cast<uint32_t>(rng() % 64);
        damaged.append(reinterpret_cast<const char*>(&len), 4);
        damaged.append(rng() % 40, 'x');
        break;
      }
      case Damage::kUndecodable: {
        // A whole record with a good CRC whose body does not decode,
        // spliced in after `valid` good records: too short to hold an oid,
        // or whole but with a modifier byte above kEnd.
        valid = rng() % n;
        std::string body(1 + rng() % 7, '\x7f');
        if (rng() % 2 == 0) {
          body = HistorySegmentStore::EncodeRecord(MakeOccurrence(7, "S", "M"))
                     .substr(8);
          const size_t modifier_at = 8 + (4 + 1) + (4 + 1);  // oid, S, M.
          body[modifier_at] = static_cast<char>(2 + rng() % 254);
        }
        const uint32_t len = static_cast<uint32_t>(body.size());
        const uint32_t crc = Crc32c(body.data(), body.size());
        std::string bad(reinterpret_cast<const char*>(&len), 4);
        bad.append(reinterpret_cast<const char*>(&crc), 4);
        bad += body;
        damaged.insert(valid == 0 ? 0 : ends[valid - 1], bad);
        break;
      }
    }
    WriteFile(path, damaged);

    std::vector<EventOccurrence> got;
    Status scan = store.Scan({}, &got);
    if (damage == Damage::kUndecodable) {
      EXPECT_TRUE(scan.IsCorruption()) << scan.ToString();
    } else {
      ASSERT_TRUE(scan.ok()) << scan.ToString();
      ASSERT_EQ(got.size(), valid);
      for (size_t i = 0; i < valid; ++i) {
        EXPECT_EQ(got[i].timestamp.seq, written[i].timestamp.seq);
        EXPECT_EQ(got[i].method, written[i].method);
      }
    }

    const uint64_t cursor = rng() % (valid + 1);
    got.clear();
    uint64_t next = 0;
    Status from = store.ScanFrom(cursor, 0, &got, &next);
    if (damage == Damage::kUndecodable) {
      EXPECT_TRUE(from.IsCorruption()) << from.ToString();
      // Past the bad record, the good ones after it are served.
      got.clear();
      ASSERT_TRUE(store.ScanFrom(valid + 1, 0, &got, &next).ok());
      ASSERT_EQ(got.size(), n - valid);
      for (size_t i = valid; i < n; ++i) {
        EXPECT_EQ(got[i - valid].timestamp.seq, written[i].timestamp.seq);
      }
      EXPECT_EQ(next, got.empty() ? valid + 1 : n + 1);
    } else {
      ASSERT_TRUE(from.ok()) << from.ToString();
      ASSERT_EQ(got.size(), valid - cursor);
      for (size_t i = cursor; i < valid; ++i) {
        EXPECT_EQ(got[i - cursor].timestamp.seq, written[i].timestamp.seq);
      }
      EXPECT_EQ(next, valid);
    }
    ASSERT_TRUE(store.Close().ok());

    HistorySegmentStore reopened(dir.path(), 1 << 20, metrics);
    if (damage == Damage::kUndecodable) {
      Status open = reopened.Open();
      EXPECT_TRUE(open.IsCorruption()) << open.ToString();
      EXPECT_EQ(ReadFile(path), damaged);
      continue;
    }
    // Recovery cuts the file back to the surviving records and appending
    // resumes after them.
    ASSERT_TRUE(reopened.Open().ok());
    EXPECT_EQ(std::filesystem::file_size(path),
              valid == 0 ? 0u : ends[valid - 1]);
    EXPECT_EQ(reopened.TotalRecords(), valid);
    got.clear();
    ASSERT_TRUE(reopened.Scan({}, &got).ok());
    ASSERT_EQ(got.size(), valid);
    for (size_t i = 0; i < valid; ++i) {
      EXPECT_EQ(got[i].timestamp.seq, written[i].timestamp.seq);
    }
    ASSERT_TRUE(reopened.Close().ok());
  }
}

}  // namespace
}  // namespace sentinel
