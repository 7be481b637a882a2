// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "txn/wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>

#include "../test_util.h"
#include "common/codec.h"
#include "common/crc32c.h"
#include "common/failpoint.h"

namespace sentinel {
namespace {

using testing_util::TempDir;

TEST(WalTest, AppendAndReadRoundTrip) {
  TempDir dir("wal");
  MetricsRegistry metrics;
  WalManager wal(metrics);
  ASSERT_TRUE(wal.Open(dir.path() + "/wal.log").ok());

  ASSERT_TRUE(wal.Append(WalRecordType::kBegin, 7, 0, "").ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kPut, 7, 101, "payload-a").ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kDelete, 7, 102, "").ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kCommit, 7, 0, "").ok());
  ASSERT_TRUE(wal.Sync().ok());

  std::vector<WalRecord> records;
  ASSERT_TRUE(wal.ReadAll(&records).ok());
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].type, WalRecordType::kBegin);
  EXPECT_EQ(records[1].type, WalRecordType::kPut);
  EXPECT_EQ(records[1].oid, 101u);
  EXPECT_EQ(records[1].payload, "payload-a");
  EXPECT_EQ(records[2].type, WalRecordType::kDelete);
  EXPECT_EQ(records[2].oid, 102u);
  EXPECT_EQ(records[3].type, WalRecordType::kCommit);
  for (const WalRecord& rec : records) EXPECT_EQ(rec.txn, 7u);
}

TEST(WalTest, AppendAfterReadContinuesAtEnd) {
  TempDir dir("wal");
  MetricsRegistry metrics;
  WalManager wal(metrics);
  ASSERT_TRUE(wal.Open(dir.path() + "/wal.log").ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kBegin, 1, 0, "").ok());
  std::vector<WalRecord> records;
  ASSERT_TRUE(wal.ReadAll(&records).ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kCommit, 1, 0, "").ok());
  ASSERT_TRUE(wal.ReadAll(&records).ok());
  EXPECT_EQ(records.size(), 2u);
}

TEST(WalTest, LogSurvivesReopen) {
  TempDir dir("wal");
  std::string path = dir.path() + "/wal.log";
  {
    MetricsRegistry metrics;
    WalManager wal(metrics);
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kPut, 3, 55, "x").ok());
    ASSERT_TRUE(wal.Sync().ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  MetricsRegistry metrics;
  WalManager wal(metrics);
  ASSERT_TRUE(wal.Open(path).ok());
  std::vector<WalRecord> records;
  ASSERT_TRUE(wal.ReadAll(&records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].oid, 55u);
}

TEST(WalTest, TornTailIsTruncatedSilently) {
  TempDir dir("wal");
  std::string path = dir.path() + "/wal.log";
  {
    MetricsRegistry metrics;
    WalManager wal(metrics);
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kPut, 3, 55, "full record").ok());
    ASSERT_TRUE(wal.Sync().ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  const auto whole = std::filesystem::file_size(path);
  // Simulate a crash mid-append: tack on a length prefix with no body.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    uint32_t bogus_len = 1000;
    out.write(reinterpret_cast<const char*>(&bogus_len), 4);
    out.write("abc", 3);  // Far less than claimed.
  }
  MetricsRegistry metrics;
  WalManager wal(metrics);
  ASSERT_TRUE(wal.Open(path).ok());
  // Open cut the torn bytes: the file ends with the last whole record.
  EXPECT_EQ(std::filesystem::file_size(path), whole);
  std::vector<WalRecord> records;
  ASSERT_TRUE(wal.ReadAll(&records).ok());
  ASSERT_EQ(records.size(), 1u);  // The torn record is dropped.
  EXPECT_EQ(records[0].payload, "full record");
}

TEST(WalTest, ResetEmptiesLog) {
  TempDir dir("wal");
  MetricsRegistry metrics;
  WalManager wal(metrics);
  ASSERT_TRUE(wal.Open(dir.path() + "/wal.log").ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kPut, 1, 2, "data").ok());
  auto size = wal.SizeBytes();
  ASSERT_TRUE(size.ok());
  EXPECT_GT(size.value(), 0u);
  ASSERT_TRUE(wal.Reset().ok());
  size = wal.SizeBytes();
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), 0u);
  std::vector<WalRecord> records;
  ASSERT_TRUE(wal.ReadAll(&records).ok());
  EXPECT_TRUE(records.empty());
  // Still usable after reset.
  ASSERT_TRUE(wal.Append(WalRecordType::kBegin, 9, 0, "").ok());
  ASSERT_TRUE(wal.ReadAll(&records).ok());
  EXPECT_EQ(records.size(), 1u);
}

TEST(WalTest, CrcCatchesMidLogCorruption) {
  TempDir dir("wal");
  std::string path = dir.path() + "/wal.log";
  {
    MetricsRegistry metrics;
    WalManager wal(metrics);
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(
        wal.Append(WalRecordType::kPut, 1, 10, "first payload").ok());
    ASSERT_TRUE(
        wal.Append(WalRecordType::kPut, 1, 11, "second payload").ok());
    ASSERT_TRUE(wal.Sync().ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  // Flip one byte inside the FIRST record's body (not the tail): this is
  // mid-log rot, which replay must refuse — unlike a torn tail, silently
  // dropping it would lose a committed suffix behind it.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    // 24-byte header, then [len][crc], then body; corrupt body byte 3.
    f.seekp(24 + 8 + 3);
    f.put('\xFF');
  }
  MetricsRegistry metrics;
  WalManager wal(metrics);
  ASSERT_TRUE(wal.Open(path).ok());
  std::vector<WalRecord> records;
  Status s = wal.ReadAll(&records);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(WalTest, SyncFailureIsSticky) {
  TempDir dir("wal");
  MetricsRegistry metrics;
  WalManager wal(metrics);
  ASSERT_TRUE(wal.Open(dir.path() + "/wal.log").ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kPut, 1, 2, "x").ok());

  FailPoints::Instance().Reset();
  ASSERT_TRUE(
      FailPoints::Instance().EnableFromSpec("wal.sync=ioerror@hit(1)").ok());
  EXPECT_TRUE(wal.Sync().IsIOError());
  FailPoints::Instance().Reset();

  // The injection is gone, but the failure poisons the log: the kernel may
  // have dropped dirty pages without saying which, so every later sync
  // refuses until the log is reopened.
  EXPECT_TRUE(wal.sync_failed());
  EXPECT_TRUE(wal.Sync().IsIOError());
  // Appends stay best-effort (the abort-record neutralization path).
  EXPECT_TRUE(wal.Append(WalRecordType::kAbort, 1, 0, "").ok());
}

TEST(WalTest, TruncateToDropsPrefixAndLsnsStayMonotone) {
  TempDir dir("wal");
  std::string path = dir.path() + "/wal.log";
  MetricsRegistry metrics;
  WalManager wal(metrics);
  ASSERT_TRUE(wal.Open(path).ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kPut, 1, 10, "old-a").ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kPut, 1, 11, "old-b").ok());
  auto stable = wal.CurrentLsn();
  ASSERT_TRUE(stable.ok());
  ASSERT_TRUE(wal.Append(WalRecordType::kPut, 2, 12, "new-c").ok());
  auto end_before = wal.CurrentLsn();
  ASSERT_TRUE(end_before.ok());

  ASSERT_TRUE(wal.TruncateTo(*stable).ok());

  // Only the suffix survives, and the LSN space did not rewind.
  std::vector<WalRecord> records;
  ASSERT_TRUE(wal.ReadAll(&records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "new-c");
  auto end_after = wal.CurrentLsn();
  ASSERT_TRUE(end_after.ok());
  EXPECT_EQ(*end_after, *end_before);

  // Truncating below the base is a no-op; beyond the end is an error.
  EXPECT_TRUE(wal.TruncateTo(0).ok());
  EXPECT_TRUE(wal.TruncateTo(*end_after + 1000).IsInvalidArgument());

  // LSNs keep climbing across a reopen.
  ASSERT_TRUE(wal.Close().ok());
  WalManager wal2(metrics);
  ASSERT_TRUE(wal2.Open(path).ok());
  auto reopened = wal2.CurrentLsn();
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(*reopened, *end_after);
  ASSERT_TRUE(wal2.ReadAll(&records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].payload, "new-c");
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(WalTest, OpenRefusesFilesWithoutAV2HeaderAndLeavesThemUntouched) {
  TempDir dir("wal");
  std::string path = dir.path() + "/wal.log";

  // A headerless log: records framed [u32 len][body] with no CRC.
  Encoder body;
  body.PutU8(static_cast<uint8_t>(WalRecordType::kPut));
  body.PutU64(42);  // txn
  body.PutU64(77);  // oid
  body.PutString("headerless payload");
  Encoder headerless;
  headerless.PutU32(static_cast<uint32_t>(body.size()));
  headerless.PutRaw(body.buffer().data(), body.size());

  // A well-formed header (valid CRC) that names version 1, then one record.
  Encoder v1_header;
  v1_header.PutRaw("SWAL", 4);
  v1_header.PutU32(1);
  v1_header.PutU64(0);
  v1_header.PutU32(Crc32c(v1_header.buffer().data(), v1_header.size()));
  v1_header.PutU32(0);
  v1_header.PutRaw(headerless.buffer().data(), headerless.size());

  for (const std::string& bytes :
       {headerless.buffer(), v1_header.buffer(), std::string("SW")}) {
    WriteFile(path, bytes);
    MetricsRegistry metrics;
    WalManager wal(metrics);
    Status s = wal.Open(path);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    // Refused without appending to or rewriting the file.
    EXPECT_EQ(ReadFile(path), bytes);
    EXPECT_TRUE(wal.Append(WalRecordType::kBegin, 1, 0, "")
                    .IsFailedPrecondition());
  }
}

void ExpectSameRecords(const std::vector<WalRecord>& a,
                       const std::vector<WalRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type) << i;
    EXPECT_EQ(a[i].txn, b[i].txn) << i;
    EXPECT_EQ(a[i].oid, b[i].oid) << i;
    EXPECT_EQ(a[i].payload, b[i].payload) << i;
  }
}

/// ReadAll must be exactly ReadFrom(BaseLsn(), SIZE_MAX): same records,
/// same Status.
void ExpectReadAllEqualsReadFromBase(WalManager* wal) {
  std::vector<WalRecord> all;
  Status all_status = wal->ReadAll(&all);
  auto base = wal->BaseLsn();
  ASSERT_TRUE(base.ok());
  std::vector<WalRecord> from;
  uint64_t next_lsn = 0;
  Status from_status = wal->ReadFrom(*base, SIZE_MAX, &from, &next_lsn);
  EXPECT_EQ(all_status.ToString(), from_status.ToString());
  ExpectSameRecords(all, from);
}

/// Appends `n` seeded records of mixed types and payload sizes; returns
/// the LSN at which each record starts.
std::vector<uint64_t> AppendSeeded(WalManager* wal, uint32_t seed, int n) {
  std::mt19937 rng(seed);
  std::vector<uint64_t> starts;
  for (int i = 0; i < n; ++i) {
    starts.push_back(*wal->CurrentLsn());
    WalRecord rec;
    rec.type = static_cast<WalRecordType>(1 + rng() % 6);
    rec.txn = rng() % 100;
    rec.oid = rng();
    rec.payload.assign(rng() % 200, static_cast<char>('a' + rng() % 26));
    EXPECT_TRUE(wal->Append(rec.type, rec.txn, rec.oid, rec.payload).ok());
  }
  EXPECT_TRUE(wal->Sync().ok());
  return starts;
}

TEST(WalTest, ReadAllEqualsReadFromBaseOnDamagedLogs) {
  TempDir dir("wal");
  constexpr int kRecords = 40;

  // Torn tail: a length prefix claiming more bytes than follow.
  std::string torn = dir.path() + "/torn.log";
  {
    MetricsRegistry metrics;
    WalManager wal(metrics);
    ASSERT_TRUE(wal.Open(torn).ok());
    AppendSeeded(&wal, 13, kRecords);
    ASSERT_TRUE(wal.Close().ok());
    std::ofstream out(torn, std::ios::binary | std::ios::app);
    uint32_t bogus_len = 1000;
    out.write(reinterpret_cast<const char*>(&bogus_len), 4);
    out.write("abc", 3);
  }
  {
    MetricsRegistry metrics;
    WalManager wal(metrics);
    ASSERT_TRUE(wal.Open(torn).ok());
    std::vector<WalRecord> records;
    ASSERT_TRUE(wal.ReadAll(&records).ok());
    EXPECT_EQ(records.size(), static_cast<size_t>(kRecords));
    ExpectReadAllEqualsReadFromBase(&wal);
  }

  // Mid-log CRC flip: one body byte of a middle record is rotted.
  std::string rotted = dir.path() + "/rotted.log";
  std::vector<uint64_t> starts;
  {
    MetricsRegistry metrics;
    WalManager wal(metrics);
    ASSERT_TRUE(wal.Open(rotted).ok());
    starts = AppendSeeded(&wal, 29, kRecords);
    ASSERT_TRUE(wal.Close().ok());
    std::fstream f(rotted, std::ios::binary | std::ios::in | std::ios::out);
    // 24-byte header; LSN 0 is the first record byte. Skip [len][crc] and
    // the type byte, then flip every bit of a txn byte.
    const auto off =
        static_cast<std::streamoff>(24 + starts[kRecords / 2] + 8 + 1);
    f.seekg(off);
    const char byte = static_cast<char>(f.get());
    f.seekp(off);
    f.put(static_cast<char>(~byte));
  }
  {
    MetricsRegistry metrics;
    WalManager wal(metrics);
    ASSERT_TRUE(wal.Open(rotted).ok());
    std::vector<WalRecord> records;
    EXPECT_TRUE(wal.ReadAll(&records).IsCorruption());
    EXPECT_EQ(records.size(), static_cast<size_t>(kRecords / 2));
    ExpectReadAllEqualsReadFromBase(&wal);

    // After a TruncateTo past the rotted record, both read the clean
    // suffix; truncating to just before it keeps the Corruption.
    ASSERT_TRUE(wal.TruncateTo(starts[kRecords / 2]).ok());
    EXPECT_TRUE(wal.ReadAll(&records).IsCorruption());
    ExpectReadAllEqualsReadFromBase(&wal);
    ASSERT_TRUE(wal.TruncateTo(starts[kRecords / 2 + 1]).ok());
    ASSERT_TRUE(wal.ReadAll(&records).ok());
    EXPECT_EQ(records.size(), static_cast<size_t>(kRecords / 2 - 1));
    ExpectReadAllEqualsReadFromBase(&wal);
  }
}

// Golden bytes of the version-2 framing, [u32 body_len][u32 crc32c(body)]
// [u8 type][u64 txn][u64 oid][u32 payload_len][payload], little-endian:
// appending must reproduce them byte for byte.
TEST(WalTest, RecordFramingMatchesGoldenBytes) {
  TempDir dir("wal");
  const std::string path = dir.path() + "/wal.log";
  {
    MetricsRegistry metrics;
    WalManager wal(metrics);
    ASSERT_TRUE(wal.Open(path).ok());
    ASSERT_TRUE(
        wal.Append(WalRecordType::kPut, 7, 0x0102030405060708ull, "img")
            .ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kDelete, 7, 258, "").ok());
    ASSERT_TRUE(wal.Append(WalRecordType::kCommit, 7, 0, "").ok());
    ASSERT_TRUE(wal.Sync().ok());
    ASSERT_TRUE(wal.Close().ok());
  }
  const unsigned char kGolden[] = {
      // Put: body 24 bytes, crc 0xbb1632f7, txn 7, oid 0x0102..08, "img".
      0x18, 0x00, 0x00, 0x00, 0xf7, 0x32, 0x16, 0xbb, 0x04, 0x07, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02,
      0x01, 0x03, 0x00, 0x00, 0x00, 0x69, 0x6d, 0x67,
      // Delete: body 21 bytes, crc 0x8620735a, txn 7, oid 258.
      0x15, 0x00, 0x00, 0x00, 0x5a, 0x73, 0x20, 0x86, 0x05, 0x07, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00,
      // Commit: body 21 bytes, crc 0x50855d78, txn 7.
      0x15, 0x00, 0x00, 0x00, 0x78, 0x5d, 0x85, 0x50, 0x02, 0x07, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00};
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  constexpr size_t kHeaderBytes = 24;
  ASSERT_EQ(bytes.size(), kHeaderBytes + sizeof(kGolden));
  EXPECT_EQ(bytes.substr(kHeaderBytes),
            std::string(reinterpret_cast<const char*>(kGolden),
                        sizeof(kGolden)));
}

TEST(WalTest, OperationsOnClosedWalFail) {
  MetricsRegistry metrics;
  WalManager wal(metrics);
  EXPECT_TRUE(wal.Append(WalRecordType::kBegin, 0, 0).IsFailedPrecondition());
  EXPECT_TRUE(wal.Sync().IsFailedPrecondition());
  std::vector<WalRecord> records;
  EXPECT_TRUE(wal.ReadAll(&records).IsFailedPrecondition());
}

}  // namespace
}  // namespace sentinel
