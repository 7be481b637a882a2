// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "storage/disk_manager.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>

#include "../test_util.h"

namespace sentinel {
namespace {

using testing_util::TempDir;

TEST(DiskManagerTest, OpenCreatesFile) {
  TempDir dir("disk");
  MetricsRegistry metrics;
  DiskManager dm(metrics);
  ASSERT_TRUE(dm.Open(dir.path() + "/db").ok());
  EXPECT_TRUE(dm.is_open());
  EXPECT_EQ(dm.page_count(), 0u);
  EXPECT_TRUE(dm.Close().ok());
  EXPECT_FALSE(dm.is_open());
}

TEST(DiskManagerTest, DoubleOpenFails) {
  TempDir dir("disk");
  MetricsRegistry metrics;
  DiskManager dm(metrics);
  ASSERT_TRUE(dm.Open(dir.path() + "/db").ok());
  EXPECT_TRUE(dm.Open(dir.path() + "/db2").IsFailedPrecondition());
}

TEST(DiskManagerTest, AllocateGrowsFile) {
  TempDir dir("disk");
  MetricsRegistry metrics;
  DiskManager dm(metrics);
  ASSERT_TRUE(dm.Open(dir.path() + "/db").ok());
  auto p0 = dm.AllocatePage();
  auto p1 = dm.AllocatePage();
  ASSERT_TRUE(p0.ok() && p1.ok());
  EXPECT_EQ(p0.value(), 0u);
  EXPECT_EQ(p1.value(), 1u);
  EXPECT_EQ(dm.page_count(), 2u);
}

TEST(DiskManagerTest, WriteReadRoundTrip) {
  TempDir dir("disk");
  MetricsRegistry metrics;
  DiskManager dm(metrics);
  ASSERT_TRUE(dm.Open(dir.path() + "/db").ok());
  auto pid = dm.AllocatePage();
  ASSERT_TRUE(pid.ok());
  char out[kPageSize];
  std::memset(out, 0x5A, kPageSize);
  ASSERT_TRUE(dm.WritePage(pid.value(), out).ok());
  char in[kPageSize] = {};
  ASSERT_TRUE(dm.ReadPage(pid.value(), in).ok());
  EXPECT_EQ(std::memcmp(in, out, kPageSize), 0);
}

TEST(DiskManagerTest, UnallocatedAccessIsRejected) {
  TempDir dir("disk");
  MetricsRegistry metrics;
  DiskManager dm(metrics);
  ASSERT_TRUE(dm.Open(dir.path() + "/db").ok());
  char buf[kPageSize];
  EXPECT_TRUE(dm.ReadPage(0, buf).IsInvalidArgument());
  EXPECT_TRUE(dm.WritePage(5, buf).IsInvalidArgument());
}

TEST(DiskManagerTest, DataSurvivesReopen) {
  TempDir dir("disk");
  std::string path = dir.path() + "/db";
  char out[kPageSize];
  std::memset(out, 0x33, kPageSize);
  {
    MetricsRegistry metrics;
    DiskManager dm(metrics);
    ASSERT_TRUE(dm.Open(path).ok());
    auto pid = dm.AllocatePage();
    ASSERT_TRUE(pid.ok());
    ASSERT_TRUE(dm.WritePage(pid.value(), out).ok());
    ASSERT_TRUE(dm.Sync().ok());
    ASSERT_TRUE(dm.Close().ok());
  }
  MetricsRegistry metrics;
  DiskManager dm(metrics);
  ASSERT_TRUE(dm.Open(path).ok());
  EXPECT_EQ(dm.page_count(), 1u);
  char in[kPageSize] = {};
  ASSERT_TRUE(dm.ReadPage(0, in).ok());
  EXPECT_EQ(std::memcmp(in, out, kPageSize), 0);
}

TEST(DiskManagerTest, AllocatedUnwrittenPageReadsZeros) {
  TempDir dir("disk");
  MetricsRegistry metrics;
  DiskManager dm(metrics);
  ASSERT_TRUE(dm.Open(dir.path() + "/db").ok());
  auto pid = dm.AllocatePage();
  ASSERT_TRUE(pid.ok());
  char in[kPageSize];
  std::memset(in, 0x7F, kPageSize);
  ASSERT_TRUE(dm.ReadPage(pid.value(), in).ok());
  const char zeros[kPageSize] = {};
  EXPECT_EQ(std::memcmp(in, zeros, kPageSize), 0);
  // Allocation alone leaves the file empty.
  EXPECT_EQ(std::filesystem::file_size(dir.path() + "/db"), 0u);
}

TEST(DiskManagerTest, ReopenCountsOnlyPagesThatReachedTheFile) {
  TempDir dir("disk");
  const std::string path = dir.path() + "/db";
  char out[kPageSize];
  std::memset(out, 0x21, kPageSize);
  {
    MetricsRegistry metrics;
    DiskManager dm(metrics);
    ASSERT_TRUE(dm.Open(path).ok());
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(dm.AllocatePage().ok());
    EXPECT_EQ(dm.page_count(), 3u);
    ASSERT_TRUE(dm.WritePage(0, out).ok());  // Pages 1 and 2 never written.
    ASSERT_TRUE(dm.Sync().ok());
    ASSERT_TRUE(dm.Close().ok());
  }
  MetricsRegistry metrics;
  DiskManager dm(metrics);
  ASSERT_TRUE(dm.Open(path).ok());
  EXPECT_EQ(dm.page_count(), 1u);
  // The next allocation reuses the first id that never reached the file.
  auto next = dm.AllocatePage();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), 1u);
}

TEST(DiskManagerTest, HoleBelowWrittenPageReadsZerosAfterReopen) {
  TempDir dir("disk");
  const std::string path = dir.path() + "/db";
  char out[kPageSize];
  std::memset(out, 0x44, kPageSize);
  {
    MetricsRegistry metrics;
    DiskManager dm(metrics);
    ASSERT_TRUE(dm.Open(path).ok());
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(dm.AllocatePage().ok());
    ASSERT_TRUE(dm.WritePage(2, out).ok());  // Pages 0 and 1 are holes.
    ASSERT_TRUE(dm.Close().ok());
  }
  MetricsRegistry metrics;
  DiskManager dm(metrics);
  ASSERT_TRUE(dm.Open(path).ok());
  EXPECT_EQ(dm.page_count(), 3u);
  const char zeros[kPageSize] = {};
  char in[kPageSize];
  for (PageId hole : {0u, 1u}) {
    std::memset(in, 0x7F, kPageSize);
    ASSERT_TRUE(dm.ReadPage(hole, in).ok());
    EXPECT_EQ(std::memcmp(in, zeros, kPageSize), 0) << "page " << hole;
  }
  ASSERT_TRUE(dm.ReadPage(2, in).ok());
  EXPECT_EQ(std::memcmp(in, out, kPageSize), 0);
}

TEST(DiskManagerTest, OperationsOnClosedManagerFail) {
  MetricsRegistry metrics;
  DiskManager dm(metrics);
  char buf[kPageSize];
  EXPECT_TRUE(dm.ReadPage(0, buf).IsFailedPrecondition());
  EXPECT_TRUE(dm.WritePage(0, buf).IsFailedPrecondition());
  EXPECT_TRUE(dm.AllocatePage().status().IsFailedPrecondition());
  EXPECT_TRUE(dm.Sync().IsFailedPrecondition());
}

TEST(DiskManagerTest, OpenOnUnwritableDirectoryFails) {
  MetricsRegistry metrics;
  DiskManager dm(metrics);
  EXPECT_TRUE(dm.Open("/nonexistent_dir_xyz/db").IsIOError());
}

}  // namespace
}  // namespace sentinel
