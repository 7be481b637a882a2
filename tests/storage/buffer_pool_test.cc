// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstring>

#include "../test_util.h"

namespace sentinel {
namespace {

using testing_util::TempDir;

class BufferPoolTest : public ::testing::Test {
 protected:
  BufferPoolTest() : dir_("pool") {
    EXPECT_TRUE(disk_.Open(dir_.path() + "/db").ok());
  }

  TempDir dir_;
  MetricsRegistry metrics_;
  DiskManager disk_{metrics_};
};

TEST_F(BufferPoolTest, AllocateReturnsPinnedPage) {
  BufferPool pool(&disk_, 4, metrics_);
  auto page = pool.AllocatePage();
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page.value()->pin_count(), 1);
  EXPECT_EQ(page.value()->page_id(), 0u);
  EXPECT_TRUE(pool.UnpinPage(0, false).ok());
}

TEST_F(BufferPoolTest, FetchHitsCache) {
  BufferPool pool(&disk_, 4, metrics_);
  auto page = pool.AllocatePage();
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(pool.UnpinPage(0, false).ok());
  auto again = pool.FetchPage(0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(metrics_.counter("storage.pool.hits")->Value(), 1u);
  EXPECT_EQ(metrics_.counter("storage.pool.misses")->Value(), 0u);
  ASSERT_TRUE(pool.UnpinPage(0, false).ok());
}

TEST_F(BufferPoolTest, DirtyPageSurvivesEviction) {
  BufferPool pool(&disk_, 2, metrics_);
  // Write page 0.
  auto page = pool.AllocatePage();
  ASSERT_TRUE(page.ok());
  std::memset(page.value()->data(), 0x7E, kPageSize);
  ASSERT_TRUE(pool.UnpinPage(0, true).ok());
  // Evict it by filling the pool with other pages.
  for (int i = 0; i < 3; ++i) {
    auto p = pool.AllocatePage();
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(pool.UnpinPage(p.value()->page_id(), false).ok());
  }
  // Fetch back: bytes must have been written through.
  auto back = pool.FetchPage(0);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(static_cast<unsigned char>(back.value()->data()[100]), 0x7Eu);
  ASSERT_TRUE(pool.UnpinPage(0, false).ok());
}

TEST_F(BufferPoolTest, AllFramesPinnedIsBusy) {
  BufferPool pool(&disk_, 2, metrics_);
  auto a = pool.AllocatePage();
  auto b = pool.AllocatePage();
  ASSERT_TRUE(a.ok() && b.ok());
  auto c = pool.AllocatePage();
  EXPECT_TRUE(c.status().IsBusy());
  ASSERT_TRUE(pool.UnpinPage(a.value()->page_id(), false).ok());
  auto d = pool.AllocatePage();
  EXPECT_TRUE(d.ok());
}

TEST_F(BufferPoolTest, PinnedPageIsNotEvicted) {
  BufferPool pool(&disk_, 2, metrics_);
  auto pinned = pool.AllocatePage();
  ASSERT_TRUE(pinned.ok());
  std::memset(pinned.value()->data(), 0x11, 16);
  // Churn through the other frame.
  for (int i = 0; i < 4; ++i) {
    auto p = pool.AllocatePage();
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(pool.UnpinPage(p.value()->page_id(), false).ok());
  }
  EXPECT_EQ(pinned.value()->page_id(), 0u);  // Frame unchanged.
  EXPECT_EQ(pinned.value()->data()[3], 0x11);
  ASSERT_TRUE(pool.UnpinPage(0, false).ok());
}

TEST_F(BufferPoolTest, UnpinErrors) {
  BufferPool pool(&disk_, 2, metrics_);
  EXPECT_TRUE(pool.UnpinPage(0, false).IsNotFound());
  auto page = pool.AllocatePage();
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(pool.UnpinPage(0, false).ok());
  EXPECT_TRUE(pool.UnpinPage(0, false).IsFailedPrecondition());
}

TEST_F(BufferPoolTest, FlushAllWritesEverything) {
  BufferPool pool(&disk_, 8, metrics_);
  for (int i = 0; i < 4; ++i) {
    auto p = pool.AllocatePage();
    ASSERT_TRUE(p.ok());
    std::memset(p.value()->data(), i + 1, kPageSize);
    ASSERT_TRUE(pool.UnpinPage(p.value()->page_id(), true).ok());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  // Read through a fresh pool (bypassing the old cache contents).
  BufferPool fresh(&disk_, 8, metrics_);
  for (PageId i = 0; i < 4; ++i) {
    auto p = fresh.FetchPage(i);
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p.value()->data()[7], static_cast<char>(i + 1));
    ASSERT_TRUE(fresh.UnpinPage(i, false).ok());
  }
}

TEST_F(BufferPoolTest, LruEvictsLeastRecentlyUsed) {
  BufferPool pool(&disk_, 2, metrics_);
  auto a = pool.AllocatePage();  // page 0
  auto b = pool.AllocatePage();  // page 1
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(pool.UnpinPage(0, false).ok());
  ASSERT_TRUE(pool.UnpinPage(1, false).ok());
  // Touch page 0 so page 1 is the LRU.
  ASSERT_TRUE(pool.FetchPage(0).ok());
  ASSERT_TRUE(pool.UnpinPage(0, false).ok());
  // Allocating page 2 must evict page 1, keeping 0 cached.
  auto c = pool.AllocatePage();
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(pool.UnpinPage(2, false).ok());
  uint64_t hits_before = metrics_.counter("storage.pool.hits")->Value();
  ASSERT_TRUE(pool.FetchPage(0).ok());  // Still cached -> hit.
  EXPECT_EQ(metrics_.counter("storage.pool.hits")->Value(), hits_before + 1);
  ASSERT_TRUE(pool.UnpinPage(0, false).ok());
}

}  // namespace
}  // namespace sentinel
