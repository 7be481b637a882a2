// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <cstring>
#include <list>
#include <map>
#include <random>
#include <vector>

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

/// Reference LRU: cached pages least-recent first, with pin counts and the
/// frame each page was loaded into. A miss takes a never-used frame while
/// any is left, else evicts the least recently used unpinned page.
struct LruModel {
  size_t capacity;
  std::list<PageId> order;
  std::map<PageId, int> pins;
  std::map<PageId, Page*> frame_of;

  bool cached(PageId pid) const { return pins.count(pid) != 0; }

  /// The page a miss must evict: kInvalidPageId when a frame is still
  /// unused; nullopt-like `busy` when every cached page is pinned.
  PageId Victim(bool* busy) const {
    *busy = false;
    if (order.size() < capacity) return kInvalidPageId;
    for (PageId pid : order) {
      if (pins.at(pid) == 0) return pid;
    }
    *busy = true;
    return kInvalidPageId;
  }

  void Touch(PageId pid) {
    order.remove(pid);
    order.push_back(pid);
  }

  void Install(PageId pid, PageId victim, Page* frame) {
    if (victim != kInvalidPageId) {
      order.remove(victim);
      pins.erase(victim);
      frame_of.erase(victim);
    }
    order.push_back(pid);
    pins[pid] = 1;
    frame_of[pid] = frame;
  }
};

// A seeded random fetch/allocate/unpin trace against the reference model:
// every step must agree on hit or miss, on Busy, and on which page a miss
// evicts (the victim's frame is the one the new page lands in).
TEST_F(BufferPoolTest, RandomTraceMatchesReferenceLru) {
  constexpr size_t kFrames = 8;
  constexpr PageId kMaxPages = 48;
  BufferPool pool(&disk_, kFrames, metrics_);
  LruModel model{kFrames, {}, {}, {}};
  std::mt19937 rng(20260420);
  const Counter* hits = metrics_.counter("storage.pool.hits");
  const Counter* misses = metrics_.counter("storage.pool.misses");
  PageId allocated = 0;
  std::vector<PageId> pinned;  // One entry per outstanding pin.
  size_t evictions = 0, busy_seen = 0;

  for (int step = 0; step < 10000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const unsigned roll = rng() % 100;
    if (roll < 48 && !pinned.empty()) {
      const size_t i = rng() % pinned.size();
      const PageId pid = pinned[i];
      pinned[i] = pinned.back();
      pinned.pop_back();
      ASSERT_TRUE(pool.UnpinPage(pid, (rng() & 1) != 0).ok());
      model.pins[pid]--;
      continue;
    }
    bool busy = false;
    const bool allocate = roll < 54 && allocated < kMaxPages;
    if (allocate || allocated == 0) {
      const PageId pid = allocated++;
      const PageId victim = model.Victim(&busy);
      Result<Page*> page = pool.AllocatePage();
      if (busy) {
        ASSERT_TRUE(page.status().IsBusy());
        ++busy_seen;
        continue;
      }
      ASSERT_TRUE(page.ok());
      ASSERT_EQ(page.value()->page_id(), pid);
      if (victim != kInvalidPageId) {
        ASSERT_EQ(page.value(), model.frame_of.at(victim));
        ++evictions;
      }
      model.Install(pid, victim, page.value());
      pinned.push_back(pid);
      continue;
    }
    // Half the fetches go to a hot set of 12 pages, so hits are common.
    const PageId span = (rng() & 1) != 0 ? std::min<PageId>(allocated, 12)
                                         : allocated;
    const PageId pid = static_cast<PageId>(rng() % span);
    const uint64_t hits_before = hits->Value();
    const uint64_t misses_before = misses->Value();
    const bool hit = model.cached(pid);
    const PageId victim = hit ? kInvalidPageId : model.Victim(&busy);
    Result<Page*> page = pool.FetchPage(pid);
    ASSERT_EQ(hits->Value() - hits_before, hit ? 1u : 0u);
    ASSERT_EQ(misses->Value() - misses_before, hit ? 0u : 1u);
    if (busy) {
      ASSERT_TRUE(page.status().IsBusy());
      ++busy_seen;
      continue;
    }
    ASSERT_TRUE(page.ok());
    ASSERT_EQ(page.value()->page_id(), pid);
    if (hit) {
      ASSERT_EQ(page.value(), model.frame_of.at(pid));
      model.pins[pid]++;
      model.Touch(pid);
    } else {
      if (victim != kInvalidPageId) {
        ASSERT_EQ(page.value(), model.frame_of.at(victim));
        ++evictions;
      }
      model.Install(pid, victim, page.value());
    }
    pinned.push_back(pid);
  }
  // The trace really exercised eviction and the all-pinned case.
  EXPECT_GT(evictions, 1000u);
  EXPECT_GT(busy_seen, 0u);
  for (PageId pid : pinned) ASSERT_TRUE(pool.UnpinPage(pid, false).ok());
}

}  // namespace
}  // namespace sentinel
