// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// LRU buffer pool over a DiskManager. Pages are pinned while in use and
// written back lazily on eviction (plus FlushAll at checkpoints/close).
// The LRU order is an intrusive doubly linked list over frame indexes, so a
// hit moves its frame to the back without allocating.

#ifndef SENTINEL_STORAGE_BUFFER_POOL_H_
#define SENTINEL_STORAGE_BUFFER_POOL_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "storage/disk_manager.h"
#include "storage/page.h"

namespace sentinel {

/// Caches disk pages in a fixed set of frames with LRU replacement.
///
/// Thread safe. A pinned page's frame is never evicted; callers must balance
/// each Fetch/Allocate with an Unpin.
class BufferPool {
 public:
  /// `capacity` is the number of page frames held in memory. Hits and
  /// misses count into storage.pool.hits / storage.pool.misses.
  BufferPool(DiskManager* disk, size_t capacity, MetricsRegistry& metrics);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns the page pinned; loads from disk on miss, evicting an unpinned
  /// LRU frame if needed. Fails with Busy when every frame is pinned.
  Result<Page*> FetchPage(PageId page_id);

  /// Allocates a fresh page on disk and returns it pinned.
  Result<Page*> AllocatePage();

  /// Drops a pin; `dirty` marks the frame as needing write-back.
  Status UnpinPage(PageId page_id, bool dirty);

  /// Writes one page through to disk (it stays cached).
  Status FlushPage(PageId page_id);

  /// Writes all dirty frames to disk and syncs the file.
  Status FlushAll();

  size_t capacity() const { return frames_.size(); }

 private:
  /// Picks a victim frame (a free one, else the least recently used
  /// unpinned one, which leaves the LRU list) or returns Busy.
  Result<size_t> FindVictim();

  /// Loads `page_id` into a victim frame: writes the frame's old page back
  /// if dirty, unmaps it, and maps `page_id` pinned at the LRU back.
  /// `read` fills the frame from disk; otherwise it is zeroed (a new page).
  Result<Page*> InstallPage(PageId page_id, bool read);

  /// LRU list maintenance. A frame is linked while it holds a page and is
  /// not mid-eviction; unlinking an unlinked frame is a no-op.
  void LruUnlink(size_t frame);
  void LruPushBack(size_t frame);

  DiskManager* disk_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Page>> frames_;  // Null until first used.
  std::unordered_map<PageId, size_t> page_table_;  // page id -> frame index
  /// LRU links by frame index. Index capacity() is the list's sentinel:
  /// its next is the least recently used frame, its prev the most recent.
  /// kUnlinked marks a frame that is off the list.
  static constexpr size_t kUnlinked = static_cast<size_t>(-1);
  std::vector<size_t> lru_prev_;
  std::vector<size_t> lru_next_;
  std::vector<size_t> free_frames_;
  Counter* const m_hits_;
  Counter* const m_misses_;
};

}  // namespace sentinel

#endif  // SENTINEL_STORAGE_BUFFER_POOL_H_
