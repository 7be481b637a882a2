// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "storage/buffer_pool.h"

#include <cassert>

#include "common/failpoint.h"

namespace sentinel {

BufferPool::BufferPool(DiskManager* disk, size_t capacity,
                       MetricsRegistry& metrics)
    : disk_(disk),
      frames_(capacity),
      m_hits_(metrics.counter("storage.pool.hits")),
      m_misses_(metrics.counter("storage.pool.misses")) {
  assert(capacity > 0);
  free_frames_.reserve(capacity);
  for (size_t i = 0; i < capacity; ++i) {
    free_frames_.push_back(capacity - 1 - i);
  }
}

Result<size_t> BufferPool::FindVictim() {
  if (!free_frames_.empty()) {
    size_t frame = free_frames_.back();
    free_frames_.pop_back();
    // Frames are allocated on first use, so opening a database does not
    // zero (and fault in) the whole pool up front.
    if (frames_[frame] == nullptr) frames_[frame] = std::make_unique<Page>();
    return frame;
  }
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    size_t frame = *it;
    if (frames_[frame]->pin_count() == 0) {
      lru_.erase(it);
      lru_pos_.erase(frame);
      return frame;
    }
  }
  return Status::Busy("all buffer frames pinned");
}

Result<Page*> BufferPool::FetchPage(PageId page_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = page_table_.find(page_id);
  if (it != page_table_.end()) {
    m_hits_->Add();
    size_t frame = it->second;
    Page* page = frames_[frame].get();
    page->pin_count_++;
    // Refresh LRU position.
    auto pos = lru_pos_.find(frame);
    if (pos != lru_pos_.end()) {
      lru_.erase(pos->second);
      lru_pos_.erase(pos);
    }
    lru_.push_back(frame);
    lru_pos_[frame] = std::prev(lru_.end());
    return page;
  }
  m_misses_->Add();
  SENTINEL_ASSIGN_OR_RETURN(size_t frame, FindVictim());
  Page* page = frames_[frame].get();
  if (page->page_id() != kInvalidPageId) {
    if (page->is_dirty()) {
      SENTINEL_RETURN_IF_ERROR(disk_->WritePage(page->page_id(),
                                                page->data()));
    }
    page_table_.erase(page->page_id());
  }
  page->Reset();
  Status s = disk_->ReadPage(page_id, page->data());
  if (!s.ok()) {
    free_frames_.push_back(frame);
    return s;
  }
  page->page_id_ = page_id;
  page->pin_count_ = 1;
  page_table_[page_id] = frame;
  lru_.push_back(frame);
  lru_pos_[frame] = std::prev(lru_.end());
  return page;
}

Result<Page*> BufferPool::AllocatePage() {
  std::lock_guard<std::mutex> lock(mutex_);
  SENTINEL_ASSIGN_OR_RETURN(PageId page_id, disk_->AllocatePage());
  SENTINEL_ASSIGN_OR_RETURN(size_t frame, FindVictim());
  Page* page = frames_[frame].get();
  if (page->page_id() != kInvalidPageId) {
    if (page->is_dirty()) {
      SENTINEL_RETURN_IF_ERROR(disk_->WritePage(page->page_id(),
                                                page->data()));
    }
    page_table_.erase(page->page_id());
  }
  page->Reset();
  page->page_id_ = page_id;
  page->pin_count_ = 1;
  page_table_[page_id] = frame;
  lru_.push_back(frame);
  lru_pos_[frame] = std::prev(lru_.end());
  return page;
}

Status BufferPool::UnpinPage(PageId page_id, bool dirty) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = page_table_.find(page_id);
  if (it == page_table_.end()) {
    return Status::NotFound("unpin of uncached page " +
                            std::to_string(page_id));
  }
  Page* page = frames_[it->second].get();
  if (page->pin_count_ <= 0) {
    return Status::FailedPrecondition("unpin of unpinned page " +
                                      std::to_string(page_id));
  }
  page->pin_count_--;
  if (dirty) page->dirty_ = true;
  return Status::OK();
}

Status BufferPool::FlushPage(PageId page_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = page_table_.find(page_id);
  if (it == page_table_.end()) {
    return Status::NotFound("flush of uncached page " +
                            std::to_string(page_id));
  }
  Page* page = frames_[it->second].get();
  SENTINEL_RETURN_IF_ERROR(disk_->WritePage(page_id, page->data()));
  page->dirty_ = false;
  return Status::OK();
}

Status BufferPool::FlushAll() {
  SENTINEL_FAILPOINT("bufferpool.flush_all");
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [page_id, frame] : page_table_) {
    Page* page = frames_[frame].get();
    if (page->is_dirty()) {
      SENTINEL_RETURN_IF_ERROR(disk_->WritePage(page_id, page->data()));
      page->dirty_ = false;
    }
  }
  return disk_->Sync();
}

}  // namespace sentinel
