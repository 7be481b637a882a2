// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "storage/buffer_pool.h"

#include <cassert>
#include <cstring>

#include "common/failpoint.h"

namespace sentinel {

BufferPool::BufferPool(DiskManager* disk, size_t capacity,
                       MetricsRegistry& metrics)
    : disk_(disk),
      frames_(capacity),
      lru_prev_(capacity + 1, kUnlinked),
      lru_next_(capacity + 1, kUnlinked),
      m_hits_(metrics.counter("storage.pool.hits")),
      m_misses_(metrics.counter("storage.pool.misses")) {
  assert(capacity > 0);
  lru_prev_[capacity] = capacity;  // Empty list: the sentinel links itself.
  lru_next_[capacity] = capacity;
  page_table_.reserve(capacity);
  free_frames_.reserve(capacity);
  for (size_t i = 0; i < capacity; ++i) {
    free_frames_.push_back(capacity - 1 - i);
  }
}

void BufferPool::LruUnlink(size_t frame) {
  if (lru_prev_[frame] == kUnlinked) return;
  lru_next_[lru_prev_[frame]] = lru_next_[frame];
  lru_prev_[lru_next_[frame]] = lru_prev_[frame];
  lru_prev_[frame] = kUnlinked;
  lru_next_[frame] = kUnlinked;
}

void BufferPool::LruPushBack(size_t frame) {
  const size_t head = frames_.size();
  const size_t last = lru_prev_[head];
  lru_prev_[frame] = last;
  lru_next_[frame] = head;
  lru_next_[last] = frame;
  lru_prev_[head] = frame;
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
  const size_t head = frames_.size();
  for (size_t frame = lru_next_[head]; frame != head;
       frame = lru_next_[frame]) {
    if (frames_[frame]->pin_count() == 0) {
      LruUnlink(frame);
      return frame;
    }
  }
  return Status::Busy("all buffer frames pinned");
}

Result<Page*> BufferPool::InstallPage(PageId page_id, bool read) {
  SENTINEL_ASSIGN_OR_RETURN(size_t frame, FindVictim());
  Page* page = frames_[frame].get();
  decltype(page_table_)::node_type entry;
  if (page->page_id() != kInvalidPageId) {
    if (page->is_dirty()) {
      SENTINEL_RETURN_IF_ERROR(disk_->WritePage(page->page_id(),
                                                page->data()));
    }
    // Reuse the victim's table node for the new mapping.
    entry = page_table_.extract(page->page_id());
  }
  page->page_id_ = kInvalidPageId;
  page->pin_count_ = 0;
  page->dirty_ = false;
  if (read) {
    Status s = disk_->ReadPage(page_id, page->data());
    if (!s.ok()) {
      free_frames_.push_back(frame);
      return s;
    }
  } else {
    std::memset(page->data(), 0, kPageSize);
  }
  page->page_id_ = page_id;
  page->pin_count_ = 1;
  if (entry.empty()) {
    page_table_.emplace(page_id, frame);
  } else {
    entry.key() = page_id;
    entry.mapped() = frame;
    page_table_.insert(std::move(entry));
  }
  LruPushBack(frame);
  return page;
}

Result<Page*> BufferPool::FetchPage(PageId page_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = page_table_.find(page_id);
  if (it != page_table_.end()) {
    m_hits_->Add();
    size_t frame = it->second;
    Page* page = frames_[frame].get();
    page->pin_count_++;
    LruUnlink(frame);
    LruPushBack(frame);
    return page;
  }
  m_misses_->Add();
  return InstallPage(page_id, /*read=*/true);
}

Result<Page*> BufferPool::AllocatePage() {
  std::lock_guard<std::mutex> lock(mutex_);
  SENTINEL_ASSIGN_OR_RETURN(PageId page_id, disk_->AllocatePage());
  return InstallPage(page_id, /*read=*/false);
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
