// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// File-backed page store. One DiskManager owns one database file; pages are
// read and written whole. Thread safe (a single mutex serializes I/O, which
// is adequate at Sentinel's scale).

#ifndef SENTINEL_STORAGE_DISK_MANAGER_H_
#define SENTINEL_STORAGE_DISK_MANAGER_H_

#include <cstdio>
#include <mutex>
#include <string>

#include "common/metrics.h"
#include "common/status.h"
#include "storage/page.h"

namespace sentinel {

/// Allocates, reads, and writes fixed-size pages in a single file.
class DiskManager {
 public:
  /// Counts every completed fdatasync into storage.heap_syncs.
  explicit DiskManager(MetricsRegistry& metrics)
      : m_heap_syncs_(metrics.counter("storage.heap_syncs")) {}
  ~DiskManager();

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Opens (creating if absent) the database file at `path`.
  Status Open(const std::string& path);

  /// Flushes and closes the file. Idempotent.
  Status Close();

  bool is_open() const { return file_ != nullptr; }

  /// Appends a zeroed page to the file and returns its id.
  Result<PageId> AllocatePage();

  /// Reads page `page_id` into `out` (exactly kPageSize bytes).
  Status ReadPage(PageId page_id, char* out);

  /// Writes kPageSize bytes from `data` to page `page_id`.
  Status WritePage(PageId page_id, const char* data);

  /// Makes every page written so far durable: flushes the stdio buffer,
  /// then fdatasyncs the file when anything was written since the last
  /// successful sync. Checkpoints and recovery call it before cutting the
  /// WAL, which is then the only other copy of those pages. After one
  /// failed fdatasync every later Sync fails until the file is reopened.
  Status Sync();

  /// Number of pages currently allocated in the file.
  uint32_t page_count() const;

 private:
  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;
  std::string path_;
  uint32_t page_count_ = 0;
  bool unsynced_ = false;  ///< Written since the last fdatasync.
  bool sync_failed_ = false;  ///< An fdatasync failed (sticky).
  Counter* const m_heap_syncs_;
};

}  // namespace sentinel

#endif  // SENTINEL_STORAGE_DISK_MANAGER_H_
