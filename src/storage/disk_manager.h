// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// File-backed page store. One DiskManager owns one database file; pages are
// read and written whole, each with one pread/pwrite on a raw descriptor
// (no stdio buffer sits between a page write and the kernel). Thread safe
// (a single mutex serializes I/O, which is adequate at Sentinel's scale).
//
// Allocation is lazy: AllocatePage only hands out the next page id, and the
// page reaches the file at its first write. A read of an allocated page that
// lies past the end of the file returns zeros, exactly what an eagerly
// zero-filled page would have held. A page allocated but never written
// before a close is not in the file, so a reopen counts only pages that
// reached it; one left as a hole below a written page reads as zeros.

#ifndef SENTINEL_STORAGE_DISK_MANAGER_H_
#define SENTINEL_STORAGE_DISK_MANAGER_H_

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

  /// Closes the file. Idempotent. Page writes are never buffered here, so
  /// there is nothing to flush (durability is Sync's job).
  Status Close();

  bool is_open() const { return fd_ >= 0; }

  /// Reserves the next page id. The file grows when the page is written.
  Result<PageId> AllocatePage();

  /// Reads page `page_id` into `out` (exactly kPageSize bytes). Bytes past
  /// the end of the file read as zeros.
  Status ReadPage(PageId page_id, char* out);

  /// Writes kPageSize bytes from `data` to page `page_id`.
  Status WritePage(PageId page_id, const char* data);

  /// Makes every page written so far durable: fdatasyncs the file when
  /// anything was written since the last successful sync. Checkpoints and
  /// recovery call it before cutting the WAL, which is then the only other
  /// copy of those pages. After one failed fdatasync every later Sync fails
  /// until the file is reopened.
  Status Sync();

  /// Number of pages allocated: those in the file plus those handed out
  /// since open that have not been written yet.
  uint32_t page_count() const;

 private:
  mutable std::mutex mutex_;
  int fd_ = -1;
  uint32_t page_count_ = 0;
  bool unsynced_ = false;  ///< Written since the last fdatasync.
  bool sync_failed_ = false;  ///< An fdatasync failed (sticky).
  Counter* const m_heap_syncs_;
};

}  // namespace sentinel

#endif  // SENTINEL_STORAGE_DISK_MANAGER_H_
