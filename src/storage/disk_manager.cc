// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "storage/disk_manager.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/failpoint.h"

namespace sentinel {

DiskManager::~DiskManager() { Close().ok(); }

Status DiskManager::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    return Status::FailedPrecondition("disk manager already open");
  }
  // "a+" creates the file when missing, then reopen in r+b for random access.
  std::FILE* probe = std::fopen(path.c_str(), "ab");
  if (probe == nullptr) {
    return Status::IOError("cannot create " + path + ": " +
                           std::strerror(errno));
  }
  std::fclose(probe);
  file_ = std::fopen(path.c_str(), "r+b");
  if (file_ == nullptr) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  path_ = path;
  if (std::fseek(file_, 0, SEEK_END) != 0) {
    return Status::IOError("seek failed on " + path);
  }
  long size = std::ftell(file_);
  if (size < 0) return Status::IOError("ftell failed on " + path);
  if (size % static_cast<long>(kPageSize) != 0) {
    return Status::Corruption(path + " size is not page-aligned");
  }
  page_count_ = static_cast<uint32_t>(size / kPageSize);
  // Pages an earlier process wrote may still sit unsynced in the page
  // cache, so a non-empty file counts as written until its first sync.
  unsynced_ = size > 0;
  sync_failed_ = false;
  return Status::OK();
}

Status DiskManager::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return Status::OK();
  if (FailPoints::AnyActive() && FailPoints::Instance().crashed()) {
    // Simulated crash: the process never got to flush. Closing the
    // underlying descriptor first makes fclose's implicit flush fail, so
    // buffered-but-unsynced page writes are genuinely lost.
    ::close(fileno(file_));
    std::fclose(file_);
    file_ = nullptr;
    return Status::OK();
  }
  std::fflush(file_);
  std::fclose(file_);
  file_ = nullptr;
  return Status::OK();
}

Result<PageId> DiskManager::AllocatePage() {
  SENTINEL_FAILPOINT("disk.allocate_page");
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return Status::FailedPrecondition("not open");
  PageId id = page_count_;
  char zeros[kPageSize] = {};
  if (std::fseek(file_, static_cast<long>(id) * kPageSize, SEEK_SET) != 0 ||
      std::fwrite(zeros, 1, kPageSize, file_) != kPageSize) {
    return Status::IOError("allocate page " + std::to_string(id) + " failed");
  }
  ++page_count_;
  unsynced_ = true;
  return id;
}

Status DiskManager::ReadPage(PageId page_id, char* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return Status::FailedPrecondition("not open");
  if (page_id >= page_count_) {
    return Status::InvalidArgument("read of unallocated page " +
                                   std::to_string(page_id));
  }
  if (std::fseek(file_, static_cast<long>(page_id) * kPageSize, SEEK_SET) !=
          0 ||
      std::fread(out, 1, kPageSize, file_) != kPageSize) {
    return Status::IOError("read page " + std::to_string(page_id) +
                           " failed");
  }
  return Status::OK();
}

Status DiskManager::WritePage(PageId page_id, const char* data) {
  SENTINEL_FAILPOINT("disk.write_page");
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return Status::FailedPrecondition("not open");
  if (page_id >= page_count_) {
    return Status::InvalidArgument("write of unallocated page " +
                                   std::to_string(page_id));
  }
  if (std::fseek(file_, static_cast<long>(page_id) * kPageSize, SEEK_SET) !=
          0 ||
      std::fwrite(data, 1, kPageSize, file_) != kPageSize) {
    return Status::IOError("write page " + std::to_string(page_id) +
                           " failed");
  }
  unsynced_ = true;
  return Status::OK();
}

Status DiskManager::Sync() {
  SENTINEL_FAILPOINT("disk.sync");
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return Status::FailedPrecondition("not open");
  if (std::fflush(file_) != 0) return Status::IOError("fflush failed");
  if (sync_failed_) {
    return Status::IOError("heap sync previously failed; reopen required");
  }
  if (!unsynced_) return Status::OK();  // Nothing written since last sync.
  if (::fdatasync(fileno(file_)) != 0) {
    // Sticky, like the WAL's: the kernel may have dropped the dirty pages
    // it failed to write, so a later "successful" sync would prove nothing
    // and must not let a checkpoint cut the WAL.
    sync_failed_ = true;
    return Status::IOError("heap fdatasync failed: " +
                           std::string(std::strerror(errno)));
  }
  unsynced_ = false;
  m_heap_syncs_->Add();
  return Status::OK();
}

uint32_t DiskManager::page_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return page_count_;
}

}  // namespace sentinel
