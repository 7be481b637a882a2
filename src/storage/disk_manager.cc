// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "storage/disk_manager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/failpoint.h"

namespace sentinel {

namespace {

off_t PageOffset(PageId page_id) {
  return static_cast<off_t>(page_id) * static_cast<off_t>(kPageSize);
}

}  // namespace

DiskManager::~DiskManager() { Close().ok(); }

Status DiskManager::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    return Status::FailedPrecondition("disk manager already open");
  }
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("stat failed on " + path);
  }
  if (st.st_size % static_cast<off_t>(kPageSize) != 0) {
    ::close(fd);
    return Status::Corruption(path + " size is not page-aligned");
  }
  fd_ = fd;
  page_count_ = static_cast<uint32_t>(st.st_size / kPageSize);
  // Pages an earlier process wrote may still sit unsynced in the page
  // cache, so a non-empty file counts as written until its first sync.
  unsynced_ = st.st_size > 0;
  sync_failed_ = false;
  return Status::OK();
}

Status DiskManager::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return Status::OK();
  ::close(fd_);
  fd_ = -1;
  return Status::OK();
}

Result<PageId> DiskManager::AllocatePage() {
  SENTINEL_FAILPOINT("disk.allocate_page");
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return Status::FailedPrecondition("not open");
  return page_count_++;
}

Status DiskManager::ReadPage(PageId page_id, char* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return Status::FailedPrecondition("not open");
  if (page_id >= page_count_) {
    return Status::InvalidArgument("read of unallocated page " +
                                   std::to_string(page_id));
  }
  size_t done = 0;
  while (done < kPageSize) {
    ssize_t n = ::pread(fd_, out + done, kPageSize - done,
                        PageOffset(page_id) + static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return Status::IOError("read page " + std::to_string(page_id) +
                             " failed: " + std::strerror(errno));
    }
    if (n == 0) {
      // Allocated but not yet written: past the end of the file.
      std::memset(out + done, 0, kPageSize - done);
      break;
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status DiskManager::WritePage(PageId page_id, const char* data) {
  SENTINEL_FAILPOINT("disk.write_page");
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return Status::FailedPrecondition("not open");
  if (page_id >= page_count_) {
    return Status::InvalidArgument("write of unallocated page " +
                                   std::to_string(page_id));
  }
  size_t done = 0;
  while (done < kPageSize) {
    ssize_t n = ::pwrite(fd_, data + done, kPageSize - done,
                         PageOffset(page_id) + static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::IOError("write page " + std::to_string(page_id) +
                             " failed: " + std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  unsynced_ = true;
  return Status::OK();
}

Status DiskManager::Sync() {
  SENTINEL_FAILPOINT("disk.sync");
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0) return Status::FailedPrecondition("not open");
  if (sync_failed_) {
    return Status::IOError("heap sync previously failed; reopen required");
  }
  if (!unsynced_) return Status::OK();  // Nothing written since last sync.
  if (::fdatasync(fd_) != 0) {
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
