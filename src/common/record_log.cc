// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "common/record_log.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/logging.h"

namespace sentinel {

namespace {

constexpr size_t kReadChunk = 64 << 10;  ///< A reader's smallest pread.

Status Errno(const std::string& what, const std::string& path) {
  return Status::IOError(what + " " + path + ": " + std::strerror(errno));
}

/// Opens `path`; the fd closes with the last holder of the handle.
Result<std::shared_ptr<const int>> OpenFd(const std::string& path,
                                          int flags) {
  int fd = ::open(path.c_str(), flags | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("cannot open", path);
  return std::shared_ptr<const int>(new int(fd), [](const int* p) {
    ::close(*p);
    delete p;
  });
}

uint64_t FileSize(int fd) {
  struct stat st;
  return ::fstat(fd, &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

Status WriteAll(int fd, std::string_view bytes, uint64_t offset) {
  while (!bytes.empty()) {
    ssize_t n = ::pwrite(fd, bytes.data(), bytes.size(),
                         static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::IOError(std::strerror(errno));
    bytes.remove_prefix(static_cast<size_t>(n));
    offset += static_cast<uint64_t>(n);
  }
  return Status::OK();
}

/// Reads up to `n` bytes at `offset` (short only at end of file); -1 on an
/// IO error.
ssize_t ReadFully(int fd, char* dst, size_t n, uint64_t offset) {
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::pread(fd, dst + got, n - got,
                        static_cast<off_t>(offset + got));
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) return -1;
    if (r == 0) break;
    got += static_cast<size_t>(r);
  }
  return static_cast<ssize_t>(got);
}

void PutFrameHead(char* out, std::string_view head, std::string_view tail) {
  const auto len = static_cast<uint32_t>(head.size() + tail.size());
  const uint32_t crc = ExtendCrc32c(Crc32c(head.data(), head.size()),
                                    tail.data(), tail.size());
  std::memcpy(out, &len, 4);
  std::memcpy(out + 4, &crc, 4);
}

}  // namespace

Status RecordLog::Snapshot::ReadAt(uint64_t offset, size_t n,
                                   std::string* out) const {
  out->resize(n);
  if (ReadFully(*fd_, out->data(), n, offset) != static_cast<ssize_t>(n)) {
    return Status::IOError("short read of " + path_);
  }
  return Status::OK();
}

RecordLog::Reader::Reader(Snapshot snap, uint64_t from)
    : snap_(std::move(snap)),
      off_(snap_.data_offset_ + (from - snap_.base_)),
      buf_off_(off_) {}

bool RecordLog::Reader::Fill(size_t n) {
  if (snap_.file_end_ < off_ || snap_.file_end_ - off_ < n) return false;
  if (off_ + n <= buf_off_ + buf_.size()) return true;
  buf_.resize(static_cast<size_t>(
      std::min<uint64_t>(std::max(n, kReadChunk), snap_.file_end_ - off_)));
  const ssize_t got = ReadFully(*snap_.fd_, buf_.data(), buf_.size(), off_);
  if (got < 0) stop_ = Stop::kIOError;
  buf_.resize(got < 0 ? 0 : static_cast<size_t>(got));
  buf_off_ = off_;
  return buf_.size() >= n;
}

bool RecordLog::Reader::Next(std::string_view* body) {
  stop_ = off_ == snap_.file_end_ ? Stop::kEnd : Stop::kTorn;
  if (!Fill(8)) return false;
  uint32_t len = 0, crc = 0;
  std::memcpy(&len, buf_.data() + (off_ - buf_off_), 4);
  std::memcpy(&crc, buf_.data() + (off_ - buf_off_) + 4, 4);
  if (len == kFooterSentinel) {
    stop_ = Stop::kFooter;
    return false;
  }
  if (len > kMaxBody || !Fill(8 + static_cast<size_t>(len))) return false;
  const char* p = buf_.data() + (off_ - buf_off_) + 8;
  if (Crc32c(p, len) != crc) {
    stop_ = Stop::kCrcMismatch;
    return false;
  }
  *body = std::string_view(p, len);
  off_ += 8 + len;
  return true;
}

Result<RecordLog::Snapshot> RecordLog::OpenSnapshot(const std::string& path) {
  Snapshot snap;
  SENTINEL_ASSIGN_OR_RETURN(snap.fd_, OpenFd(path, O_RDONLY));
  snap.path_ = path;
  snap.file_end_ = FileSize(*snap.fd_);
  return snap;
}

Result<RecordLog::Snapshot> RecordLog::SnapshotLocked() const {
  if (fd_ == nullptr) return Status::FailedPrecondition("log not open");
  Snapshot snap;
  snap.fd_ = fd_;
  snap.path_ = path_;
  snap.base_ = base_;
  snap.data_offset_ = data_offset_;
  // The file size rather than flushed_: they agree unless something else
  // wrote the file, and then readers should see what is really there.
  snap.file_end_ = FileSize(*fd_);
  return snap;
}

Result<RecordLog::Snapshot> RecordLog::TakeSnapshot() {
  std::lock_guard<std::mutex> io(io_mu_);
  SENTINEL_RETURN_IF_ERROR(FlushLocked());
  return SnapshotLocked();
}

Status RecordLog::Open(const std::string& path, std::string_view header,
                       std::string* file_header) {
  std::lock_guard<std::mutex> io(io_mu_);
  if (fd_ != nullptr) return Status::FailedPrecondition("log already open");
  SENTINEL_ASSIGN_OR_RETURN(std::shared_ptr<const int> fd,
                            OpenFd(path, O_RDWR | O_CREAT));
  uint64_t size = FileSize(*fd);
  if (size == 0 && !header.empty()) {
    SENTINEL_RETURN_IF_ERROR(WriteAll(*fd, header, 0));
    size = header.size();
  }
  file_header->resize(std::min<size_t>(size, header.size()));
  if (ReadFully(*fd, file_header->data(), file_header->size(), 0) !=
      static_cast<ssize_t>(file_header->size())) {
    return Errno("cannot read the header of", path);
  }
  std::lock_guard<std::mutex> lock(mu_);
  fd_ = std::move(fd);
  path_ = path;
  data_offset_ = header.size();
  base_ = 0;
  flushed_ = end_ = size;
  failed_ = false;
  return Status::OK();
}

Status RecordLog::Recover(
    uint64_t base, bool cut_crc_mismatch,
    const std::function<Status(std::string_view, uint64_t)>& visit) {
  std::lock_guard<std::mutex> io(io_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    base_ = base;
  }
  SENTINEL_ASSIGN_OR_RETURN(Snapshot snap, SnapshotLocked());
  const uint64_t file_size = snap.file_size();
  Reader reader(std::move(snap), base);
  std::string_view body;
  for (uint64_t at = base; reader.Next(&body); at = reader.pos()) {
    if (visit) SENTINEL_RETURN_IF_ERROR(visit(body, at));
  }
  const Stop stop = reader.stop();
  if (stop == Stop::kIOError) return Status::IOError("cannot read " + path_);
  if (stop == Stop::kEnd || (stop == Stop::kCrcMismatch && !cut_crc_mismatch)) {
    return Status::OK();
  }
  const uint64_t valid = data_offset_ + (reader.pos() - base);
  SENTINEL_WARN << "event=record_log_tail_truncated path=" << path_
                << " valid_bytes=" << valid << " file_bytes=" << file_size;
  if (::ftruncate(*fd_, static_cast<off_t>(valid)) != 0) {
    return Errno("cannot truncate", path_);
  }
  std::lock_guard<std::mutex> lock(mu_);
  flushed_ = end_ = valid;
  return Status::OK();
}

Status RecordLog::Close(bool drop_pending) {
  std::lock_guard<std::mutex> io(io_mu_);
  if (fd_ == nullptr) return Status::OK();
  Status s = drop_pending ? Status::OK() : FlushLocked();
  std::lock_guard<std::mutex> lock(mu_);
  pending_.clear();
  fd_.reset();
  return s;
}

bool RecordLog::is_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fd_ != nullptr;
}

uint64_t RecordLog::base() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_;
}

uint64_t RecordLog::end() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_ + (end_ - data_offset_);
}

std::string RecordLog::Frame(std::string_view head, std::string_view tail) {
  std::string framed(8, '\0');
  PutFrameHead(framed.data(), head, tail);
  return framed.append(head).append(tail);
}

Status RecordLog::Append(std::string_view head, std::string_view tail) {
  if (FailPoints::AnyActive()) {
    size_t partial = 0;
    Status fp = FailPoints::Instance().Check(append_failpoint_, &partial);
    if (!fp.ok()) {
      if (partial > 0 &&
          AppendRaw(std::string_view(Frame(head, tail)).substr(0, partial))
              .ok()) {
        Flush().ok();
      }
      return fp;
    }
  }
  char frame[8];
  PutFrameHead(frame, head, tail);  // The CRC runs outside the lock.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ == nullptr) return Status::FailedPrecondition("log not open");
    if (failed_) return Status::IOError("log write previously failed");
    pending_.append(frame, 8).append(head).append(tail);
    end_ += 8 + head.size() + tail.size();
    if (pending_.size() < kBufferBytes) return Status::OK();
  }
  return Flush();
}

Status RecordLog::AppendRaw(std::string_view bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ == nullptr) return Status::FailedPrecondition("log not open");
  pending_.append(bytes);
  end_ += bytes.size();
  return Status::OK();
}

Status RecordLog::FlushLocked() {
  uint64_t at = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ == nullptr) return Status::FailedPrecondition("log not open");
    if (failed_) return Status::IOError("log write previously failed");
    flushing_.swap(pending_);
    at = flushed_;
  }
  Status s = WriteAll(*fd_, flushing_, at);
  flushed_ = at + flushing_.size();
  flushing_.clear();
  if (flushing_.capacity() > 2 * kBufferBytes) flushing_.shrink_to_fit();
  if (!s.ok()) {
    // The bytes are lost, and every offset behind them would lie.
    std::lock_guard<std::mutex> lock(mu_);
    failed_ = true;
    return Status::IOError("write to " + path_ + " failed: " + s.message());
  }
  return Status::OK();
}

Status RecordLog::Flush() {
  std::lock_guard<std::mutex> io(io_mu_);
  return FlushLocked();
}

Status RecordLog::Sync() {
  Result<Snapshot> snap = TakeSnapshot();  // Keeps the fd open.
  SENTINEL_RETURN_IF_ERROR(snap.status());
  if (::fdatasync(*snap->fd_) != 0) {
    return Errno("cannot fsync", snap->path());
  }
  return Status::OK();
}

Status RecordLog::Rewrite(uint64_t from, std::string_view header,
                          const char* failpoint, uint64_t* dropped) {
  *dropped = 0;
  std::lock_guard<std::mutex> io(io_mu_);
  SENTINEL_RETURN_IF_ERROR(FlushLocked());
  if (from < base_) return Status::OK();  // Already dropped.
  const uint64_t from_off = data_offset_ + (from - base_);
  if (from_off > flushed_) {
    return Status::InvalidArgument("rewrite beyond log end");
  }
  // Write header + surviving suffix to a sibling, durably, then rename it
  // in: a crash at any point leaves the whole old file or the new one.
  std::string suffix(static_cast<size_t>(flushed_ - from_off), '\0');
  if (ReadFully(*fd_, suffix.data(), suffix.size(), from_off) !=
      static_cast<ssize_t>(suffix.size())) {
    return Errno("cannot read the suffix of", path_);
  }
  const std::string tmp_path = path_ + ".tmp";
  SENTINEL_ASSIGN_OR_RETURN(std::shared_ptr<const int> tmp,
                            OpenFd(tmp_path, O_RDWR | O_CREAT | O_TRUNC));
  Status s = WriteAll(*tmp, std::string(header) + suffix, 0);
  if (s.ok() && ::fdatasync(*tmp) != 0) s = Errno("cannot fsync", tmp_path);
  if (s.ok() && FailPoints::AnyActive()) {
    s = FailPoints::Instance().Check(failpoint);
  }
  if (s.ok() && std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    s = Errno("cannot rename over", path_);
  }
  if (!s.ok()) {
    std::remove(tmp_path.c_str());  // The old file is intact.
    return s;
  }
  // Make the rename itself durable.
  if (Result<std::shared_ptr<const int>> dir = OpenFd(
          path_.substr(0, path_.find_last_of('/') + 1) + ".", O_RDONLY);
      dir.ok()) {
    ::fsync(**dir);
  }
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t shift = from_off - header.size();
  fd_ = std::move(tmp);
  flushed_ -= shift;
  end_ -= shift;
  *dropped = from - base_;
  base_ = from;
  data_offset_ = header.size();
  return Status::OK();
}

}  // namespace sentinel
