// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// RecordLog: the one append-only file of framed records under the WAL and
// the history segments (DESIGN.md §12.3).
//
//   [header] [record]*   record := [u32 body_len][u32 crc32c(body)][body]
//
// Writer: Append frames a record once, into a log-owned buffer, under
// `mu_`. Flush swaps in a second buffer and pwrites the full one under
// `io_mu_` alone, so appends keep landing while a flush is in flight.
//
// Readers: TakeSnapshot flushes, then takes (fd handle, base, end) under
// `io_mu_`, where no write is in flight, so every byte below `end` is whole
// and never changes. A Reader then preads outside every lock and yields
// CRC-checked bodies, and says why it stopped. The fd handle is shared: a
// Rewrite (rename) or Close cannot pull the file from under a reader in
// flight, which keeps reading the old inode — the same records.
//
// Positions are logical: the first record byte is position `base`, and a
// position names the same record after Rewrite drops a prefix.

#ifndef SENTINEL_COMMON_RECORD_LOG_H_
#define SENTINEL_COMMON_RECORD_LOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/status.h"

namespace sentinel {

class RecordLog {
 public:
  /// Why a Reader stopped; each caller maps it to its own outcome.
  enum class Stop : uint8_t {
    kEnd,          ///< Exactly at the snapshot end.
    kTorn,         ///< A frame claims more bytes than exist: a crash tail.
    kCrcMismatch,  ///< A whole frame whose body fails its CRC.
    kFooter,       ///< A length word of kFooterSentinel.
    kIOError,      ///< pread failed.
  };
  static constexpr uint32_t kFooterSentinel = 0xFFFFFFFFu;
  /// A claimed body length beyond this is a torn tail, not an allocation.
  static constexpr uint32_t kMaxBody = 64u << 20;
  /// Append flushes once this many bytes are buffered.
  static constexpr size_t kBufferBytes = 256 << 10;

  /// An immutable view of a log file: its bytes below end() are whole.
  class Snapshot {
   public:
    uint64_t base() const { return base_; }
    uint64_t end() const { return base_ + (file_end_ - data_offset_); }
    const std::string& path() const { return path_; }
    uint64_t file_size() const { return file_end_; }
    /// Reads exactly `n` bytes at file offset `offset`.
    Status ReadAt(uint64_t offset, size_t n, std::string* out) const;

   private:
    friend class RecordLog;
    std::shared_ptr<const int> fd_;
    std::string path_;
    uint64_t base_ = 0, data_offset_ = 0, file_end_ = 0;
  };

  /// Walks a snapshot's records from a logical position. A body is a view
  /// into the reader's buffer, valid until the next call to Next.
  class Reader {
   public:
    Reader(Snapshot snap, uint64_t from);
    bool Next(std::string_view* body);
    /// Why the last Next returned false.
    Stop stop() const { return stop_; }
    /// Logical position just past the last record Next returned.
    uint64_t pos() const { return snap_.base_ + off_ - snap_.data_offset_; }

   private:
    /// Makes buf_ hold file bytes [off_, off_ + n) below the snapshot end.
    bool Fill(size_t n);

    Snapshot snap_;
    uint64_t off_;  ///< File offset of the next frame.
    uint64_t buf_off_ = 0;  ///< File offset of buf_[0].
    std::string buf_;
    Stop stop_ = Stop::kEnd;
  };

  /// `append_failpoint` names the failpoint Append checks: an error fails
  /// the append, and a partial count first lets that many bytes of the
  /// framed record reach the file, as a crash mid-write leaves them.
  explicit RecordLog(const char* append_failpoint)
      : append_failpoint_(append_failpoint) {}
  ~RecordLog() { Close(false).ok(); }
  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Opens (creating if absent) `path`, whose records follow a header of
  /// header.size() bytes. An empty file gets `header`; the file's own
  /// header bytes (fewer if it is shorter) come back in `*file_header`.
  Status Open(const std::string& path, std::string_view header,
              std::string* file_header);
  /// A snapshot of a file nobody appends to (a sealed segment).
  static Result<Snapshot> OpenSnapshot(const std::string& path);

  /// The recovery walk, once after Open: numbers the first record `base`,
  /// hands each CRC-checked record and its position to `visit` (an error
  /// ends the walk, file untouched), then cuts a torn tail or footer
  /// sentinel — and a CRC mismatch if `cut_crc_mismatch` — so appends
  /// resume right after the last whole record.
  Status Recover(
      uint64_t base, bool cut_crc_mismatch,
      const std::function<Status(std::string_view, uint64_t)>& visit);

  /// Flushes (unless `drop_pending`: a simulated crash) and closes.
  Status Close(bool drop_pending);
  bool is_open() const;

  /// Buffers one record whose body is `head` + `tail`.
  Status Append(std::string_view head, std::string_view tail = {});
  /// Buffers bytes as they are (a segment footer).
  Status AppendRaw(std::string_view bytes);
  static std::string Frame(std::string_view head, std::string_view tail = {});

  Status Flush();
  /// Flush + fdatasync; the fsync runs outside both locks.
  Status Sync();
  Result<Snapshot> TakeSnapshot();

  uint64_t base() const;
  /// Logical position past the last appended (maybe buffered) byte.
  uint64_t end() const;

  /// Atomically replaces the file by `header` plus the records from `from`
  /// on, which becomes the base: writes `<path>.tmp` durably, checks
  /// `failpoint`, renames it in. A no-op below the base, InvalidArgument
  /// past the end. `*dropped` = the record bytes dropped.
  Status Rewrite(uint64_t from, std::string_view header,
                 const char* failpoint, uint64_t* dropped);

 private:
  Status FlushLocked();                     // Caller holds io_mu_.
  Result<Snapshot> SnapshotLocked() const;  // Caller holds io_mu_.

  const char* const append_failpoint_;

  /// Flushes, snapshots, fd swaps. Lock order: io_mu_, then mu_.
  mutable std::mutex io_mu_;
  std::string flushing_;  ///< The buffer being written; io_mu_.
  uint64_t flushed_ = 0;  ///< File offset of the next flush; io_mu_.

  mutable std::mutex mu_;  ///< Appends.
  std::string pending_;    ///< Framed, not yet written; mu_.
  uint64_t end_ = 0;       ///< File offset past pending_; mu_.
  bool failed_ = false;    ///< A write failed; reopen required. mu_.
  // Written under both locks, read under either.
  std::shared_ptr<const int> fd_;
  std::string path_;
  uint64_t base_ = 0, data_offset_ = 0;
};

}  // namespace sentinel

#endif  // SENTINEL_COMMON_RECORD_LOG_H_
