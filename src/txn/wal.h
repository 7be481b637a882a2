// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Write-ahead log with redo-only recovery.
//
// Sentinel's object store applies a transaction's writes to the heap only
// after the commit record is durable (a no-steal policy), so recovery never
// needs undo: it replays the operations of committed transactions in log
// order and ignores everything else.
//
// On-disk format (version 2):
//
//   [header: "SWAL" | u32 version | u64 base_lsn | u32 crc | u32 pad]
//   [record]*   record = [u32 body_len][u32 crc32c(body)][body]
//
// `base_lsn` is the logical offset of the first record byte: LSNs are
// logical log offsets that stay monotone across truncations, so a stable
// LSN captured before a checkpoint still names the same boundary after the
// prefix behind it is dropped. A torn tail is detected by the length check
// and truncated; a corrupted *middle* record fails its CRC and surfaces as
// Corruption instead of silently replaying garbage. Open refuses, with
// Corruption and without touching the file, any non-empty file that lacks
// a valid version-2 header.
//
// Sync failures are sticky: after the first failed flush the log refuses
// every further Sync with IOError. A failed fsync means the kernel may have
// dropped dirty pages without telling us which — retrying would ack commits
// whose bytes silently never hit the platter. The only safe continuation is
// a reopen, which re-reads what the disk actually holds.

#ifndef SENTINEL_TXN_WAL_H_
#define SENTINEL_TXN_WAL_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "txn/lock_manager.h"

namespace sentinel {

/// Kind of one WAL record.
enum class WalRecordType : uint8_t {
  kBegin = 1,
  kCommit = 2,
  kAbort = 3,
  kPut = 4,      ///< Create-or-update object: payload = serialized object.
  kDelete = 5,   ///< Delete object.
  kCheckpoint = 6,  ///< payload = u64 stable LSN the heap is current to.
};

/// One decoded WAL record.
struct WalRecord {
  WalRecordType type = WalRecordType::kBegin;
  TxnId txn = 0;
  uint64_t oid = 0;       ///< For kPut/kDelete.
  std::string payload;    ///< For kPut: serialized object bytes.
};

/// Append-only log file plus replay support.
class WalManager {
 public:
  /// Records every Sync's latency into txn.wal_sync_ns (its count is the
  /// physical sync count) and truncated bytes into
  /// storage.wal_truncated_bytes, over all sync paths (user commits, system
  /// mini-txns, abort records).
  explicit WalManager(MetricsRegistry& metrics)
      : m_sync_ns_(metrics.histogram("txn.wal_sync_ns")),
        m_truncated_bytes_(metrics.counter("storage.wal_truncated_bytes")) {}
  ~WalManager();

  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  /// Opens (creating if absent) the log at `path`. A fresh log gets a
  /// version-2 header; an existing file must already carry one.
  Status Open(const std::string& path);
  Status Close();

  /// Appends one record (buffered; see Sync). The record is framed once:
  /// its fixed fields go out from the stack and `payload` is copied only
  /// into the log's stdio buffer.
  Status Append(WalRecordType type, TxnId txn, uint64_t oid,
                std::string_view payload = {});

  /// Forces the log to disk (fflush + fdatasync). Called before acking a
  /// commit — normally through GroupCommitSync, which batches concurrent
  /// callers into one physical sync. Failures are sticky (see above).
  Status Sync();

  /// True once a Sync has failed; every further Sync refuses with IOError
  /// and the commit path refuses new transactions up front.
  bool sync_failed() const {
    return sync_failed_.load(std::memory_order_acquire);
  }

  /// Reads every well-formed record from the start of the log. A torn tail
  /// stops the scan without error (crash semantics); a record that is fully
  /// present but fails its CRC returns Corruption.
  Status ReadAll(std::vector<WalRecord>* out);

  /// Log-shipping read: decodes up to `max_records` records starting at
  /// logical LSN `from_lsn` and sets `*next_lsn` to the LSN one past the
  /// last record returned (pass it back to continue). `from_lsn` must be a
  /// record boundary previously handed out by CurrentLsn()/ReadFrom.
  /// OutOfRange when a checkpoint already truncated `from_lsn` away — the
  /// caller (a replication follower) must fall back to a snapshot. Only
  /// records already flushed at call time are visible; a torn tail stops
  /// the scan cleanly, exactly like ReadAll.
  Status ReadFrom(uint64_t from_lsn, size_t max_records,
                  std::vector<WalRecord>* out, uint64_t* next_lsn);

  /// The LSN of the oldest byte still in the log (advances on truncation).
  Result<uint64_t> BaseLsn();

  /// The LSN one past the last appended record (logical log offset;
  /// monotone across truncations). Everything below this is in the log —
  /// though not necessarily synced yet.
  Result<uint64_t> CurrentLsn();

  /// Drops every record below `stable_lsn` (the fuzzy-checkpoint contract:
  /// the heap must already durably contain their effects). Implemented as
  /// copy-suffix + atomic rename, so a crash mid-truncate leaves either the
  /// whole old log or the correctly truncated one. Failpoints:
  /// "wal.truncate" (entry), "wal.truncate.rename" (tmp written, not yet
  /// swapped).
  Status TruncateTo(uint64_t stable_lsn);

  /// Truncates the whole log (after recovery has made the heap current).
  /// Equivalent to TruncateTo(CurrentLsn()).
  Status Reset();

  /// Record bytes currently in the log file, excluding the header (for
  /// checkpoint thresholds, tests, and benches).
  Result<uint64_t> SizeBytes();

 private:
  /// Writes a fresh v2 header to `f` (positioned at 0). Caller holds mutex_.
  Status WriteHeader(std::FILE* f, uint64_t base_lsn);
  /// Validates file_'s header and loads base_lsn_. Caller holds mutex_.
  Status ReadHeader();
  /// The one record-decode loop behind ReadAll and ReadFrom. Caller holds
  /// mutex_ with file_ open.
  Status ReadFromLocked(uint64_t from_lsn, size_t max_records,
                        std::vector<WalRecord>* out, uint64_t* next_lsn);

  /// Shared tail of TruncateTo/Reset. Caller holds mutex_.
  Status TruncateToLocked(uint64_t stable_lsn);

  /// fopens `path_` for update as file_, with the manager's own stdio
  /// buffer, positioned at the end. Caller holds mutex_.
  Status OpenFileLocked();

  /// The log's stdio buffer. A 500-put commit frames ~185 KB, which the
  /// default 4 KiB buffer would hand to the kernel in ~45 write(2) calls.
  static constexpr size_t kStdioBufferBytes = 256 << 10;

  std::mutex mutex_;
  std::FILE* file_ = nullptr;
  std::unique_ptr<char[]> stdio_buffer_;
  std::string path_;
  uint64_t base_lsn_ = 0;        ///< LSN of the first byte after the header.
  std::atomic<bool> sync_failed_{false};
  Histogram* const m_sync_ns_;
  Counter* const m_truncated_bytes_;
};

}  // namespace sentinel

#endif  // SENTINEL_TXN_WAL_H_
