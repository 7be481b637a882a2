// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Write-ahead log with redo-only recovery.
//
// Sentinel's object store applies a transaction's writes to the heap only
// after the commit record is durable (a no-steal policy), so recovery never
// needs undo: it replays the operations of committed transactions in log
// order and ignores everything else.
//
// On-disk format (version 2), one RecordLog (common/record_log.h):
//
//   [header: "SWAL" | u32 version | u64 base_lsn | u32 crc | u32 pad]
//   [record]*   record = [u32 body_len][u32 crc32c(body)][body]
//               body   = u8 type | u64 txn | u64 oid | u32 len | payload
//
// `base_lsn` is the logical offset of the first record byte: LSNs are
// logical log offsets that stay monotone across truncations, so a stable
// LSN captured before a checkpoint still names the same boundary after the
// prefix behind it is dropped. Open refuses, with Corruption and without
// touching the file, any non-empty file that lacks a valid version-2
// header; otherwise it cuts a torn tail, so appends resume right after the
// last whole record. A fully present record that fails its CRC (or does
// not decode) is Corruption for every reader, never replayed or skipped.
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
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/record_log.h"
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

/// One WAL record body viewed in place. Its `bytes` are exactly how a
/// kReplBatch reply carries a WAL entry, so log shipping copies them as is.
struct WalRecordView {
  WalRecordType type = WalRecordType::kBegin;
  TxnId txn = 0;
  uint64_t oid = 0;
  std::string_view payload;
  std::string_view bytes;  ///< type through the end of the payload.

  /// False when `body` is too short for the fields it claims.
  bool Parse(std::string_view body);
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
  /// version-2 header; an existing file must already carry one. A torn
  /// tail is cut here.
  Status Open(const std::string& path);
  Status Close();

  /// Appends one record (buffered; see Sync). The record is framed once:
  /// its fixed fields go out from the stack and `payload` is copied only
  /// into the log's buffer. Failpoint "wal.append" (a partial count tears
  /// the record).
  Status Append(WalRecordType type, TxnId txn, uint64_t oid,
                std::string_view payload = {});

  /// Forces the log to disk (write + fdatasync). Called before acking a
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

  /// Log-shipping read: hands up to `max_records` records starting at
  /// logical LSN `from_lsn` to `visit` (views valid during the call) and
  /// sets `*next_lsn` to the LSN one past the last one it took. `visit`
  /// returning false stops the read before that record. `from_lsn` must be
  /// a record boundary previously handed out by CurrentLsn()/ReadFrom.
  /// OutOfRange when a checkpoint already truncated `from_lsn` away — the
  /// caller (a replication follower) must fall back to a snapshot. Every
  /// record appended before the call is visible; the file is read outside
  /// the lock appends take, so a reader never stalls a commit.
  Status ReadFrom(uint64_t from_lsn, size_t max_records,
                  const std::function<bool(const WalRecordView&)>& visit,
                  uint64_t* next_lsn);
  /// ReadFrom, decoded into owned records.
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
  /// Shared tail of TruncateTo/Reset.
  Status Truncate(uint64_t stable_lsn);

  RecordLog log_{"wal.append"};
  std::atomic<bool> sync_failed_{false};
  Histogram* const m_sync_ns_;
  Counter* const m_truncated_bytes_;
};

}  // namespace sentinel

#endif  // SENTINEL_TXN_WAL_H_
