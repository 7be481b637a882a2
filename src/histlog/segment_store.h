// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// HistorySegmentStore: a log-structured, append-only store for event
// occurrences evicted from the detector's in-memory FIFO log.
//
// The detector's occurrence log is a bounded deque per raise shard; once it
// fills, the oldest occurrences are trimmed — historically, dropped on the
// floor. With history spill enabled, each trimmed occurrence is appended to
// the owning shard's segment store instead, so temporal queries can reach
// arbitrarily far back without unbounded memory.
//
// On-disk layout (one directory per shard, e.g. `<db>/history/shard-3/`):
//
//   seg-<id>.hist            id = monotone segment ordinal
//
//   record   := [u32 body_len][u32 crc32c(body)][body]
//   body     := u64 oid | string class | string method | u8 modifier |
//               ValueList params | i64 micros | u64 seq
//   footer   := [u32 0xFFFFFFFF]                      (record terminator)
//               [u64 record_count][u64 min_seq][u64 max_seq]
//               [i64 min_micros][i64 max_micros]
//               [bloom: 128 bytes]                    (1024-bit oid filter)
//               [u32 crc32c(footer body)]["SHSF"]
//
// A segment is *active* (no footer, append in progress) until it reaches
// segment_bytes, then it is *sealed*: the footer is written and a fresh
// segment starts. Scans prune sealed segments by footer min/max seq and
// micros ranges and by the oid bloom filter before touching any record.
// The footer is pure optimization — an unsealed segment (crash before
// rotation) is scanned record-by-record, with a torn tail trimmed on the
// next open, exactly like the WAL.
//
// The active segment is a RecordLog (common/record_log.h). Each segment
// keeps a sparse ordinal→offset index (every kIndexStride-th record, built
// on append and by the recovery walk), so ScanFrom starts at the cursor
// rather than at byte 0.
//
// Seqs are unique within one database's history: Database::Open and
// Replicator::Start advance the logical clock past MaxSeq() of every store
// they open, so occurrences raised after a restart extend the stored order
// instead of reusing its seqs. A seq is therefore a complete scan cursor
// (HistoryQuery::after_seq).
//
// Thread-safety: all public methods are safe to call concurrently. Append
// takes the store mutex; Scan and ScanFrom hold it only to cut a plan of
// (segment, start offset) parts and read the files outside it, so a reader
// never stalls the raise path's appends.

#ifndef SENTINEL_HISTLOG_SEGMENT_STORE_H_
#define SENTINEL_HISTLOG_SEGMENT_STORE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/record_log.h"
#include "common/status.h"
#include "events/occurrence.h"

namespace sentinel {

/// Predicate for HistoryScan. Default-constructed matches everything.
struct HistoryQuery {
  uint64_t min_seq = 0;  ///< Inclusive logical-clock bounds.
  uint64_t max_seq = std::numeric_limits<uint64_t>::max();
  /// Exclusive resume cursor: only rows with seq > after_seq match — pass
  /// the seq of the last row already delivered (0 = from the start; the
  /// logical clock never issues seq 0).
  uint64_t after_seq = 0;
  int64_t min_micros = std::numeric_limits<int64_t>::min();
  int64_t max_micros = std::numeric_limits<int64_t>::max();
  Oid oid = kInvalidOid;  ///< Filter to one generating object; kInvalidOid
                          ///< matches every object.
  size_t limit = 0;       ///< Stop after this many matches; 0 = unlimited.

  bool Matches(const EventOccurrence& occ) const {
    return occ.timestamp.seq >= min_seq && occ.timestamp.seq > after_seq &&
           occ.timestamp.seq <= max_seq &&
           occ.timestamp.micros >= min_micros &&
           occ.timestamp.micros <= max_micros &&
           (oid == kInvalidOid || occ.oid == oid);
  }
};

/// Append-only segment store for one shard's trimmed occurrences.
class HistorySegmentStore {
 public:
  /// `segment_bytes` is the rotation threshold for record payload bytes in
  /// one segment (the active segment may exceed it by one record). The
  /// store counts into `metrics` under `metric_prefix`: <prefix>.appends,
  /// <prefix>.rotations, and the <prefix>.scan_segments_skipped
  /// footer-pruning counter. Spill stores use "histlog"; the replication
  /// mirror uses "repl.mirror" so the two never share a count.
  HistorySegmentStore(std::string dir, size_t segment_bytes,
                      MetricsRegistry& metrics,
                      const std::string& metric_prefix = "histlog");
  ~HistorySegmentStore();

  HistorySegmentStore(const HistorySegmentStore&) = delete;
  HistorySegmentStore& operator=(const HistorySegmentStore&) = delete;

  /// Creates the directory if needed, inventories existing segments, and
  /// recovers the unsealed tail segment (truncating a torn final record).
  /// A CRC-valid record that does not decode is Corruption: the segment is
  /// left byte-identical and the store stays closed.
  Status Open();

  /// Flushes and closes the active segment without sealing it — the next
  /// Open resumes appending to it. Idempotent. Under an active crash
  /// failpoint, unflushed buffered records are dropped (crash simulation).
  Status Close();

  /// Appends one occurrence; rotates (seals + starts a new segment) when
  /// the active segment is full. Failpoints: `histlog.append` before the
  /// write, `histlog.rotate` before sealing.
  Status Append(const EventOccurrence& occ);

  /// Pushes buffered appends to the OS (no fsync: history is a cache of
  /// already-observed events, a lost suffix is acceptable after a crash).
  Status Flush();

  /// Appends every stored occurrence matching `query` to `out`, oldest
  /// segment first (within a segment, append = logical order); a
  /// `query.limit` caps the rows this call appends, not `out`'s size.
  /// Sealed segments whose footer proves no match are skipped without
  /// reading records. A CRC-valid record that does not decode is
  /// Corruption.
  Status Scan(const HistoryQuery& query,
              std::vector<EventOccurrence>* out) const;

  /// Replication tail read: appends up to `max_rows` records strictly after
  /// the exclusive *ordinal* cursor `after_ordinal` and sets `*next_ordinal`
  /// to the cursor of the last row returned. An ordinal is a record's
  /// 1-based position in this store's total append order — stable across
  /// restarts (it is re-derived from segment record counts, not from the
  /// logical clock), which is what lets a follower resume ship-cursors
  /// after either side restarts. Sealed segments wholly before the cursor
  /// are skipped via their footer record counts without reading records.
  Status ScanFrom(uint64_t after_ordinal, size_t max_rows,
                  std::vector<EventOccurrence>* out,
                  uint64_t* next_ordinal) const;
  /// ScanFrom, handing out the record bodies as stored (what a kReplBatch
  /// reply ships) without decoding them.
  Status ScanFrom(uint64_t after_ordinal, size_t max_rows,
                  std::vector<std::string>* bodies,
                  uint64_t* next_ordinal) const;

  /// Total records currently stored: sealed-footer counts plus the active
  /// segment's count. Unlike the <prefix>.appends counter this survives
  /// restarts (it is re-derived from the files), so it equals the ordinal
  /// of the newest record — the replication probe reports it as the ship
  /// target.
  uint64_t TotalRecords() const;

  /// Largest seq stored (0 when empty), from the segments' footer and
  /// running stats — what a reopening owner advances the clock past.
  uint64_t MaxSeq() const;

  /// Number of segment files currently on disk (including the active one).
  size_t segment_count() const;

  /// [body_len][crc][body] framing of one occurrence. Exposed for tests.
  static std::string EncodeRecord(const EventOccurrence& occ);
  /// Decodes a record body (no frame). Corruption on malformed input.
  static Status DecodeRecordBody(std::string_view body, EventOccurrence* occ);

 private:
  /// Footer bookkeeping, accumulated while a segment is active.
  struct SegmentStats {
    uint64_t record_count = 0;
    uint64_t min_seq = std::numeric_limits<uint64_t>::max();
    uint64_t max_seq = 0;
    int64_t min_micros = std::numeric_limits<int64_t>::max();
    int64_t max_micros = std::numeric_limits<int64_t>::min();
    std::string bloom = std::string(kBloomBytes, '\0');
  };

  /// One known segment file.
  struct SegmentInfo {
    std::string path;
    uint64_t id = 0;  ///< Monotone ordinal from the file name.
    bool sealed = false;
    /// The footer's (sealed) or the running (active) stats.
    SegmentStats stats;
    /// File offset of every kIndexStride-th record. Empty for a segment
    /// sealed before this Open: reads of it start at byte 0.
    std::vector<uint64_t> index;

    /// Accounts for one more record, stored at file offset `at`.
    void Add(const EventOccurrence& occ, uint64_t at);
  };

  /// Gets each body after the cursor, its ordinal and its file; sets
  /// `*done` to stop the walk.
  using RecordVisitor = std::function<Status(
      std::string_view body, uint64_t ordinal, const std::string& path,
      bool* done)>;

  static constexpr size_t kBloomBytes = 128;  ///< 1024 bits, k=4.
  static constexpr uint64_t kIndexStride = 64;
  static constexpr char kFooterMagic[5] = "SHSF";

  /// Record body of one occurrence (txn is not persisted).
  static std::string EncodeBody(const EventOccurrence& occ);
  static void BloomAdd(std::string* bloom, Oid oid);
  static bool BloomMayContain(const std::string& bloom, Oid oid);

  /// Serialized fixed-size footer (sentinel through magic).
  static std::string EncodeFooter(const SegmentStats& stats);
  static size_t FooterSize();
  /// Parses a footer from the tail of `tail`; false if absent/corrupt.
  static bool DecodeFooter(const std::string& tail, SegmentStats* stats);

  bool has_active() const {
    return !segments_.empty() && !segments_.back().sealed;
  }
  Status OpenActiveLocked();
  Status SealActiveLocked();
  /// Reads a file's footer (only the footer bytes) if sealed.
  static Status InspectSegment(SegmentInfo* info);
  /// The recovery walk of the unsealed tail segment: rebuilds its stats and
  /// index and cuts a torn tail or CRC mismatch; Corruption (file
  /// untouched) when a CRC-valid record does not decode.
  Status RecoverActiveLocked(SegmentInfo* info);
  /// The one read path behind Scan and ScanFrom: cuts a plan of segments
  /// (and start offsets, from the index) under the mutex, skipping sealed
  /// segments wholly behind `after_ordinal` or that `prune` rejects by
  /// footer, then reads them outside it.
  Status Walk(uint64_t after_ordinal,
              const std::function<bool(const SegmentStats&)>& prune,
              const RecordVisitor& visit) const;

  const std::string dir_;
  const size_t segment_bytes_;

  mutable std::mutex mutex_;
  bool open_ = false;
  uint64_t next_id_ = 0;  ///< Ordinal for the next segment file.
  std::vector<SegmentInfo> segments_;  ///< Sorted by id; last may be active.
  /// The active segment's file (closed while no segment is active).
  mutable RecordLog log_{"histlog.append"};
  Counter* const m_appends_;
  Counter* const m_rotations_;
  Counter* const m_scan_skipped_;
};

}  // namespace sentinel

#endif  // SENTINEL_HISTLOG_SEGMENT_STORE_H_
