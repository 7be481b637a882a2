// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// ObjectStore: the persistence substrate standing in for Zeitgeist.
//
// The store maps Oids to serialized object images kept in slotted pages
// behind a buffer pool, with transactional updates (strict 2PL + redo WAL,
// no-steal). It also maintains *class extents* — the set of committed
// instances per class — which is what lets class-level rules subscribe to
// "all instances of C, including ones created later" (paper §3.5/§4.7).
//
// On-disk layout: an object is stored as one or more *chunk* records, each
// [oid u64][class name][chunk index u32][chunk count u32][state fragment],
// so object images larger than a page split transparently. The directory
// (oid -> ordered chunk record ids) and the extents are rebuilt by a full
// scan at open, then kept incrementally.

#ifndef SENTINEL_OODB_OBJECT_STORE_H_
#define SENTINEL_OODB_OBJECT_STORE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "histlog/group_commit.h"
#include "oodb/class_catalog.h"
#include "oodb/oid.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/slotted_page.h"
#include "txn/transaction_manager.h"
#include "txn/wal.h"

namespace sentinel {

/// System mini-transactions (SystemApplyBatch) draw WAL txn ids from this
/// base so they never collide with user transactions — and, crucially, with
/// each other: sharing one id would let recovery replay a torn mini-txn's
/// records on the strength of an unrelated mini-txn's commit record.
constexpr TxnId kSystemTxnBase = 1ull << 63;

/// Observes committed installs (post-WAL, post-heap). The attribute index
/// and similar derived structures hang off this; observers see committed
/// images only, never staged transaction state. Callbacks run on the
/// committing thread with no store locks held; the views are valid only
/// for the duration of the call.
class CommitObserver {
 public:
  virtual ~CommitObserver() = default;
  virtual void OnCommittedPut(Oid oid, std::string_view class_name,
                              std::string_view state) = 0;
  virtual void OnCommittedDelete(Oid oid) = 0;
};

/// Transactional Oid -> object-image store with class extents.
class ObjectStore : public HeapApplier {
 public:
  /// `buffer_pages` sizes the buffer pool. `group_commit_window_us` is the
  /// group-commit batching window; 0 (the default) syncs each commit
  /// individually. The store and every component it owns (disk, buffer
  /// pool, WAL, group commit, transaction manager) count into `metrics`,
  /// recovery included.
  explicit ObjectStore(MetricsRegistry& metrics, size_t buffer_pages = 256,
                       uint32_t group_commit_window_us = 0);
  ~ObjectStore() override;

  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;

  /// Opens (creating if needed) the database under directory `dir`
  /// (heap file `dir/heap.db`, log `dir/wal.log`), replays the WAL, and
  /// rebuilds the directory and extents.
  Status Open(const std::string& dir);

  /// Checkpoints and closes. Idempotent.
  Status Close();

  bool is_open() const { return open_; }

  /// Issues a fresh object id.
  Oid NewOid() { return oids_.Next(); }

  /// Transaction factory/committer (shared with the rule scheduler).
  TransactionManager* txns() { return txn_manager_.get(); }
  LockManager* locks() { return &lock_manager_; }

  /// The log itself (checkpoint thresholds, tests, benches).
  WalManager* wal() { return &wal_; }
  /// The commit-sync pipeline (created at Open).
  GroupCommitSync* commit_sync() { return group_commit_.get(); }

  // --- Transactional object access ----------------------------------------

  /// Stages a create-or-update of `oid` under `txn` (X lock).
  Status Put(Transaction* txn, Oid oid, const std::string& class_name,
             const std::string& state);

  /// Reads `oid`: the transaction's own staged write if any, else the
  /// committed image (S lock).
  Status Get(Transaction* txn, Oid oid, std::string* class_name,
             std::string* state);

  /// Stages a delete of `oid` (X lock).
  Status Delete(Transaction* txn, Oid oid);

  // --- Committed-state queries --------------------------------------------

  /// True if a committed image of `oid` exists.
  bool Exists(Oid oid) const;

  /// Committed instances of exactly `class_name` (sorted).
  std::vector<Oid> Extent(const std::string& class_name) const;

  /// Committed instances of `class_name` or any registered subclass.
  std::vector<Oid> DeepExtent(const std::string& class_name,
                              const ClassCatalog& catalog) const;

  /// Number of committed user objects.
  size_t ObjectCount() const;

  /// Every committed oid — system records included — sorted ascending. The
  /// replication snapshot walks this with an exclusive cursor, so a stable
  /// total order is the contract.
  std::vector<Oid> AllOids() const;

  /// The first `limit` committed oids strictly above `after`, ascending —
  /// AllOids read through a cursor. The sorted order is kept between calls
  /// and rebuilt only after an oid was added or removed, so walking the
  /// store in chunks does not re-sort it per chunk.
  std::vector<Oid> OidsAfter(Oid after, size_t limit) const;

  // --- Maintenance ---------------------------------------------------------

  /// Fuzzy checkpoint: captures the stable LSN, waits out in-flight heap
  /// applies (without stalling new commits), flushes dirty pages, writes a
  /// durable checkpoint record carrying the stable LSN, and truncates the
  /// WAL behind it. Mutators keep committing throughout; only commits
  /// caught between WAL-durable and heap-applied are briefly waited on.
  /// Bounds recovery to replaying the WAL suffix since the last checkpoint.
  /// Whole checkpoints are serialized against each other and against
  /// Close: a call that arrives while another checkpoint runs blocks until
  /// it finishes, and a call that loses the race with Close returns
  /// FailedPrecondition instead of truncating a log being torn down.
  /// Every completed checkpoint (Close's final one too) counts
  /// storage.checkpoints; a failed call counts storage.checkpoint_failures.
  Status Checkpoint();

  /// Completed (successful) checkpoints since open — each one truncated
  /// the WAL exactly once.
  uint64_t checkpoint_generation() const {
    return checkpoint_generation_.load(std::memory_order_acquire);
  }

  /// One operation of a system batch (see SystemApplyBatch).
  struct ReplOp {
    bool del = false;  ///< true = delete `oid`; false = put.
    Oid oid = kInvalidOid;
    std::string class_name;  ///< Put only.
    std::string state;       ///< Put only.
  };

  /// Writes system records (the catalog, index definitions, a replicated
  /// batch) durably and immediately, outside user transactions: all ops
  /// are logged in ONE local WAL mini-transaction (begin, ops, commit, one
  /// group sync) and then installed in the heap. A follower that crashes
  /// mid-batch recovers to a batch boundary — its own redo replay either
  /// has the whole batch or none of it — so a ship cursor persisted
  /// *inside* the batch can never run ahead of the data it describes.
  Status SystemApplyBatch(const std::vector<ReplOp>& ops);

  /// Re-derives the oid allocator's floor from the committed directory —
  /// exactly what Open does after recovery. A promoted replica calls this
  /// so the oids it issues as the new primary never collide with objects
  /// it received through replication apply (which bypasses NewOid).
  void RefreshOidFloor();

  /// Persists the catalog (system mini-transaction, durable immediately).
  Status SaveCatalog(const ClassCatalog& catalog);

  /// Restores the catalog saved by SaveCatalog; NotFound if never saved.
  Status LoadCatalog(ClassCatalog* catalog);

  /// Registers the (single) commit observer; pass nullptr to clear.
  /// System-class records do not notify.
  void SetCommitObserver(CommitObserver* observer) { observer_ = observer; }

  // --- HeapApplier (committed writes land here) ----------------------------

  Status ApplyPut(uint64_t oid, std::string_view payload) override;
  Status ApplyDelete(uint64_t oid) override;

  /// Largest state fragment one chunk record of `class_name` holds; an
  /// image of n * MaxFragment + 1 bytes takes n + 1 chunks.
  static size_t MaxFragment(std::string_view class_name);

  /// Frames [oid][class][state] as stored on the heap and staged in txns.
  static std::string FrameRecord(Oid oid, std::string_view class_name,
                                 std::string_view state);
  /// Inverse of FrameRecord.
  static Status UnframeRecord(std::string_view payload, Oid* oid,
                              std::string* class_name, std::string* state);

 private:
  /// Inserts `payload` into some page with room, allocating if needed.
  /// Caller must hold mutex_.
  Result<RecordId> InsertRecord(std::string_view payload);

  /// The one heap install path behind ApplyPut and SystemApplyBatch:
  /// writes the image as 1..n chunk records over the object's old chain,
  /// then notifies the observer (user classes only).
  Status InstallImage(Oid oid, std::string_view class_name,
                      std::string_view state);

  /// Reassembles the committed image of `oid` from its chunks, appending
  /// each fragment straight from its pinned page. Caller must hold mutex_.
  Status ReadObjectLocked(Oid oid, std::string* class_name,
                          std::string* state) const;

  /// Deletes every chunk of `oid` and drops its directory/extent entries.
  /// Caller must hold mutex_.
  Status EraseChunksLocked(Oid oid);

  /// Scans every heap page rebuilding directory_ and extents_.
  Status RebuildDirectory();

  /// Replays committed WAL transactions into the heap.
  Status Recover();

  /// Checkpoint body; caller holds checkpoint_mu_.
  Status CheckpointLocked();

  bool open_ = false;
  MetricsRegistry& metrics_;  ///< Handed to the components Open creates.
  const size_t buffer_pages_hint_;
  const uint32_t group_commit_window_us_;
  CommitObserver* observer_ = nullptr;
  Gauge* const m_recovery_ms_;
  Gauge* const m_recovery_records_;
  Counter* const m_checkpoints_;
  Counter* const m_checkpoint_failures_;
  std::string dir_;
  DiskManager disk_;
  std::unique_ptr<BufferPool> pool_;
  WalManager wal_;
  std::unique_ptr<GroupCommitSync> group_commit_;
  LockManager lock_manager_;
  std::unique_ptr<TransactionManager> txn_manager_;
  OidGenerator oids_;
  std::atomic<uint64_t> system_txn_seq_{0};  ///< Mini-txn id allocator.

  /// Serializes whole checkpoints against each other and against Close —
  /// two interleaved capture/flush/truncate sequences could otherwise
  /// truncate twice against one captured LSN. `closing_` (set under the
  /// lock) fences late checkpoint callers off the teardown path.
  std::mutex checkpoint_mu_;
  bool closing_ = false;
  std::atomic<uint64_t> checkpoint_generation_{0};

  mutable std::mutex mutex_;  // Guards directory_, extents_, insert path.
  std::unordered_map<Oid, std::vector<RecordId>> directory_;
  /// directory_'s keys in ascending order, for OidsAfter; stale once an
  /// oid is added to or erased from directory_.
  mutable std::vector<Oid> sorted_oids_;
  mutable bool sorted_oids_valid_ = false;
  std::unordered_map<std::string, std::set<Oid>> extents_;
  std::vector<PageId> data_pages_;  // Pages formatted as slotted pages.
  Encoder chunk_buffer_;  ///< Reused chunk encoding; guarded by mutex_.
};

}  // namespace sentinel

#endif  // SENTINEL_OODB_OBJECT_STORE_H_
