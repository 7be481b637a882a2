// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Follower: the replica-side half of log-shipping replication.
//
// Owns one Connection to the primary's gateway and pulls kReplBatch frames:
// first a chunked fuzzy snapshot of the committed object space, then the
// WAL tail (decoded records, buffered per transaction and applied at each
// commit through one local WAL mini-transaction) interleaved with the
// occurrence-mirror tail (replayed through Database::ReplayOccurrence so
// the follower's HistoryScan matches the primary's; the per-shard spill
// split may differ when sharded, DESIGN.md §13.1).
//
// Durable resume: the follower's ship cursors ride *inside* the same
// SystemApplyBatch as the data they describe (the kReplStateOid system
// record), so after a follower crash, recovery lands on a batch boundary
// and the cursors can never claim data the heap does not hold. The WAL
// cursor persisted is the last batch boundary with no transaction still
// open — re-fetching a suffix is harmless (redo-idempotent apply), missing
// a buffered-but-uncommitted op would not be. Occurrence history keeps the
// store's documented flush-level durability: a crashed follower may lose
// the same unflushed suffix the primary itself would.
//
// Promotion: Promote() stops tailing, advances the logical clock past every
// replayed timestamp, re-derives the oid floor, reloads the catalog, clears
// the replica flag, and returns the new epoch (last seen primary epoch +
// 1). Fence() then stamps that epoch onto the old primary — if it is still
// alive — which demotes itself on sight of the higher epoch.

#ifndef SENTINEL_REPL_FOLLOWER_H_
#define SENTINEL_REPL_FOLLOWER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/database.h"
#include "net/client.h"
#include "oodb/object_store.h"
#include "repl/replicator.h"

namespace sentinel {
namespace repl {

struct FollowerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Per-section row cap requested from the primary.
  uint32_t max_items = 256;
};

/// Pull-based replication client for one replica Database (opened with
/// Options::replica = true). Drive it either with the background tailer
/// (Start/Stop) or synchronously (CatchUpOnce) from tests and benches.
/// All methods are for one controlling thread; the tailer thread only runs
/// between Start and Stop.
class Follower {
 public:
  /// `db` must outlive the Follower.
  Follower(Database* db, FollowerOptions options);
  ~Follower();

  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  /// Loads the persisted ship cursors (kReplStateOid) — if any — and
  /// starts the background tailer thread.
  Status Start();

  /// Stops the tailer thread and drops the connection. Idempotent.
  void Stop();

  /// One synchronous catch-up pass: connects if needed, finishes the
  /// snapshot if still bootstrapping, then drains tail batches until the
  /// primary reports nothing further. `*caught_up` (optional) is true when
  /// everything the primary had at the final poll has been applied.
  /// Safe only while the tailer thread is not running.
  Status CatchUpOnce(bool* caught_up = nullptr);

  /// Replica -> primary: stops tailing, promotes the database (see
  /// Database::Promote), and returns the new epoch to fence with.
  Result<uint64_t> Promote();

  /// Sends a probe stamped with `epoch` to a node's gateway, fencing it:
  /// a node that sees a higher epoch demotes itself to a replica. IOError
  /// when the node is unreachable (already dead — nothing to fence).
  static Status Fence(const std::string& host, uint16_t port, uint64_t epoch);

  // --- Progress (test/bench visibility) --------------------------------------

  uint64_t next_lsn() const { return next_lsn_; }
  uint64_t applied_ordinal() const { return after_ordinal_; }
  uint64_t max_replayed_seq() const { return max_seq_; }
  uint64_t primary_epoch() const { return primary_epoch_; }
  bool snapshot_done() const { return snapshot_done_; }
  /// True when the last reply came from a node still claiming leadership.
  bool primary_claims_lead() const { return primary_claims_lead_; }

 private:
  Status EnsureConnected();
  /// Reads the kReplStateOid record into the cursors (absent = fresh).
  Status LoadProgress();
  /// The progress ReplOp to append to an apply batch.
  ObjectStore::ReplOp ProgressOp() const;

  /// Runs snapshot chunks to completion (bounded by the object count).
  Status RunSnapshot();
  /// One tail poll + apply. `*progressed` = this pass applied anything;
  /// `*caught_up` = the primary reported nothing beyond what is applied.
  Status TailOnce(bool* progressed, bool* caught_up);

  Status Poll(uint8_t mode, uint64_t after_oid, net::ReplBatchMsg* reply);

  void ThreadMain();

  Database* db_;
  const FollowerOptions options_;
  std::unique_ptr<net::Connection> conn_;

  // Ship cursors (tailer/controller thread only).
  bool progress_loaded_ = false;
  bool snapshot_done_ = false;
  uint64_t next_lsn_ = 0;        ///< Next WAL LSN to request.
  uint64_t safe_lsn_ = 0;        ///< Durable resume LSN (txn boundary).
  uint64_t after_ordinal_ = 0;   ///< Mirror records replayed.
  uint64_t max_seq_ = 0;         ///< Newest replayed occurrence seq.
  uint64_t primary_epoch_ = 0;   ///< Epoch of the last reply.
  bool primary_claims_lead_ = true;

  /// Ops of transactions whose commit record has not arrived yet.
  std::unordered_map<uint64_t, std::vector<ObjectStore::ReplOp>> open_txns_;

  std::thread tailer_;
  std::atomic<bool> running_{false};
};

}  // namespace repl
}  // namespace sentinel

#endif  // SENTINEL_REPL_FOLLOWER_H_
