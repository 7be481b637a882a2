// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Replicator: the primary-side half of log-shipping replication.
//
// A follower bootstraps with a fuzzy object snapshot (chunked walks of the
// committed oid space), then tails two totally ordered streams the primary
// already produces for its own durability:
//
//   * the redo WAL — every committed object mutation, shipped as the raw
//     record bodies and re-applied on the follower through one local WAL
//     mini-transaction per batch (ObjectStore::SystemApplyBatch), and
//   * an occurrence mirror — a HistorySegmentStore fed by an occurrence
//     observer, giving the raise history a stable total order (ordinals)
//     that survives restarts, also shipped as raw bodies. It counts into
//     the database's registry as repl.mirror.* (appends, rotations,
//     scan_segments_skipped, and the replicator's own append_failures),
//     apart from the spill stores' histlog.*. Followers replay these through
//     Database::ReplayOccurrence, reproducing the primary's HistoryScan
//     results (see there for the sharded spill split).
//
// Both streams are pull-based: the follower polls kReplSubscribe and the
// primary answers with one kReplBatch. The primary keeps no per-follower
// state; every cursor (snapshot oid, WAL LSN, mirror ordinal) lives in the
// request, so a follower can crash, restart, and resume from the cursors it
// persisted inside its own apply batches.
//
// Epoch fencing: the node serves its current epoch on every reply. A
// request carrying a *higher* epoch is the new primary (or its operator)
// fencing this node — it adopts the epoch and demotes itself to a replica,
// so producers still talking to it get FailedPrecondition instead of
// acknowledged-but-orphaned writes. See DESIGN.md §13.

#ifndef SENTINEL_REPL_REPLICATOR_H_
#define SENTINEL_REPL_REPLICATOR_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/status.h"
#include "core/database.h"
#include "histlog/segment_store.h"
#include "net/server.h"
#include "net/wire.h"

namespace sentinel {
namespace repl {

/// System record on a follower's store holding its durable ship cursors
/// (written inside the same SystemApplyBatch as the data it describes).
/// 1 = catalog, 4 = index defs; 5 is free.
constexpr Oid kReplStateOid = 5;

/// Class name of the progress record (never reaches the catalog).
inline const char* kReplStateClass() { return "__ReplState"; }

struct ReplicatorOptions {
  /// Directory for the occurrence mirror (conventionally `<db dir>/repllog`).
  std::string mirror_dir;
  /// Rotation threshold for one mirror segment file.
  size_t mirror_segment_bytes = 1 << 20;
  /// Epoch this node starts serving at.
  uint64_t initial_epoch = 1;
};

/// Serves replication pulls for one Database. Register with the gateway via
/// GatewayServer::SetReplication. Works on a replica too (a promoted
/// follower keeps its Replicator and serves its own downstream followers —
/// ReplayOccurrence fans out to the same observer that feeds the mirror).
class Replicator : public net::ReplicationHandler {
 public:
  /// `db` must outlive the Replicator.
  Replicator(Database* db, ReplicatorOptions options);
  ~Replicator() override;

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Opens the occurrence mirror, advances the logical clock past its
  /// largest seq, and hooks it to the database's occurrence fan-out. Call
  /// before the gateway starts serving.
  Status Start();

  /// Unhooks the observer and closes the mirror. Idempotent.
  Status Stop();

  /// Epoch this node currently serves (grows when a fence arrives).
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// The occurrence mirror (tests and benches).
  HistorySegmentStore* mirror() { return &mirror_; }

  // --- net::ReplicationHandler ----------------------------------------------

  Status HandleReplSubscribe(const net::ReplSubscribeMsg& msg,
                             net::ReplBatchMsg* reply) override;

 private:
  Status FillProbe(net::ReplBatchMsg* reply);
  Status FillSnapshot(const net::ReplSubscribeMsg& msg, size_t max_items,
                      net::ReplBatchMsg* reply);
  Status FillTail(const net::ReplSubscribeMsg& msg, size_t max_items,
                  net::ReplBatchMsg* reply);

  Database* db_;
  const ReplicatorOptions options_;
  HistorySegmentStore mirror_;
  Database::ObserverHandle observer_;
  Counter* const m_mirror_append_failures_;  ///< Occurrences not mirrored.
  std::atomic<uint64_t> epoch_;
  bool started_ = false;
  /// Serializes pull handling: epoch transitions and WAL/mirror reads stay
  /// ordered even when several followers poll through different gateway
  /// worker threads.
  std::mutex mu_;
};

}  // namespace repl
}  // namespace sentinel

#endif  // SENTINEL_REPL_REPLICATOR_H_
