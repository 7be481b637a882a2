// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "repl/replicator.h"

#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "events/occurrence.h"
#include "txn/wal.h"

namespace sentinel {
namespace repl {

namespace {

/// Per-section row cap when a request leaves max_items at 0.
constexpr size_t kDefaultMaxItems = 512;

}  // namespace

Replicator::Replicator(Database* db, ReplicatorOptions options)
    : db_(db),
      options_(std::move(options)),
      mirror_(options_.mirror_dir, options_.mirror_segment_bytes,
              *db->metrics(), "repl.mirror"),
      m_mirror_append_failures_(
          db->metrics()->counter("repl.mirror.append_failures")),
      epoch_(options_.initial_epoch) {}

Replicator::~Replicator() { Stop(); }

Status Replicator::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return Status::OK();
  SENTINEL_RETURN_IF_ERROR(mirror_.Open());
  // The mirror holds every occurrence since the first start, including the
  // in-memory window the database lost at its last close: continue above
  // it so a follower's replayed history keeps unique, increasing seqs.
  Clock::AdvanceTo(mirror_.MaxSeq());
  // Mirror every occurrence the moment it fans out. The observer runs on
  // the mutator thread; Append serializes internally, and the mirror's
  // append order is exactly the total order followers replay in. A mirror
  // write failure must not fail the raise that produced it — history has
  // flush-level durability by contract — so it is counted (and warned
  // about at the 1st, 2nd, 4th, ... failure) instead: the followers never
  // see that occurrence.
  observer_ = db_->AddOccurrenceObserver([this](const EventOccurrence& occ) {
    Status s = mirror_.Append(occ);
    if (s.ok()) return;
    m_mirror_append_failures_->Add();
    const uint64_t n = m_mirror_append_failures_->Value();
    if ((n & (n - 1)) == 0) {
      SENTINEL_WARN << "event=repl_mirror_append_failed failures=" << n
                    << " status=\"" << s.ToString() << "\"";
    }
  });
  started_ = true;
  return Status::OK();
}

Status Replicator::Stop() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_) return Status::OK();
  observer_.reset();  // Next fan-out prunes the slot.
  started_ = false;
  return mirror_.Close();
}

Status Replicator::HandleReplSubscribe(const net::ReplSubscribeMsg& msg,
                                       net::ReplBatchMsg* reply) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!started_) return Status::FailedPrecondition("replicator not started");
  SENTINEL_FAILPOINT("repl.subscribe");

  // Epoch fencing: a higher epoch in the request is a newer primary's
  // authority. Adopt it and step down before serving anything.
  uint64_t epoch = epoch_.load(std::memory_order_acquire);
  if (msg.epoch > epoch) {
    epoch_.store(msg.epoch, std::memory_order_release);
    epoch = msg.epoch;
    db_->Demote();
  }
  reply->epoch = epoch;
  reply->primary = db_->is_replica() ? 0 : 1;
  reply->mode = msg.mode;

  SENTINEL_RETURN_IF_ERROR(FillProbe(reply));

  const size_t max_items =
      msg.max_items != 0 ? msg.max_items : kDefaultMaxItems;
  switch (msg.mode) {
    case net::ReplSubscribeMsg::kProbe:
      return Status::OK();
    case net::ReplSubscribeMsg::kSnapshot:
      return FillSnapshot(msg, max_items, reply);
    case net::ReplSubscribeMsg::kTail:
      return FillTail(msg, max_items, reply);
    default:
      return Status::InvalidArgument("unknown replication mode");
  }
}

Status Replicator::FillProbe(net::ReplBatchMsg* reply) {
  WalManager* wal = db_->store()->wal();
  SENTINEL_ASSIGN_OR_RETURN(reply->wal_base_lsn, wal->BaseLsn());
  SENTINEL_ASSIGN_OR_RETURN(reply->wal_end_lsn, wal->CurrentLsn());
  reply->mirror_total = mirror_.TotalRecords();
  return Status::OK();
}

Status Replicator::FillSnapshot(const net::ReplSubscribeMsg& msg,
                                size_t max_items, net::ReplBatchMsg* reply) {
  SENTINEL_FAILPOINT("repl.ship.snapshot");
  // Capture the WAL position *before* reading any image: a commit racing
  // this chunk either made it into the images below or sits in the WAL at
  // or past this LSN. Tailing from the first chunk's snapshot_lsn therefore
  // replays (idempotently) everything the fuzzy walk missed.
  SENTINEL_ASSIGN_OR_RETURN(reply->snapshot_lsn,
                            db_->store()->wal()->CurrentLsn());

  uint64_t cursor = msg.after_oid;
  reply->next_oid = cursor;
  reply->snapshot_done = 1;
  size_t used = 0;
  // Walk the store upward from the cursor, one slice at a time. A slice
  // holds one oid more than can still ship, so a full reply knows whether
  // any oid is left; skipped oids (below) make room for the next slice.
  for (;;) {
    const size_t room = max_items - reply->objects.size();
    const std::vector<Oid> oids = db_->store()->OidsAfter(cursor, room + 1);
    for (Oid oid : oids) {
      if (reply->objects.size() >= max_items) {
        reply->snapshot_done = 0;  // More oids past next_oid.
        return Status::OK();
      }
      const uint64_t shipped_to = reply->next_oid;
      cursor = oid;
      reply->next_oid = cursor;
      if (oid == kReplStateOid) continue;  // Follower-local bookkeeping.
      net::ReplBatchMsg::ObjectImage image;
      image.oid = oid;
      Status s = db_->store()->Get(nullptr, oid, &image.class_name,
                                   &image.state);
      if (s.IsNotFound()) continue;  // Deleted since listed; WAL replays it.
      SENTINEL_RETURN_IF_ERROR(s);
      // Encoded as a u64 oid and two u32-length strings.
      const size_t bytes = 16 + image.class_name.size() + image.state.size();
      if (!net::FitsReply(bytes, &used)) {
        if (used == 0) {
          return net::ReplyRowTooLarge("object " + std::to_string(oid), bytes);
        }
        reply->next_oid = shipped_to;  // This oid leads the next reply.
        reply->snapshot_done = 0;
        return Status::OK();
      }
      reply->objects.push_back(std::move(image));
    }
    if (oids.size() <= room) return Status::OK();  // Store exhausted.
  }
}

Status Replicator::FillTail(const net::ReplSubscribeMsg& msg,
                            size_t max_items, net::ReplBatchMsg* reply) {
  SENTINEL_FAILPOINT("repl.ship.tail");

  // WAL and mirror suffixes ship their record bodies as the logs hold them:
  // a WAL body is byte for byte a kReplBatch WAL entry, and the follower
  // decodes mirror bodies with HistorySegmentStore::DecodeRecordBody. Both
  // sections share one reply's row bytes.
  size_t used = 0;
  Status too_large;
  uint64_t next_lsn = msg.next_lsn;
  Status rs = db_->store()->wal()->ReadFrom(
      msg.next_lsn, max_items,
      [&](const WalRecordView& rec) {
        if (!net::FitsReply(rec.bytes.size(), &used)) {
          if (used == 0) {
            too_large = net::ReplyRowTooLarge(
                "wal record at lsn " + std::to_string(next_lsn),
                rec.bytes.size());
          }
          return false;
        }
        reply->wal.emplace_back(rec.bytes);
        return true;
      },
      &next_lsn);
  SENTINEL_RETURN_IF_ERROR(too_large);
  if (rs.IsOutOfRange()) {
    // A checkpoint truncated the requested position away — this follower
    // fell too far behind to tail; it must re-snapshot.
    reply->wal_reset = 1;
    reply->next_lsn = msg.next_lsn;
  } else {
    SENTINEL_RETURN_IF_ERROR(rs);
    reply->next_lsn = next_lsn;
  }
  uint64_t next_ordinal = msg.after_ordinal;
  std::vector<std::string>& occ = reply->occ_records;
  SENTINEL_RETURN_IF_ERROR(
      mirror_.ScanFrom(msg.after_ordinal, max_items, &occ, &next_ordinal));
  // Ordinals are consecutive, so the rows that fit end at after + kept.
  size_t kept = 0;
  while (kept < occ.size() && net::FitsReply(4 + occ[kept].size(), &used)) {
    ++kept;
  }
  if (kept < occ.size()) {
    if (used == 0) {
      return net::ReplyRowTooLarge(
          "mirror record " + std::to_string(msg.after_ordinal + 1),
          4 + occ[0].size());
    }
    occ.resize(kept);
    next_ordinal = msg.after_ordinal + kept;
  }
  reply->next_ordinal = next_ordinal;
  return Status::OK();
}

}  // namespace repl
}  // namespace sentinel
