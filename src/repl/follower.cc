// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "repl/follower.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/codec.h"
#include "common/failpoint.h"
#include "histlog/segment_store.h"
#include "txn/wal.h"

namespace sentinel {
namespace repl {

namespace {

/// Tailer-thread poll interval once caught up.
constexpr uint32_t kPollMs = 20;

/// Progress-record payload: the cursors a restarted follower resumes from.
std::string EncodeProgress(bool snapshot_done, uint64_t safe_lsn,
                           uint64_t after_ordinal, uint64_t max_seq) {
  Encoder enc;
  enc.PutU8(snapshot_done ? 1 : 0);
  enc.PutU64(safe_lsn);
  enc.PutU64(after_ordinal);
  enc.PutU64(max_seq);
  return enc.Release();
}

Status DecodeProgress(const std::string& body, bool* snapshot_done,
                      uint64_t* safe_lsn, uint64_t* after_ordinal,
                      uint64_t* max_seq) {
  Decoder dec(body);
  uint8_t done = 0;
  SENTINEL_RETURN_IF_ERROR(dec.GetU8(&done));
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(safe_lsn));
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(after_ordinal));
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(max_seq));
  *snapshot_done = done != 0;
  return Status::OK();
}

}  // namespace

Follower::Follower(Database* db, FollowerOptions options)
    : db_(db), options_(std::move(options)) {}

Follower::~Follower() { Stop(); }

Status Follower::Start() {
  if (running_.load(std::memory_order_acquire)) return Status::OK();
  SENTINEL_RETURN_IF_ERROR(LoadProgress());
  running_.store(true, std::memory_order_release);
  tailer_ = std::thread([this] { ThreadMain(); });
  return Status::OK();
}

void Follower::Stop() {
  running_.store(false, std::memory_order_release);
  if (tailer_.joinable()) tailer_.join();
  conn_.reset();
}

void Follower::ThreadMain() {
  while (running_.load(std::memory_order_acquire)) {
    bool caught_up = false;
    Status s = CatchUpOnce(&caught_up);
    if (!s.ok()) conn_.reset();  // Redial on the next pass.
    // Sleep in small slices so Stop() is prompt.
    uint32_t slept = 0;
    while (running_.load(std::memory_order_acquire) &&
           slept < kPollMs) {
      const uint32_t slice = std::min<uint32_t>(5, kPollMs - slept);
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      slept += slice;
    }
  }
}

Status Follower::EnsureConnected() {
  if (conn_ != nullptr) return Status::OK();
  SENTINEL_ASSIGN_OR_RETURN(conn_,
                            net::Connection::Dial(options_.host,
                                                  options_.port));
  return Status::OK();
}

Status Follower::LoadProgress() {
  if (progress_loaded_) return Status::OK();
  progress_loaded_ = true;
  std::string class_name, state;
  Status s = db_->store()->Get(nullptr, kReplStateOid, &class_name, &state);
  if (s.IsNotFound()) return Status::OK();  // Fresh replica.
  SENTINEL_RETURN_IF_ERROR(s);
  SENTINEL_RETURN_IF_ERROR(DecodeProgress(state, &snapshot_done_, &safe_lsn_,
                                          &after_ordinal_, &max_seq_));
  // Resume WAL requests from the durable (txn-boundary) cursor; anything
  // past it that was already applied re-applies idempotently.
  next_lsn_ = safe_lsn_;
  open_txns_.clear();
  return Status::OK();
}

ObjectStore::ReplOp Follower::ProgressOp() const {
  ObjectStore::ReplOp op;
  op.del = false;
  op.oid = kReplStateOid;
  op.class_name = kReplStateClass();
  op.state = EncodeProgress(snapshot_done_, safe_lsn_, after_ordinal_,
                            max_seq_);
  return op;
}

Status Follower::Poll(uint8_t mode, uint64_t after_oid,
                      net::ReplBatchMsg* reply) {
  SENTINEL_RETURN_IF_ERROR(EnsureConnected());
  net::ReplSubscribeMsg msg;
  msg.epoch = 0;  // Polls never fence; only Fence() carries an epoch.
  msg.mode = mode;
  msg.after_oid = after_oid;
  msg.next_lsn = next_lsn_;
  msg.after_ordinal = after_ordinal_;
  msg.max_items = options_.max_items;
  Encoder enc;
  msg.Encode(&enc);
  net::Frame frame;
  Status s = conn_->SendFrame(net::FrameType::kReplSubscribe, enc.buffer());
  if (s.ok()) s = conn_->ReadFrame(&frame);
  if (!s.ok()) {
    conn_.reset();  // Transport state unknown after a failed exchange.
    return s;
  }
  if (frame.type == net::FrameType::kStatusReply) {
    return net::Connection::ExpectStatusReply(frame, nullptr);
  }
  if (frame.type != net::FrameType::kReplBatch) {
    return Status::Internal("expected ReplBatch frame");
  }
  SENTINEL_ASSIGN_OR_RETURN(*reply, net::ReplBatchMsg::Decode(frame.body));
  primary_epoch_ = reply->epoch;
  primary_claims_lead_ = reply->primary != 0;
  return Status::OK();
}

Status Follower::RunSnapshot() {
  SENTINEL_FAILPOINT("repl.apply.snapshot");
  uint64_t after_oid = 0;
  uint64_t first_chunk_lsn = 0;
  bool first = true;
  // The primary ships oids in ascending order, so appending keeps this
  // sorted for the binary searches of the final self-clean pass.
  std::vector<Oid> shipped;
  open_txns_.clear();
  for (;;) {
    net::ReplBatchMsg reply;
    SENTINEL_RETURN_IF_ERROR(
        Poll(net::ReplSubscribeMsg::kSnapshot, after_oid, &reply));
    if (first) {
      // Tail from the FIRST chunk's WAL position: every mutation the fuzzy
      // walk races lands at or after it, and redo apply is idempotent.
      first_chunk_lsn = reply.snapshot_lsn;
      first = false;
    }
    std::vector<ObjectStore::ReplOp> ops;
    ops.reserve(reply.objects.size() + 1);
    for (net::ReplBatchMsg::ObjectImage& image : reply.objects) {
      if (image.oid == kReplStateOid) continue;
      shipped.push_back(image.oid);
      ObjectStore::ReplOp op;
      op.oid = image.oid;
      op.class_name = std::move(image.class_name);
      op.state = std::move(image.state);
      ops.push_back(std::move(op));
    }
    const bool done = reply.snapshot_done != 0;
    if (done) {
      // Self-clean: drop local objects the primary no longer has. A
      // restarted (re-)snapshot would otherwise leave orphans whose
      // deletes happened before this snapshot's tail start.
      for (Oid oid : db_->store()->AllOids()) {
        if (oid == kReplStateOid ||
            std::binary_search(shipped.begin(), shipped.end(), oid)) {
          continue;
        }
        ObjectStore::ReplOp op;
        op.del = true;
        op.oid = oid;
        ops.push_back(std::move(op));
      }
      snapshot_done_ = true;
      next_lsn_ = first_chunk_lsn;
      safe_lsn_ = first_chunk_lsn;
    }
    ops.push_back(ProgressOp());
    SENTINEL_RETURN_IF_ERROR(db_->store()->SystemApplyBatch(ops));
    if (done) return Status::OK();
    after_oid = reply.next_oid;
  }
}

Status Follower::TailOnce(bool* progressed, bool* caught_up) {
  *progressed = false;
  *caught_up = false;
  net::ReplBatchMsg reply;
  SENTINEL_RETURN_IF_ERROR(Poll(net::ReplSubscribeMsg::kTail, 0, &reply));
  if (reply.wal_reset != 0) {
    // Our WAL cursor was checkpoint-truncated away: fall back to a fresh
    // snapshot (the occurrence-mirror cursor stays — the mirror never
    // truncates).
    snapshot_done_ = false;
    open_txns_.clear();
    *progressed = true;
    return Status::OK();
  }
  SENTINEL_FAILPOINT("repl.apply.tail");

  // WAL suffix: buffer ops per transaction; a commit record moves the
  // transaction's ops into this batch (WAL order = commit order = the
  // strict-2PL serialization order), an abort drops them.
  std::vector<ObjectStore::ReplOp> batch;
  for (const std::string& body : reply.wal) {
    WalRecordView entry;
    if (!entry.Parse(body)) return Status::Corruption("malformed wal entry");
    switch (entry.type) {
      case WalRecordType::kBegin:
        open_txns_[entry.txn].clear();
        break;
      case WalRecordType::kPut: {
        ObjectStore::ReplOp op;
        SENTINEL_RETURN_IF_ERROR(ObjectStore::UnframeRecord(
            entry.payload, &op.oid, &op.class_name, &op.state));
        if (op.oid == kReplStateOid) break;  // Upstream's own bookkeeping.
        open_txns_[entry.txn].push_back(std::move(op));
        break;
      }
      case WalRecordType::kDelete: {
        if (entry.oid == kReplStateOid) break;
        ObjectStore::ReplOp op;
        op.del = true;
        op.oid = entry.oid;
        open_txns_[entry.txn].push_back(std::move(op));
        break;
      }
      case WalRecordType::kCommit: {
        auto it = open_txns_.find(entry.txn);
        if (it != open_txns_.end()) {
          for (ObjectStore::ReplOp& op : it->second) {
            batch.push_back(std::move(op));
          }
          open_txns_.erase(it);
        }
        break;
      }
      case WalRecordType::kAbort:
        open_txns_.erase(entry.txn);
        break;
      case WalRecordType::kCheckpoint:
        break;  // Local heap-flush bookkeeping; meaningless downstream.
    }
  }
  bool moved = false;
  if (!reply.wal.empty()) {
    next_lsn_ = reply.next_lsn;
    // The durable resume cursor only advances at a boundary with no
    // transaction still open: replaying a suffix twice is harmless,
    // resuming past a buffered-but-unapplied op would lose it.
    if (open_txns_.empty()) safe_lsn_ = next_lsn_;
    moved = true;
  }

  // Occurrence-mirror suffix: replay through the database so the detector
  // log, trim/spill, and observer fan-out match the primary's exactly.
  for (const std::string& body : reply.occ_records) {
    EventOccurrence occ;
    SENTINEL_RETURN_IF_ERROR(
        HistorySegmentStore::DecodeRecordBody(body, &occ));
    SENTINEL_RETURN_IF_ERROR(db_->ReplayOccurrence(occ));
    max_seq_ = std::max(max_seq_, occ.timestamp.seq);
  }
  if (!reply.occ_records.empty()) {
    after_ordinal_ = reply.next_ordinal;
    moved = true;
  }

  if (moved) {
    batch.push_back(ProgressOp());
    SENTINEL_RETURN_IF_ERROR(db_->store()->SystemApplyBatch(batch));
    *progressed = true;
  }
  *caught_up = reply.wal.empty() && reply.occ_records.empty() &&
               next_lsn_ >= reply.wal_end_lsn &&
               after_ordinal_ >= reply.mirror_total;
  return Status::OK();
}

Status Follower::CatchUpOnce(bool* caught_up) {
  if (caught_up != nullptr) *caught_up = false;
  SENTINEL_RETURN_IF_ERROR(LoadProgress());
  SENTINEL_RETURN_IF_ERROR(EnsureConnected());
  for (;;) {
    if (!snapshot_done_) SENTINEL_RETURN_IF_ERROR(RunSnapshot());
    bool progressed = false;
    bool caught = false;
    SENTINEL_RETURN_IF_ERROR(TailOnce(&progressed, &caught));
    if (caught) {
      if (caught_up != nullptr) *caught_up = true;
      return Status::OK();
    }
    if (!progressed) return Status::OK();  // Unflushed tail; poll later.
  }
}

Result<uint64_t> Follower::Promote() {
  Stop();
  SENTINEL_RETURN_IF_ERROR(db_->Promote(max_seq_));
  return primary_epoch_ + 1;
}

Status Follower::Fence(const std::string& host, uint16_t port,
                       uint64_t epoch) {
  SENTINEL_ASSIGN_OR_RETURN(std::unique_ptr<net::Connection> conn,
                            net::Connection::Dial(host, port));
  net::ReplSubscribeMsg msg;
  msg.epoch = epoch;
  msg.mode = net::ReplSubscribeMsg::kProbe;
  return conn
      ->Call<net::ReplBatchMsg>(net::FrameType::kReplSubscribe, msg,
                                net::FrameType::kReplBatch)
      .status();
}

}  // namespace repl
}  // namespace sentinel
