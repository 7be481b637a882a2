// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "oodb/object_store.h"

#include <algorithm>
#include <map>

#include "common/clock.h"
#include "common/codec.h"
#include "common/failpoint.h"
#include "common/logging.h"

namespace sentinel {

namespace {

/// Class name used for the persisted catalog record; double-underscore
/// classes are system records and excluded from extents.
constexpr char kCatalogClass[] = "__catalog__";

bool IsSystemClass(std::string_view name) { return name.starts_with("__"); }

/// One stored chunk of an object image, viewed in place in its record.
struct ChunkView {
  Oid oid = kInvalidOid;
  std::string_view class_name;
  uint32_t index = 0;
  uint32_t count = 1;
  std::string_view fragment;
};

/// Encodes one chunk record into `enc` (cleared first).
void EncodeChunk(Oid oid, std::string_view class_name, uint32_t index,
                 uint32_t count, std::string_view fragment, Encoder* enc) {
  enc->Clear();
  enc->PutU64(oid);
  enc->PutString(class_name);
  enc->PutU32(index);
  enc->PutU32(count);
  enc->PutString(fragment);
}

Status DecodeChunk(std::string_view record, ChunkView* chunk) {
  Decoder dec(record);
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&chunk->oid));
  SENTINEL_RETURN_IF_ERROR(dec.GetStringView(&chunk->class_name));
  SENTINEL_RETURN_IF_ERROR(dec.GetU32(&chunk->index));
  SENTINEL_RETURN_IF_ERROR(dec.GetU32(&chunk->count));
  SENTINEL_RETURN_IF_ERROR(dec.GetStringView(&chunk->fragment));
  return Status::OK();
}

/// Appends the framed image [oid][class][state] to `enc`.
void FrameInto(Oid oid, std::string_view class_name, std::string_view state,
               Encoder* enc) {
  enc->PutU64(oid);
  enc->PutString(class_name);
  enc->PutString(state);
}

/// FrameRecord's inverse, viewing the class name and state in `payload`.
Status UnframeView(std::string_view payload, Oid* oid,
                   std::string_view* class_name, std::string_view* state) {
  Decoder dec(payload);
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(oid));
  SENTINEL_RETURN_IF_ERROR(dec.GetStringView(class_name));
  SENTINEL_RETURN_IF_ERROR(dec.GetStringView(state));
  return Status::OK();
}

}  // namespace

ObjectStore::ObjectStore(MetricsRegistry& metrics, size_t buffer_pages,
                         uint32_t group_commit_window_us)
    : metrics_(metrics),
      buffer_pages_hint_(buffer_pages),
      group_commit_window_us_(group_commit_window_us),
      m_recovery_ms_(metrics.gauge("storage.recovery_ms")),
      m_recovery_records_(metrics.gauge("storage.recovery_records")),
      m_checkpoints_(metrics.counter("storage.checkpoints")),
      m_checkpoint_failures_(metrics.counter("storage.checkpoint_failures")),
      disk_(metrics),
      wal_(metrics) {}

ObjectStore::~ObjectStore() { Close().ok(); }

size_t ObjectStore::MaxFragment(std::string_view class_name) {
  // The chunk envelope: oid + class name + counters + length prefixes.
  size_t envelope = 8 + 4 + class_name.size() + 4 + 4 + 4 + 64;
  return SlottedPage::MaxPayload() - envelope;
}

std::string ObjectStore::FrameRecord(Oid oid, std::string_view class_name,
                                     std::string_view state) {
  Encoder enc;
  FrameInto(oid, class_name, state, &enc);
  return enc.Release();
}

Status ObjectStore::UnframeRecord(std::string_view payload, Oid* oid,
                                  std::string* class_name,
                                  std::string* state) {
  std::string_view cls, st;
  SENTINEL_RETURN_IF_ERROR(UnframeView(payload, oid, &cls, &st));
  class_name->assign(cls);
  state->assign(st);
  return Status::OK();
}

Status ObjectStore::Open(const std::string& dir) {
  if (open_) return Status::FailedPrecondition("store already open");
  dir_ = dir;
  SENTINEL_RETURN_IF_ERROR(disk_.Open(dir + "/heap.db"));
  pool_ = std::make_unique<BufferPool>(&disk_, buffer_pages_hint_, metrics_);
  SENTINEL_RETURN_IF_ERROR(wal_.Open(dir + "/wal.log"));
  group_commit_ = std::make_unique<GroupCommitSync>(
      &wal_, group_commit_window_us_, metrics_);
  txn_manager_ = std::make_unique<TransactionManager>(&wal_, &lock_manager_,
                                                      metrics_);
  txn_manager_->SetHeap(this);
  // Every durability wait — user commits, synced aborts, system mini-txns —
  // goes through the group-commit pipeline so concurrent committers share
  // one fdatasync.
  txn_manager_->SetSyncHook(
      [this]() { return group_commit_->Sync(); });

  SENTINEL_RETURN_IF_ERROR(RebuildDirectory());
  {
    const int64_t start = SteadyNowNs();
    SENTINEL_RETURN_IF_ERROR(Recover());
    m_recovery_ms_->Set((SteadyNowNs() - start) / 1000000);
  }

  // Restore the oid high-water mark from what the heap now contains.
  Oid max_oid = kFirstUserOid - 1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [oid, rids] : directory_) max_oid = std::max(max_oid,
                                                                  oid);
  }
  oids_.Restore(max_oid + 1);

  {
    std::lock_guard<std::mutex> ck(checkpoint_mu_);
    closing_ = false;  // Reopen after a Close re-arms checkpoints.
  }
  open_ = true;
  return Status::OK();
}

Status ObjectStore::Close() {
  if (!open_) return Status::OK();
  // The final checkpoint runs under checkpoint_mu_ with `closing_` set:
  // any in-flight checkpoint (a background WAL-size trigger, say) finishes
  // first, and any later caller bounces off `closing_` instead of racing
  // a second truncation against the teardown below.
  std::lock_guard<std::mutex> ck(checkpoint_mu_);
  closing_ = true;
  // Best effort: a failed checkpoint (e.g. under failure injection) must
  // not strand open file handles — the WAL still holds everything the
  // heap is missing, so recovery at the next open makes the heap current.
  Status first_error = Status::OK();
  bool crashed = FailPoints::AnyActive() && FailPoints::Instance().crashed();
  if (!crashed) {
    first_error = CheckpointLocked();
  }
  Status s = wal_.Close();
  if (!s.ok() && first_error.ok()) first_error = s;
  s = disk_.Close();
  if (!s.ok() && first_error.ok()) first_error = s;
  pool_.reset();
  txn_manager_.reset();
  group_commit_.reset();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    directory_.clear();
    sorted_oids_valid_ = false;
    extents_.clear();
    data_pages_.clear();
  }
  open_ = false;
  return first_error;
}

Status ObjectStore::RebuildDirectory() {
  std::lock_guard<std::mutex> lock(mutex_);
  directory_.clear();
  sorted_oids_valid_ = false;
  extents_.clear();
  data_pages_.clear();
  // Collect chunks per oid first; chunk order on disk is arbitrary.
  std::unordered_map<Oid, std::map<uint32_t, RecordId>> chunks;
  std::unordered_map<Oid, std::string> classes;
  uint32_t pages = disk_.page_count();
  for (PageId pid = 0; pid < pages; ++pid) {
    SENTINEL_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(pid));
    SlottedPage sp(page);
    if (!sp.IsInitialized()) {
      pool_->UnpinPage(pid, false).ok();
      continue;
    }
    data_pages_.push_back(pid);
    for (uint16_t slot = 0; slot < sp.SlotCount(); ++slot) {
      if (!sp.IsLive(slot)) continue;
      std::string_view record;
      if (!sp.Read(slot, &record).ok()) continue;
      ChunkView chunk;
      if (!DecodeChunk(record, &chunk).ok()) {
        pool_->UnpinPage(pid, false).ok();
        return Status::Corruption("bad record on page " +
                                  std::to_string(pid));
      }
      chunks[chunk.oid][chunk.index] = RecordId{pid, slot};
      classes[chunk.oid].assign(chunk.class_name);
    }
    SENTINEL_RETURN_IF_ERROR(pool_->UnpinPage(pid, false));
  }
  for (auto& [oid, ordered] : chunks) {
    std::vector<RecordId> rids;
    rids.reserve(ordered.size());
    for (auto& [index, rid] : ordered) rids.push_back(rid);
    directory_[oid] = std::move(rids);
    const std::string& cls = classes[oid];
    if (!IsSystemClass(cls)) extents_[cls].insert(oid);
  }
  return Status::OK();
}

Status ObjectStore::Recover() {
  std::vector<WalRecord> records;
  SENTINEL_RETURN_IF_ERROR(wal_.ReadAll(&records));
  m_recovery_records_->Set(static_cast<int64_t>(records.size()));
  if (records.empty()) return Status::OK();
  SENTINEL_FAILPOINT("store.recover");

  // Pass 1: which transactions committed? An abort record anywhere in the
  // log overrides a commit record for the same txn — it is written (and
  // synced) when a commit failed mid-WAL, neutralizing a commit record
  // that may have become durable for a transaction whose caller was told
  // it aborted.
  std::set<TxnId> committed, aborted;
  for (const WalRecord& rec : records) {
    if (rec.type == WalRecordType::kCommit) committed.insert(rec.txn);
    if (rec.type == WalRecordType::kAbort) aborted.insert(rec.txn);
  }
  for (TxnId txn : aborted) committed.erase(txn);
  // Pass 2: redo committed operations in log order (idempotent).
  size_t redone = 0;
  for (const WalRecord& rec : records) {
    if (committed.count(rec.txn) == 0) continue;
    if (rec.type == WalRecordType::kPut) {
      SENTINEL_RETURN_IF_ERROR(ApplyPut(rec.oid, rec.payload));
      ++redone;
    } else if (rec.type == WalRecordType::kDelete) {
      Status s = ApplyDelete(rec.oid);
      if (!s.ok() && !s.IsNotFound()) return s;  // Delete may be replayed.
      ++redone;
    }
  }
  if (redone > 0) {
    SENTINEL_INFO << "event=recovery_redo operations=" << redone
                  << " records=" << records.size() << " dir=" << dir_;
  }
  // The heap is current: checkpoint so the log does not grow unboundedly.
  SENTINEL_RETURN_IF_ERROR(pool_->FlushAll());
  return wal_.Reset();
}

Result<RecordId> ObjectStore::InsertRecord(std::string_view payload) {
  // Caller holds mutex_.
  if (payload.size() > SlottedPage::MaxPayload()) {
    return Status::InvalidArgument("chunk exceeds page capacity (" +
                                   std::to_string(payload.size()) +
                                   " bytes)");
  }
  // Try recent pages first (cheap heuristic; most pages fill in order).
  for (auto it = data_pages_.rbegin(); it != data_pages_.rend(); ++it) {
    PageId pid = *it;
    SENTINEL_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(pid));
    SlottedPage sp(page);
    if (sp.FreeSpace() >= payload.size() + 8) {
      Result<uint16_t> slot = sp.Insert(payload);
      if (slot.ok()) {
        SENTINEL_RETURN_IF_ERROR(pool_->UnpinPage(pid, true));
        return RecordId{pid, slot.value()};
      }
    }
    SENTINEL_RETURN_IF_ERROR(pool_->UnpinPage(pid, false));
    if (data_pages_.size() - (it - data_pages_.rbegin()) > 4) break;
  }
  // Allocate a fresh page.
  SENTINEL_ASSIGN_OR_RETURN(Page * page, pool_->AllocatePage());
  SlottedPage sp(page);
  sp.Init();
  Result<uint16_t> slot = sp.Insert(payload);
  if (!slot.ok()) {
    pool_->UnpinPage(page->page_id(), true).ok();
    return slot.status();
  }
  data_pages_.push_back(page->page_id());
  RecordId rid{page->page_id(), slot.value()};
  SENTINEL_RETURN_IF_ERROR(pool_->UnpinPage(page->page_id(), true));
  return rid;
}

Status ObjectStore::ReadObjectLocked(Oid oid, std::string* class_name,
                                     std::string* state) const {
  auto it = directory_.find(oid);
  if (it == directory_.end()) return Status::NotFound(OidToString(oid));
  const std::vector<RecordId>& rids = it->second;
  state->clear();
  for (size_t i = 0; i < rids.size(); ++i) {
    SENTINEL_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(rids[i].page_id));
    SlottedPage sp(page);
    std::string_view record;
    ChunkView chunk;
    Status s = sp.Read(rids[i].slot, &record);
    if (s.ok()) s = DecodeChunk(record, &chunk);
    if (s.ok() && (chunk.oid != oid || chunk.index != i ||
                   chunk.count != rids.size())) {
      s = Status::Corruption("inconsistent chunk chain for " +
                             OidToString(oid));
    }
    if (s.ok()) {
      if (i == 0) {
        class_name->assign(chunk.class_name);
        state->reserve(rids.size() * chunk.fragment.size());
      }
      state->append(chunk.fragment);  // Straight from the pinned page.
    }
    pool_->UnpinPage(rids[i].page_id, false).ok();
    SENTINEL_RETURN_IF_ERROR(s);
  }
  return Status::OK();
}

Status ObjectStore::Put(Transaction* txn, Oid oid,
                        const std::string& class_name,
                        const std::string& state) {
  if (!open_) return Status::FailedPrecondition("store not open");
  if (oid == kInvalidOid) return Status::InvalidArgument("invalid oid");
  SENTINEL_RETURN_IF_ERROR(txn->Lock(oid, LockMode::kExclusive));
  txn->StagePut(oid, FrameRecord(oid, class_name, state));
  return Status::OK();
}

Status ObjectStore::Get(Transaction* txn, Oid oid, std::string* class_name,
                        std::string* state) {
  if (!open_) return Status::FailedPrecondition("store not open");
  if (txn != nullptr) {
    if (const PendingWrite* w = txn->FindWrite(oid)) {
      if (w->op == PendingWrite::Op::kDelete) {
        return Status::NotFound(OidToString(oid) + " deleted in this txn");
      }
      Oid dummy;
      return UnframeRecord(w->payload, &dummy, class_name, state);
    }
    SENTINEL_RETURN_IF_ERROR(txn->Lock(oid, LockMode::kShared));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return ReadObjectLocked(oid, class_name, state);
}

Status ObjectStore::Delete(Transaction* txn, Oid oid) {
  if (!open_) return Status::FailedPrecondition("store not open");
  SENTINEL_RETURN_IF_ERROR(txn->Lock(oid, LockMode::kExclusive));
  bool exists_committed = Exists(oid);
  bool staged = txn->FindWrite(oid) != nullptr;
  if (!exists_committed && !staged) {
    return Status::NotFound(OidToString(oid));
  }
  txn->StageDelete(oid);
  return Status::OK();
}

bool ObjectStore::Exists(Oid oid) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return directory_.count(oid) != 0;
}

std::vector<Oid> ObjectStore::Extent(const std::string& class_name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = extents_.find(class_name);
  if (it == extents_.end()) return {};
  return std::vector<Oid>(it->second.begin(), it->second.end());
}

std::vector<Oid> ObjectStore::DeepExtent(const std::string& class_name,
                                         const ClassCatalog& catalog) const {
  std::vector<Oid> out;
  for (const std::string& cls : catalog.SubclassesOf(class_name)) {
    std::vector<Oid> part = Extent(cls);
    out.insert(out.end(), part.begin(), part.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t ObjectStore::ObjectCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t n = 0;
  for (const auto& [cls, members] : extents_) n += members.size();
  return n;
}

std::vector<Oid> ObjectStore::OidsAfter(Oid after, size_t limit) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!sorted_oids_valid_) {
    sorted_oids_.clear();
    sorted_oids_.reserve(directory_.size());
    for (const auto& [oid, rids] : directory_) sorted_oids_.push_back(oid);
    std::sort(sorted_oids_.begin(), sorted_oids_.end());
    sorted_oids_valid_ = true;
  }
  auto first =
      std::upper_bound(sorted_oids_.begin(), sorted_oids_.end(), after);
  auto last = first + static_cast<std::ptrdiff_t>(std::min<size_t>(
                          limit, static_cast<size_t>(sorted_oids_.end() -
                                                     first)));
  return std::vector<Oid>(first, last);
}

std::vector<Oid> ObjectStore::AllOids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Oid> oids;
  oids.reserve(directory_.size());
  for (const auto& [oid, rids] : directory_) oids.push_back(oid);
  std::sort(oids.begin(), oids.end());
  return oids;
}

void ObjectStore::RefreshOidFloor() {
  std::lock_guard<std::mutex> lock(mutex_);
  Oid max_oid = kFirstUserOid - 1;
  for (const auto& [oid, rids] : directory_) {
    max_oid = std::max(max_oid, oid);
  }
  oids_.Restore(max_oid + 1);
}

Status ObjectStore::Checkpoint() {
  std::lock_guard<std::mutex> ck(checkpoint_mu_);
  Status s = closing_ ? Status::FailedPrecondition("store closing")
                      : CheckpointLocked();
  if (!s.ok()) m_checkpoint_failures_->Add();
  return s;
}

Status ObjectStore::CheckpointLocked() {
  if (pool_ == nullptr) return Status::FailedPrecondition("store not open");
  SENTINEL_FAILPOINT("store.checkpoint");

  // (1) Capture the stable LSN: every record below it is already appended.
  SENTINEL_ASSIGN_OR_RETURN(uint64_t stable_lsn, wal_.CurrentLsn());

  // (2) Barrier: commits hold the apply barrier shared from WAL append to
  // heap apply, so acquiring it exclusive (and releasing immediately)
  // proves every commit logged below stable_lsn has reached the in-memory
  // heap. Commits that append after the capture land at LSNs >= stable_lsn
  // and survive the truncation — they may run concurrently from here on.
  if (txn_manager_ != nullptr) {
    std::unique_lock<std::shared_mutex> barrier(
        *txn_manager_->apply_barrier());
  }

  // (3) Flush dirty pages while mutators keep committing. Pages dirtied by
  // post-capture commits may flush early too — harmless, redo is
  // idempotent and their WAL records are retained.
  SENTINEL_RETURN_IF_ERROR(pool_->FlushAll());

  // (4) A durable checkpoint record (its own LSN >= stable_lsn, so it
  // survives the truncation) marks the heap current up to stable_lsn.
  Encoder mark;
  mark.PutU64(stable_lsn);
  SENTINEL_RETURN_IF_ERROR(
      wal_.Append(WalRecordType::kCheckpoint, 0, 0, mark.buffer()));
  SENTINEL_RETURN_IF_ERROR(group_commit_ != nullptr ? group_commit_->Sync()
                                                    : wal_.Sync());

  // (5) Drop the prefix; recovery now replays only the suffix.
  SENTINEL_RETURN_IF_ERROR(wal_.TruncateTo(stable_lsn));
  checkpoint_generation_.fetch_add(1, std::memory_order_release);
  m_checkpoints_->Add();
  return Status::OK();
}

Status ObjectStore::EraseChunksLocked(Oid oid) {
  auto it = directory_.find(oid);
  if (it == directory_.end()) return Status::NotFound(OidToString(oid));
  for (size_t i = 0; i < it->second.size(); ++i) {
    const RecordId& rid = it->second[i];
    SENTINEL_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(rid.page_id));
    SlottedPage sp(page);
    std::string_view record;
    ChunkView chunk;
    if (i == 0 && sp.Read(rid.slot, &record).ok() &&
        DecodeChunk(record, &chunk).ok()) {
      auto eit = extents_.find(std::string(chunk.class_name));
      if (eit != extents_.end()) eit->second.erase(oid);
    }
    Status s = sp.Delete(rid.slot);
    SENTINEL_RETURN_IF_ERROR(pool_->UnpinPage(rid.page_id, true));
    SENTINEL_RETURN_IF_ERROR(s);
  }
  directory_.erase(it);
  sorted_oids_valid_ = false;
  return Status::OK();
}

Status ObjectStore::ApplyPut(uint64_t oid, std::string_view payload) {
  Oid framed_oid;
  std::string_view class_name, state;
  SENTINEL_RETURN_IF_ERROR(
      UnframeView(payload, &framed_oid, &class_name, &state));
  if (framed_oid != oid) {
    return Status::Corruption("framed oid mismatch");
  }
  return InstallImage(oid, class_name, state);
}

Status ObjectStore::InstallImage(Oid oid, std::string_view class_name,
                                 std::string_view state) {
  SENTINEL_FAILPOINT("store.apply_put");
  // The image splits into `count` page-sized fragments (one when empty).
  const size_t max_fragment = MaxFragment(class_name);
  const auto count = static_cast<uint32_t>(
      state.empty() ? 1 : (state.size() + max_fragment - 1) / max_fragment);
  const bool system = IsSystemClass(class_name);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, created] = directory_.try_emplace(oid);
    if (created) sorted_oids_valid_ = false;
    std::vector<RecordId>& rids = it->second;
    bool class_changed = false;
    // Chunk i overwrites the old chain's chunk i in place when it fits,
    // moves to another page when it does not, and is inserted fresh past
    // the old chain's end; the old chain's surplus chunks are deleted.
    Status s = [&]() -> Status {
      for (uint32_t i = 0; i < count; ++i) {
        EncodeChunk(oid, class_name, i, count,
                    state.substr(i * max_fragment, max_fragment),
                    &chunk_buffer_);
        const std::string_view encoded = chunk_buffer_.buffer();
        if (i >= rids.size()) {
          SENTINEL_ASSIGN_OR_RETURN(RecordId rid, InsertRecord(encoded));
          rids.push_back(rid);
          continue;
        }
        const RecordId rid = rids[i];
        SENTINEL_ASSIGN_OR_RETURN(Page * page, pool_->FetchPage(rid.page_id));
        SlottedPage sp(page);
        std::string_view record;
        ChunkView old;
        if (i == 0 && sp.Read(rid.slot, &record).ok() &&
            DecodeChunk(record, &old).ok() && old.class_name != class_name) {
          auto eit = extents_.find(std::string(old.class_name));
          if (eit != extents_.end()) eit->second.erase(oid);
          class_changed = true;
        }
        Status updated = sp.Update(rid.slot, encoded);
        if (!updated.ok()) sp.Delete(rid.slot).ok();
        SENTINEL_RETURN_IF_ERROR(pool_->UnpinPage(rid.page_id, true));
        if (!updated.ok()) {
          SENTINEL_ASSIGN_OR_RETURN(rids[i], InsertRecord(encoded));
        }
      }
      for (size_t i = count; i < rids.size(); ++i) {
        SENTINEL_ASSIGN_OR_RETURN(Page * page,
                                  pool_->FetchPage(rids[i].page_id));
        Status deleted = SlottedPage(page).Delete(rids[i].slot);
        SENTINEL_RETURN_IF_ERROR(pool_->UnpinPage(rids[i].page_id, true));
        SENTINEL_RETURN_IF_ERROR(deleted);
      }
      rids.resize(count);
      return Status::OK();
    }();
    if (!s.ok()) {
      // A new object with no stored chunk must not look present.
      if (created) directory_.erase(it);
      return s;
    }
    if ((created || class_changed) && !system) {
      extents_[std::string(class_name)].insert(oid);
    }
  }
  if (observer_ != nullptr && !system) {
    observer_->OnCommittedPut(oid, class_name, state);
  }
  return Status::OK();
}

Status ObjectStore::ApplyDelete(uint64_t oid) {
  SENTINEL_FAILPOINT("store.apply_delete");
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SENTINEL_RETURN_IF_ERROR(EraseChunksLocked(oid));
  }
  if (observer_ != nullptr) observer_->OnCommittedDelete(oid);
  return Status::OK();
}

Status ObjectStore::SystemApplyBatch(const std::vector<ReplOp>& ops) {
  if (!open_) return Status::FailedPrecondition("store not open");
  if (ops.empty()) return Status::OK();
  SENTINEL_FAILPOINT("store.apply_batch");
  // One mini-transaction for the whole batch: recovery replays it all or
  // none, so a replication cursor written as one of the ops can never
  // describe data the heap does not durably hold. It observes the same
  // append-to-apply barrier as user commits so a fuzzy checkpoint cannot
  // truncate its records before the heap apply.
  TxnId id = kSystemTxnBase + system_txn_seq_.fetch_add(1);
  std::shared_lock<std::shared_mutex> apply_guard(
      *txn_manager_->apply_barrier());
  SENTINEL_RETURN_IF_ERROR(wal_.Append(WalRecordType::kBegin, id, 0));
  Encoder framed;  // Each put is framed into this one reused buffer.
  for (const ReplOp& op : ops) {
    if (op.del) {
      SENTINEL_RETURN_IF_ERROR(
          wal_.Append(WalRecordType::kDelete, id, op.oid));
    } else {
      framed.Clear();
      FrameInto(op.oid, op.class_name, op.state, &framed);
      SENTINEL_RETURN_IF_ERROR(
          wal_.Append(WalRecordType::kPut, id, op.oid, framed.buffer()));
    }
  }
  SENTINEL_RETURN_IF_ERROR(wal_.Append(WalRecordType::kCommit, id, 0));
  SENTINEL_RETURN_IF_ERROR(group_commit_ != nullptr ? group_commit_->Sync()
                                                    : wal_.Sync());
  for (const ReplOp& op : ops) {
    if (op.del) {
      Status s = ApplyDelete(op.oid);
      // A delete shipped twice (batch replay after a follower restart)
      // finds nothing the second time: that is idempotent redo, not error.
      if (!s.ok() && !s.IsNotFound()) return s;
    } else {
      SENTINEL_RETURN_IF_ERROR(InstallImage(op.oid, op.class_name, op.state));
    }
  }
  return Status::OK();
}

Status ObjectStore::SaveCatalog(const ClassCatalog& catalog) {
  Encoder enc;
  catalog.Encode(&enc);
  return SystemApplyBatch({{.oid = kCatalogOid,
                            .class_name = kCatalogClass,
                            .state = enc.Release()}});
}

Status ObjectStore::LoadCatalog(ClassCatalog* catalog) {
  if (!open_) return Status::FailedPrecondition("store not open");
  std::string class_name, state;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Status s = ReadObjectLocked(kCatalogOid, &class_name, &state);
    if (s.IsNotFound()) return Status::NotFound("no saved catalog");
    SENTINEL_RETURN_IF_ERROR(s);
  }
  Decoder dec(state);
  return catalog->Decode(&dec);
}

}  // namespace sentinel
