// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "txn/wal.h"

#include <cstring>

#include "common/clock.h"
#include "common/codec.h"
#include "common/crc32c.h"
#include "common/failpoint.h"

namespace sentinel {

namespace {

constexpr char kMagic[4] = {'S', 'W', 'A', 'L'};
constexpr uint32_t kFormatVersion = 2;
constexpr size_t kHeaderSize = 24;
constexpr size_t kBodyHead = 1 + 8 + 8 + 4;  // type, txn, oid, payload len.

std::string EncodeHeader(uint64_t base_lsn) {
  Encoder enc;
  enc.PutRaw(kMagic, 4);
  enc.PutU32(kFormatVersion);
  enc.PutU64(base_lsn);
  uint32_t crc = Crc32c(enc.buffer().data(), enc.size());
  enc.PutU32(crc);
  enc.PutU32(0);  // Pad to kHeaderSize.
  return enc.Release();
}

/// Validates a header and returns its base LSN.
Result<uint64_t> DecodeHeader(const std::string& header) {
  if (header.size() < 4 || std::memcmp(header.data(), kMagic, 4) != 0) {
    // Not a log this code wrote; refuse it rather than append to it.
    return Status::Corruption("wal file lacks the SWAL header");
  }
  if (header.size() < kHeaderSize) {
    return Status::Corruption("wal header truncated");
  }
  Decoder dec(header.data() + 4, kHeaderSize - 4);
  uint32_t version = 0, stored_crc = 0;
  uint64_t base = 0;
  dec.GetU32(&version).ok();
  dec.GetU64(&base).ok();
  dec.GetU32(&stored_crc).ok();
  if (Crc32c(header.data(), 16) != stored_crc) {  // magic+version+base.
    return Status::Corruption("wal header crc mismatch");
  }
  if (version != kFormatVersion) {
    return Status::Corruption("unsupported wal version " +
                              std::to_string(version));
  }
  return base;
}

}  // namespace

bool WalRecordView::Parse(std::string_view body) {
  uint32_t len = 0;
  if (body.size() < kBodyHead) return false;
  std::memcpy(&len, body.data() + 17, 4);
  if (len > body.size() - kBodyHead) return false;
  type = static_cast<WalRecordType>(body[0]);
  std::memcpy(&txn, body.data() + 1, 8);
  std::memcpy(&oid, body.data() + 9, 8);
  payload = body.substr(kBodyHead, len);
  bytes = body.substr(0, kBodyHead + len);
  return true;
}

WalManager::~WalManager() { Close().ok(); }

Status WalManager::Open(const std::string& path) {
  if (log_.is_open()) return Status::FailedPrecondition("wal already open");
  std::string header;
  SENTINEL_RETURN_IF_ERROR(log_.Open(path, EncodeHeader(0), &header));
  Result<uint64_t> base = DecodeHeader(header);
  // The recovery walk cuts a torn tail; a CRC mismatch stays in place for
  // ReadAll to report as Corruption.
  Status s = base.ok() ? log_.Recover(*base, false, nullptr) : base.status();
  if (!s.ok()) log_.Close(/*drop_pending=*/true).ok();
  return s;
}

Status WalManager::Close() {
  // Under a simulated crash, buffered-but-unsynced appends are dropped, as
  // if the process had died.
  return log_.Close(FailPoints::AnyActive() &&
                    FailPoints::Instance().crashed());
}

Status WalManager::Append(WalRecordType type, TxnId txn, uint64_t oid,
                          std::string_view payload) {
  // body = [u8 type][u64 txn][u64 oid][u32 payload_len][payload] — the
  // Encoder's byte order.
  char head[kBodyHead];
  const auto payload_len = static_cast<uint32_t>(payload.size());
  head[0] = static_cast<char>(type);
  std::memcpy(head + 1, &txn, 8);
  std::memcpy(head + 9, &oid, 8);
  std::memcpy(head + 17, &payload_len, 4);
  return log_.Append(std::string_view(head, sizeof(head)), payload);
}

Status WalManager::Sync() {
  if (sync_failed_.load(std::memory_order_acquire)) {
    return Status::IOError(
        "wal sync previously failed; reopen required before further "
        "commits");
  }
  Status s = Status::OK();
  if (FailPoints::AnyActive()) s = FailPoints::Instance().Check("wal.sync");
  const int64_t start = SteadyNowNs();
  if (s.ok()) {
    s = log_.Sync();
    if (s.IsFailedPrecondition()) return s;  // Not open.
  }
  if (!s.ok()) {
    sync_failed_.store(true, std::memory_order_release);
    return s;
  }
  m_sync_ns_->Record(SteadyNowNs() - start);
  return Status::OK();
}

Status WalManager::ReadAll(std::vector<WalRecord>* out) {
  uint64_t next_lsn = 0;
  return ReadFrom(log_.base(), SIZE_MAX, out, &next_lsn);
}

Status WalManager::ReadFrom(uint64_t from_lsn, size_t max_records,
                            std::vector<WalRecord>* out,
                            uint64_t* next_lsn) {
  out->clear();
  return ReadFrom(
      from_lsn, max_records,
      [out](const WalRecordView& rec) {
        out->push_back(
            WalRecord{rec.type, rec.txn, rec.oid, std::string(rec.payload)});
        return true;
      },
      next_lsn);
}

Status WalManager::ReadFrom(
    uint64_t from_lsn, size_t max_records,
    const std::function<bool(const WalRecordView&)>& visit,
    uint64_t* next_lsn) {
  *next_lsn = from_lsn;
  SENTINEL_ASSIGN_OR_RETURN(RecordLog::Snapshot snap, log_.TakeSnapshot());
  if (from_lsn < snap.base() || from_lsn > snap.end()) {
    return Status::OutOfRange("lsn " + std::to_string(from_lsn) +
                              " outside the log [" +
                              std::to_string(snap.base()) + ", " +
                              std::to_string(snap.end()) + "]");
  }
  RecordLog::Reader reader(std::move(snap), from_lsn);
  std::string_view body;
  for (size_t n = 0; n < max_records && reader.Next(&body); ++n) {
    WalRecordView rec;
    if (!rec.Parse(body)) {
      // CRC passed but the body does not decode: structural corruption.
      return Status::Corruption("malformed wal record at lsn " +
                                std::to_string(*next_lsn));
    }
    if (!visit(rec)) return Status::OK();
    *next_lsn = reader.pos();
  }
  switch (reader.stop()) {
    case RecordLog::Stop::kCrcMismatch:
      // Fully present but wrong: media/software corruption, not a crash
      // tail — surface it rather than replay garbage (or silently drop the
      // valid records that may follow).
      return Status::Corruption("wal record crc mismatch at lsn " +
                                std::to_string(*next_lsn));
    case RecordLog::Stop::kIOError:
      return Status::IOError("wal read failed at lsn " +
                             std::to_string(*next_lsn));
    default:
      return Status::OK();  // End, or a torn tail: crash semantics.
  }
}

Result<uint64_t> WalManager::BaseLsn() {
  if (!log_.is_open()) return Status::FailedPrecondition("wal not open");
  return log_.base();
}

Result<uint64_t> WalManager::CurrentLsn() {
  if (!log_.is_open()) return Status::FailedPrecondition("wal not open");
  return log_.end();
}

Status WalManager::Truncate(uint64_t stable_lsn) {
  uint64_t dropped = 0;
  SENTINEL_RETURN_IF_ERROR(log_.Rewrite(stable_lsn, EncodeHeader(stable_lsn),
                                        "wal.truncate.rename", &dropped));
  m_truncated_bytes_->Add(dropped);
  return Status::OK();
}

Status WalManager::TruncateTo(uint64_t stable_lsn) {
  SENTINEL_FAILPOINT("wal.truncate");
  return Truncate(stable_lsn);
}

Status WalManager::Reset() {
  SENTINEL_FAILPOINT("wal.reset");
  if (!log_.is_open()) return Status::FailedPrecondition("wal not open");
  return Truncate(log_.end());
}

Result<uint64_t> WalManager::SizeBytes() {
  if (!log_.is_open()) return Status::FailedPrecondition("wal not open");
  return log_.end() - log_.base();
}

}  // namespace sentinel
