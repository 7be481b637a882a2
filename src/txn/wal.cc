// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "txn/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
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

/// Upper bound on one record's framed body; a claimed length beyond this is
/// treated as tail garbage rather than attempted as an allocation.
constexpr uint32_t kMaxRecordBody = 64u << 20;

/// Best-effort fsync of the directory containing `path`, so a just-renamed
/// file survives a crash of the directory entry itself.
void SyncParentDir(const std::string& path) {
  size_t slash = path.rfind('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}

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

}  // namespace

WalManager::~WalManager() { Close().ok(); }

Status WalManager::WriteHeader(std::FILE* f, uint64_t base_lsn) {
  std::string header = EncodeHeader(base_lsn);
  if (std::fwrite(header.data(), 1, header.size(), f) != header.size()) {
    return Status::IOError("wal header write failed");
  }
  if (std::fflush(f) != 0) return Status::IOError("wal header flush failed");
  return Status::OK();
}

Status WalManager::OpenFileLocked() {
  file_ = std::fopen(path_.c_str(), "r+b");
  if (file_ == nullptr) {
    return Status::IOError("cannot open " + path_ + ": " +
                           std::strerror(errno));
  }
  if (stdio_buffer_ == nullptr) {
    stdio_buffer_ = std::make_unique_for_overwrite<char[]>(kStdioBufferBytes);
  }
  std::setvbuf(file_, stdio_buffer_.get(), _IOFBF, kStdioBufferBytes);
  std::fseek(file_, 0, SEEK_END);
  return Status::OK();
}

Status WalManager::Open(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) return Status::FailedPrecondition("wal already open");
  std::FILE* probe = std::fopen(path.c_str(), "ab");
  if (probe == nullptr) {
    return Status::IOError("cannot create " + path + ": " +
                           std::strerror(errno));
  }
  std::fclose(probe);
  path_ = path;
  SENTINEL_RETURN_IF_ERROR(OpenFileLocked());
  long size = std::ftell(file_);

  Status s = size == 0 ? WriteHeader(file_, 0) : ReadHeader();
  if (!s.ok()) {
    std::fclose(file_);
    file_ = nullptr;
    return s;
  }
  std::fseek(file_, 0, SEEK_END);
  return Status::OK();
}

Status WalManager::ReadHeader() {
  std::fseek(file_, 0, SEEK_SET);
  char header[kHeaderSize];
  size_t got = std::fread(header, 1, kHeaderSize, file_);
  if (got < 4 || std::memcmp(header, kMagic, 4) != 0) {
    // Not a log this code wrote; refuse it rather than append to it.
    return Status::Corruption("wal file lacks the SWAL header");
  }
  if (got < kHeaderSize) return Status::Corruption("wal header truncated");
  Decoder dec(header + 4, kHeaderSize - 4);
  uint32_t version = 0, stored_crc = 0;
  uint64_t base = 0;
  dec.GetU32(&version).ok();
  dec.GetU64(&base).ok();
  dec.GetU32(&stored_crc).ok();
  if (Crc32c(header, 16) != stored_crc) {  // magic + version + base_lsn.
    return Status::Corruption("wal header crc mismatch");
  }
  if (version != kFormatVersion) {
    return Status::Corruption("unsupported wal version " +
                              std::to_string(version));
  }
  base_lsn_ = base;
  return Status::OK();
}

Status WalManager::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return Status::OK();
  if (FailPoints::AnyActive() && FailPoints::Instance().crashed()) {
    // Simulated crash: drop buffered-but-unsynced appends instead of
    // letting fclose flush them — closing the descriptor first makes
    // fclose's implicit flush fail, as if the process had died.
    ::close(fileno(file_));
    std::fclose(file_);
    file_ = nullptr;
    return Status::OK();
  }
  std::fflush(file_);
  std::fclose(file_);
  file_ = nullptr;
  return Status::OK();
}

Status WalManager::Append(WalRecordType type, TxnId txn, uint64_t oid,
                          std::string_view payload) {
  // [u32 body_len][u32 crc32c(body)][body], body = [u8 type][u64 txn]
  // [u64 oid][u32 payload_len][payload] — the Encoder's byte order.
  constexpr size_t kBodyHead = 1 + 8 + 8 + 4;
  char head[8 + kBodyHead];
  const auto payload_len = static_cast<uint32_t>(payload.size());
  const auto body_len = static_cast<uint32_t>(kBodyHead + payload.size());
  head[8] = static_cast<char>(type);
  std::memcpy(head + 9, &txn, 8);
  std::memcpy(head + 17, &oid, 8);
  std::memcpy(head + 25, &payload_len, 4);
  const uint32_t crc = ExtendCrc32c(Crc32c(head + 8, kBodyHead),
                                    payload.data(), payload.size());
  std::memcpy(head, &body_len, 4);
  std::memcpy(head + 4, &crc, 4);

  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return Status::FailedPrecondition("wal not open");
  if (FailPoints::AnyActive()) {
    size_t partial = 0;
    Status fp = FailPoints::Instance().Check("wal.append", &partial);
    if (!fp.ok()) {
      if (partial > 0) {
        // Torn write: the first `partial` bytes of the framed record reach
        // the file (and the OS — the crash, not the buffer, ate the rest).
        std::fwrite(head, 1, std::min(partial, sizeof(head)), file_);
        if (partial > sizeof(head)) {
          std::fwrite(payload.data(), 1,
                      std::min(partial - sizeof(head), payload.size()),
                      file_);
        }
        std::fflush(file_);
      }
      return fp;
    }
  }
  if (std::fwrite(head, 1, sizeof(head), file_) != sizeof(head) ||
      (!payload.empty() &&
       std::fwrite(payload.data(), 1, payload.size(), file_) !=
           payload.size())) {
    return Status::IOError("wal append failed");
  }
  return Status::OK();
}

Status WalManager::Sync() {
  if (sync_failed_.load(std::memory_order_acquire)) {
    return Status::IOError(
        "wal sync previously failed; reopen required before further "
        "commits");
  }
  Status injected = Status::OK();
  if (FailPoints::AnyActive()) {
    injected = FailPoints::Instance().Check("wal.sync");
  }
  if (!injected.ok()) {
    sync_failed_.store(true, std::memory_order_release);
    return injected;
  }
  const int64_t start = SteadyNowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return Status::FailedPrecondition("wal not open");
  if (std::fflush(file_) != 0) {
    sync_failed_.store(true, std::memory_order_release);
    return Status::IOError("wal flush failed");
  }
  if (::fdatasync(fileno(file_)) != 0) {
    sync_failed_.store(true, std::memory_order_release);
    return Status::IOError("wal fsync failed: " +
                           std::string(std::strerror(errno)));
  }
  m_sync_ns_->Record(SteadyNowNs() - start);
  return Status::OK();
}

Status WalManager::ReadAll(std::vector<WalRecord>* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return Status::FailedPrecondition("wal not open");
  uint64_t next_lsn = 0;
  return ReadFromLocked(base_lsn_, SIZE_MAX, out, &next_lsn);
}

Status WalManager::ReadFrom(uint64_t from_lsn, size_t max_records,
                            std::vector<WalRecord>* out,
                            uint64_t* next_lsn) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return Status::FailedPrecondition("wal not open");
  return ReadFromLocked(from_lsn, max_records, out, next_lsn);
}

Status WalManager::ReadFromLocked(uint64_t from_lsn, size_t max_records,
                                  std::vector<WalRecord>* out,
                                  uint64_t* next_lsn) {
  out->clear();
  *next_lsn = from_lsn;
  if (from_lsn < base_lsn_) {
    return Status::OutOfRange("lsn " + std::to_string(from_lsn) +
                              " truncated away (base " +
                              std::to_string(base_lsn_) + ")");
  }
  std::fflush(file_);
  std::fseek(file_, 0, SEEK_END);
  long file_size = std::ftell(file_);
  long pos = static_cast<long>(kHeaderSize + (from_lsn - base_lsn_));
  if (pos > file_size) {
    return Status::OutOfRange("lsn " + std::to_string(from_lsn) +
                              " past the log end");
  }
  if (std::fseek(file_, pos, SEEK_SET) != 0) {
    return Status::IOError("wal seek failed");
  }
  constexpr size_t kFrameOverhead = 8;  // u32 length + u32 crc.
  Status result = Status::OK();
  while (out->size() < max_records) {
    uint32_t len = 0;
    size_t got = std::fread(&len, 1, 4, file_);
    if (got < 4) break;  // Clean end or torn length: stop.
    uint64_t remaining = static_cast<uint64_t>(file_size - pos);
    if (len > kMaxRecordBody || kFrameOverhead + len > remaining) {
      break;  // Torn record (claims more bytes than exist): crash tail.
    }
    uint32_t stored_crc = 0;
    if (std::fread(&stored_crc, 1, 4, file_) < 4) break;
    std::string record_body(len, '\0');
    got = std::fread(record_body.data(), 1, len, file_);
    if (got < len) break;  // Torn record body: stop (crash tail).
    const uint64_t lsn = base_lsn_ + (pos - kHeaderSize);
    if (Crc32c(record_body) != stored_crc) {
      // The record is fully present but its bytes are wrong: this is
      // media/software corruption, not a crash tail — surface it rather
      // than replaying garbage (or silently dropping valid records that
      // may follow).
      result = Status::Corruption("wal record crc mismatch at lsn " +
                                  std::to_string(lsn));
      break;
    }
    Decoder dec(record_body);
    WalRecord rec;
    uint8_t type = 0;
    Status s = dec.GetU8(&type);
    if (s.ok()) s = dec.GetU64(&rec.txn);
    if (s.ok()) s = dec.GetU64(&rec.oid);
    if (s.ok()) s = dec.GetString(&rec.payload);
    if (!s.ok()) {
      // CRC passed but the body does not decode: structural corruption.
      result = Status::Corruption("malformed wal record at lsn " +
                                  std::to_string(lsn));
      break;
    }
    rec.type = static_cast<WalRecordType>(type);
    out->push_back(std::move(rec));
    pos += static_cast<long>(kFrameOverhead + len);
    *next_lsn = base_lsn_ + (pos - kHeaderSize);
  }
  std::fseek(file_, 0, SEEK_END);
  return result;
}

Result<uint64_t> WalManager::BaseLsn() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return Status::FailedPrecondition("wal not open");
  return base_lsn_;
}

Result<uint64_t> WalManager::CurrentLsn() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return Status::FailedPrecondition("wal not open");
  long pos = std::ftell(file_);
  if (pos < 0) return Status::IOError("ftell failed");
  return base_lsn_ + (static_cast<uint64_t>(pos) - kHeaderSize);
}

Status WalManager::TruncateToLocked(uint64_t stable_lsn) {
  if (file_ == nullptr) return Status::FailedPrecondition("wal not open");
  if (std::fflush(file_) != 0) return Status::IOError("wal flush failed");
  long end_pos = std::ftell(file_);
  if (end_pos < 0) return Status::IOError("ftell failed");
  uint64_t end_lsn = base_lsn_ + (static_cast<uint64_t>(end_pos) -
                                  kHeaderSize);
  if (stable_lsn < base_lsn_) {
    return Status::OK();  // Already truncated past this point.
  }
  if (stable_lsn > end_lsn) {
    return Status::InvalidArgument("truncate beyond log end");
  }

  // Read the surviving suffix [stable_lsn, end_lsn).
  long suffix_off =
      static_cast<long>(kHeaderSize + (stable_lsn - base_lsn_));
  std::string suffix(static_cast<size_t>(end_pos - suffix_off), '\0');
  if (std::fseek(file_, suffix_off, SEEK_SET) != 0 ||
      std::fread(suffix.data(), 1, suffix.size(), file_) != suffix.size()) {
    std::fseek(file_, 0, SEEK_END);
    return Status::IOError("wal suffix read failed");
  }
  std::fseek(file_, 0, SEEK_END);

  // Write header + suffix to a sibling, durably, then swap atomically: a
  // crash at any point leaves either the whole old log or the truncated
  // one — never a half-rewritten file.
  std::string tmp_path = path_ + ".tmp";
  std::FILE* tmp = std::fopen(tmp_path.c_str(), "wb");
  if (tmp == nullptr) {
    return Status::IOError("wal truncate: cannot create " + tmp_path);
  }
  std::string header = EncodeHeader(stable_lsn);
  bool wrote = std::fwrite(header.data(), 1, header.size(), tmp) ==
                   header.size() &&
               (suffix.empty() ||
                std::fwrite(suffix.data(), 1, suffix.size(), tmp) ==
                    suffix.size()) &&
               std::fflush(tmp) == 0 && ::fdatasync(fileno(tmp)) == 0;
  std::fclose(tmp);
  if (!wrote) {
    std::remove(tmp_path.c_str());
    return Status::IOError("wal truncate: tmp write failed");
  }
  SENTINEL_FAILPOINT("wal.truncate.rename");
  std::fclose(file_);
  file_ = nullptr;
  if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    Status rename_error = Status::IOError(
        "wal truncate rename failed: " + std::string(std::strerror(errno)));
    OpenFileLocked().ok();  // Old log is still intact.
    return rename_error;
  }
  SyncParentDir(path_);
  SENTINEL_RETURN_IF_ERROR(OpenFileLocked());
  uint64_t dropped = stable_lsn - base_lsn_;
  base_lsn_ = stable_lsn;
  m_truncated_bytes_->Add(dropped);
  return Status::OK();
}

Status WalManager::TruncateTo(uint64_t stable_lsn) {
  SENTINEL_FAILPOINT("wal.truncate");
  std::lock_guard<std::mutex> lock(mutex_);
  return TruncateToLocked(stable_lsn);
}

Status WalManager::Reset() {
  SENTINEL_FAILPOINT("wal.reset");
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return Status::FailedPrecondition("wal not open");
  std::fflush(file_);
  long pos = std::ftell(file_);
  if (pos < 0) return Status::IOError("ftell failed");
  return TruncateToLocked(base_lsn_ +
                          (static_cast<uint64_t>(pos) - kHeaderSize));
}

Result<uint64_t> WalManager::SizeBytes() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return Status::FailedPrecondition("wal not open");
  std::fflush(file_);
  long pos = std::ftell(file_);
  if (pos < 0) return Status::IOError("ftell failed");
  return static_cast<uint64_t>(pos) - kHeaderSize;
}

}  // namespace sentinel
