// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "histlog/segment_store.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/codec.h"
#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/logging.h"

namespace sentinel {

namespace fs = std::filesystem;

namespace {

constexpr const char* kSegPrefix = "seg-";
constexpr const char* kSegSuffix = ".hist";

std::string SegmentPath(const std::string& dir, uint64_t id) {
  return dir + "/" + kSegPrefix + std::to_string(id) + kSegSuffix;
}

/// splitmix64: cheap, well-mixed hash for the oid bloom filter.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Status ReadWholeFile(const std::string& path, std::string* out) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  if (size < 0) {
    std::fclose(f);
    return Status::IOError("cannot size " + path);
  }
  std::fseek(f, 0, SEEK_SET);
  out->resize(static_cast<size_t>(size));
  size_t got = size == 0 ? 0 : std::fread(out->data(), 1, out->size(), f);
  std::fclose(f);
  if (got != out->size()) return Status::IOError("short read of " + path);
  return Status::OK();
}

}  // namespace

/// The one reader of [len][crc][body] records, walking a segment image from
/// byte 0. Next() yields each record whose CRC checks and returns false at
/// the footer sentinel, a torn tail, or a CRC mismatch; a buffered append
/// still in flight looks exactly like a torn tail. end() is the offset just
/// past the last record Next() returned. Decode() is how every caller reads
/// a body: a record whose CRC checks was written whole, so one that does
/// not decode is Corruption, never a tail to stop at or cut away.
class HistorySegmentStore::RecordReader {
 public:
  explicit RecordReader(std::string_view bytes) : bytes_(bytes) {}

  bool Next(std::string_view* body) {
    if (bytes_.size() - end_ < 8) return false;
    uint32_t len = 0, crc = 0;
    std::memcpy(&len, bytes_.data() + end_, 4);
    if (len == kFooterSentinel) return false;
    std::memcpy(&crc, bytes_.data() + end_ + 4, 4);
    if (bytes_.size() - end_ - 8 < len) return false;
    const char* p = bytes_.data() + end_ + 8;
    if (Crc32c(p, len) != crc) return false;
    *body = std::string_view(p, len);
    end_ += 8 + len;
    return true;
  }

  size_t end() const { return end_; }

  static Status Decode(std::string_view body, const std::string& path,
                       EventOccurrence* occ) {
    Status s = DecodeRecordBody(body, occ);
    if (s.ok()) return s;
    return Status::Corruption("undecodable record in " + path + ": " +
                              s.ToString());
  }

 private:
  std::string_view bytes_;
  size_t end_ = 0;
};

void HistorySegmentStore::SegmentStats::Observe(const EventOccurrence& occ) {
  ++record_count;
  min_seq = std::min(min_seq, occ.timestamp.seq);
  max_seq = std::max(max_seq, occ.timestamp.seq);
  min_micros = std::min(min_micros, occ.timestamp.micros);
  max_micros = std::max(max_micros, occ.timestamp.micros);
  BloomAdd(&bloom, occ.oid);
}

void HistorySegmentStore::BloomAdd(std::string* bloom, Oid oid) {
  uint64_t h = Mix64(oid);
  for (int k = 0; k < 4; ++k) {
    uint32_t bit = static_cast<uint32_t>(h >> (k * 16)) &
                   (kBloomBytes * 8 - 1);
    (*bloom)[bit / 8] |= static_cast<char>(1u << (bit % 8));
  }
}

bool HistorySegmentStore::BloomMayContain(const std::string& bloom, Oid oid) {
  uint64_t h = Mix64(oid);
  for (int k = 0; k < 4; ++k) {
    uint32_t bit = static_cast<uint32_t>(h >> (k * 16)) &
                   (kBloomBytes * 8 - 1);
    if ((bloom[bit / 8] & static_cast<char>(1u << (bit % 8))) == 0) {
      return false;
    }
  }
  return true;
}

std::string HistorySegmentStore::EncodeRecord(const EventOccurrence& occ) {
  Encoder body;
  body.PutU64(occ.oid);
  body.PutString(occ.class_name);
  body.PutString(occ.method);
  body.PutU8(static_cast<uint8_t>(occ.modifier));
  body.PutValueList(occ.params);
  body.PutI64(occ.timestamp.micros);
  body.PutU64(occ.timestamp.seq);

  Encoder framed;
  framed.PutU32(static_cast<uint32_t>(body.size()));
  framed.PutU32(Crc32c(body.buffer().data(), body.size()));
  framed.PutRaw(body.buffer().data(), body.size());
  return framed.Release();
}

Status HistorySegmentStore::DecodeRecordBody(std::string_view body,
                                             EventOccurrence* occ) {
  Decoder dec(body.data(), body.size());
  uint64_t oid = 0;
  uint8_t modifier = 0;
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&oid));
  occ->oid = oid;
  SENTINEL_RETURN_IF_ERROR(dec.GetString(&occ->class_name));
  SENTINEL_RETURN_IF_ERROR(dec.GetString(&occ->method));
  SENTINEL_RETURN_IF_ERROR(dec.GetU8(&modifier));
  occ->modifier = static_cast<EventModifier>(modifier);
  SENTINEL_RETURN_IF_ERROR(dec.GetValueList(&occ->params));
  SENTINEL_RETURN_IF_ERROR(dec.GetI64(&occ->timestamp.micros));
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&occ->timestamp.seq));
  occ->txn = nullptr;
  return Status::OK();
}

std::string HistorySegmentStore::EncodeFooter(const SegmentStats& stats) {
  Encoder body;
  body.PutU64(stats.record_count);
  body.PutU64(stats.min_seq);
  body.PutU64(stats.max_seq);
  body.PutI64(stats.min_micros);
  body.PutI64(stats.max_micros);
  body.PutRaw(stats.bloom.data(), stats.bloom.size());

  Encoder footer;
  footer.PutU32(kFooterSentinel);
  footer.PutRaw(body.buffer().data(), body.size());
  footer.PutU32(Crc32c(body.buffer().data(), body.size()));
  footer.PutRaw(kFooterMagic, 4);
  return footer.Release();
}

size_t HistorySegmentStore::FooterSize() {
  // sentinel + 5 u64-wide stats + bloom + crc + magic.
  return 4 + 40 + kBloomBytes + 4 + 4;
}

bool HistorySegmentStore::DecodeFooter(const std::string& tail,
                                       SegmentStats* stats) {
  const size_t size = FooterSize();
  if (tail.size() < size) return false;
  const char* p = tail.data() + (tail.size() - size);
  if (std::memcmp(tail.data() + tail.size() - 4, kFooterMagic, 4) != 0) {
    return false;
  }
  Decoder dec(p, size - 4);
  uint32_t sentinel = 0;
  if (!dec.GetU32(&sentinel).ok() || sentinel != kFooterSentinel) {
    return false;
  }
  const char* body = p + 4;
  const size_t body_len = 40 + kBloomBytes;
  uint32_t want_crc = 0;
  std::memcpy(&want_crc, p + 4 + body_len, 4);
  if (Crc32c(body, body_len) != want_crc) return false;
  Decoder bd(body, body_len);
  bd.GetU64(&stats->record_count).ok();
  bd.GetU64(&stats->min_seq).ok();
  bd.GetU64(&stats->max_seq).ok();
  bd.GetI64(&stats->min_micros).ok();
  bd.GetI64(&stats->max_micros).ok();
  stats->bloom.assign(body + 40, kBloomBytes);
  return true;
}

HistorySegmentStore::HistorySegmentStore(std::string dir,
                                         size_t segment_bytes,
                                         MetricsRegistry& metrics,
                                         const std::string& metric_prefix)
    : dir_(std::move(dir)),
      segment_bytes_(segment_bytes == 0 ? 1 : segment_bytes),
      m_appends_(metrics.counter(metric_prefix + ".appends")),
      m_rotations_(metrics.counter(metric_prefix + ".rotations")),
      m_scan_skipped_(
          metrics.counter(metric_prefix + ".scan_segments_skipped")) {}

HistorySegmentStore::~HistorySegmentStore() { Close().ok(); }

Status HistorySegmentStore::Open() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (open_) return Status::OK();
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::IOError("cannot create history dir " + dir_ + ": " +
                           ec.message());
  }
  segments_.clear();
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kSegPrefix, 0) != 0) continue;
    const size_t suffix_at = name.find(kSegSuffix);
    if (suffix_at == std::string::npos) continue;
    SegmentInfo info;
    info.path = entry.path().string();
    info.id = std::strtoull(name.c_str() + 4, nullptr, 10);
    segments_.push_back(std::move(info));
  }
  if (ec) {
    return Status::IOError("cannot list history dir " + dir_ + ": " +
                           ec.message());
  }
  std::sort(segments_.begin(), segments_.end(),
            [](const SegmentInfo& a, const SegmentInfo& b) {
              return a.id < b.id;
            });
  next_id_ = segments_.empty() ? 0 : segments_.back().id + 1;
  for (SegmentInfo& info : segments_) {
    SENTINEL_RETURN_IF_ERROR(InspectSegment(&info));
  }
  // Resume appending into an unsealed tail segment; a sealed tail (or an
  // empty store) starts a fresh segment lazily at the first Append.
  active_ = nullptr;
  active_bytes_ = 0;
  active_stats_ = SegmentStats();
  active_empty_ = true;
  if (!segments_.empty() && !segments_.back().sealed) {
    SENTINEL_RETURN_IF_ERROR(RecoverActiveLocked(&segments_.back()));
  }
  open_ = true;
  return Status::OK();
}

Status HistorySegmentStore::InspectSegment(SegmentInfo* info) const {
  std::string bytes;
  SENTINEL_RETURN_IF_ERROR(ReadWholeFile(info->path, &bytes));
  info->sealed = DecodeFooter(bytes, &info->stats);
  return Status::OK();
}

Status HistorySegmentStore::RecoverActiveLocked(SegmentInfo* info) {
  // Walk the records, rebuilding the footer stats; a torn tail (crash mid
  // append) is truncated so the resumed segment stays well-formed.
  std::string bytes;
  SENTINEL_RETURN_IF_ERROR(ReadWholeFile(info->path, &bytes));
  RecordReader reader(bytes);
  std::string_view body;
  SegmentStats stats;
  while (reader.Next(&body)) {
    EventOccurrence occ;
    SENTINEL_RETURN_IF_ERROR(RecordReader::Decode(body, info->path, &occ));
    stats.Observe(occ);
  }
  const size_t pos = reader.end();  // End of the last record that checks.
  if (pos < bytes.size()) {
    SENTINEL_WARN << "event=history_segment_truncated path=" << info->path
                  << " valid_bytes=" << pos << " file_bytes=" << bytes.size();
    std::error_code ec;
    fs::resize_file(info->path, pos, ec);
    if (ec) {
      return Status::IOError("cannot truncate " + info->path + ": " +
                             ec.message());
    }
  }
  active_ = std::fopen(info->path.c_str(), "ab");
  if (active_ == nullptr) {
    return Status::IOError("cannot reopen history segment " + info->path);
  }
  active_bytes_ = pos;
  active_stats_ = stats;
  active_empty_ = false;
  return Status::OK();
}

Status HistorySegmentStore::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!open_ && active_ == nullptr) return Status::OK();
  if (active_ != nullptr) {
    if (FailPoints::AnyActive() && FailPoints::Instance().crashed()) {
      // Simulated crash: drop buffered appends instead of letting fclose
      // flush them (same idiom as WalManager).
      ::close(fileno(active_));
    } else {
      std::fflush(active_);
    }
    std::fclose(active_);
    active_ = nullptr;
  }
  open_ = false;
  return Status::OK();
}

Status HistorySegmentStore::OpenActiveLocked() {
  SegmentInfo info;
  info.id = next_id_++;
  info.path = SegmentPath(dir_, info.id);
  info.sealed = false;
  active_ = std::fopen(info.path.c_str(), "wb");
  if (active_ == nullptr) {
    return Status::IOError("cannot create history segment " + info.path);
  }
  segments_.push_back(std::move(info));
  active_bytes_ = 0;
  active_stats_ = SegmentStats();
  active_empty_ = false;
  return Status::OK();
}

Status HistorySegmentStore::SealActiveLocked() {
  if (FailPoints::AnyActive()) {
    SENTINEL_RETURN_IF_ERROR(FailPoints::Instance().Check("histlog.rotate"));
  }
  const std::string footer = EncodeFooter(active_stats_);
  if (std::fwrite(footer.data(), 1, footer.size(), active_) !=
      footer.size()) {
    return Status::IOError("history segment seal failed");
  }
  std::fflush(active_);
  std::fclose(active_);
  active_ = nullptr;
  segments_.back().sealed = true;
  segments_.back().stats = active_stats_;
  active_empty_ = true;
  m_rotations_->Add();
  return Status::OK();
}

Status HistorySegmentStore::Append(const EventOccurrence& occ) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!open_) return Status::FailedPrecondition("history store not open");
  const std::string framed = EncodeRecord(occ);
  if (!active_empty_ && active_bytes_ + framed.size() > segment_bytes_ &&
      active_stats_.record_count > 0) {
    SENTINEL_RETURN_IF_ERROR(SealActiveLocked());
  }
  if (active_empty_) {
    SENTINEL_RETURN_IF_ERROR(OpenActiveLocked());
  }
  if (FailPoints::AnyActive()) {
    size_t partial = 0;
    Status fp = FailPoints::Instance().Check("histlog.append", &partial);
    if (!fp.ok()) {
      if (partial > 0) {
        // Torn write: a prefix of the frame reaches the file.
        std::fwrite(framed.data(), 1, std::min(partial, framed.size()),
                    active_);
        std::fflush(active_);
      }
      return fp;
    }
  }
  if (std::fwrite(framed.data(), 1, framed.size(), active_) !=
      framed.size()) {
    return Status::IOError("history append failed");
  }
  active_bytes_ += framed.size();
  active_stats_.Observe(occ);
  m_appends_->Add();
  return Status::OK();
}

Status HistorySegmentStore::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (active_ != nullptr) std::fflush(active_);
  return Status::OK();
}

Status HistorySegmentStore::ScanFrom(uint64_t after_ordinal,
                                     size_t max_rows,
                                     std::vector<EventOccurrence>* out,
                                     uint64_t* next_ordinal) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!open_) return Status::FailedPrecondition("history store not open");
  if (active_ != nullptr) std::fflush(active_);
  *next_ordinal = after_ordinal;
  uint64_t ordinal = 0;  // Records walked so far, across segments.
  for (const SegmentInfo& info : segments_) {
    if (max_rows != 0 && out->size() >= max_rows) break;
    if (info.sealed &&
        ordinal + info.stats.record_count <= after_ordinal) {
      // The whole segment is behind the cursor: footer count skips it.
      ordinal += info.stats.record_count;
      continue;
    }
    std::string bytes;
    SENTINEL_RETURN_IF_ERROR(ReadWholeFile(info.path, &bytes));
    RecordReader reader(bytes);
    std::string_view body;
    while (reader.Next(&body)) {
      if (++ordinal <= after_ordinal) continue;
      EventOccurrence occ;
      SENTINEL_RETURN_IF_ERROR(RecordReader::Decode(body, info.path, &occ));
      out->push_back(std::move(occ));
      *next_ordinal = ordinal;
      if (max_rows != 0 && out->size() >= max_rows) return Status::OK();
    }
  }
  return Status::OK();
}

Status HistorySegmentStore::ScanFileLocked(
    const std::string& path, const HistoryQuery& query,
    std::vector<EventOccurrence>* out, bool* stop) const {
  std::string bytes;
  SENTINEL_RETURN_IF_ERROR(ReadWholeFile(path, &bytes));
  RecordReader reader(bytes);
  std::string_view body;
  while (reader.Next(&body)) {
    EventOccurrence occ;
    SENTINEL_RETURN_IF_ERROR(RecordReader::Decode(body, path, &occ));
    if (query.Matches(occ)) {
      out->push_back(std::move(occ));
      if (query.limit != 0 && out->size() >= query.limit) {
        *stop = true;
        return Status::OK();
      }
    }
  }
  return Status::OK();
}

Status HistorySegmentStore::Scan(const HistoryQuery& query,
                                 std::vector<EventOccurrence>* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!open_) return Status::FailedPrecondition("history store not open");
  if (active_ != nullptr) std::fflush(active_);
  bool stop = false;
  for (const SegmentInfo& info : segments_) {
    if (stop) break;
    if (info.sealed) {
      // Footer pruning: skip the whole segment when the stats prove no
      // record can match.
      const SegmentStats& st = info.stats;
      if (st.max_seq < query.min_seq || st.max_seq <= query.after_seq ||
          st.min_seq > query.max_seq ||
          st.max_micros < query.min_micros ||
          st.min_micros > query.max_micros ||
          (query.oid != kInvalidOid &&
           !BloomMayContain(st.bloom, query.oid))) {
        m_scan_skipped_->Add();
        continue;
      }
    }
    SENTINEL_RETURN_IF_ERROR(ScanFileLocked(info.path, query, out, &stop));
  }
  return Status::OK();
}

uint64_t HistorySegmentStore::TotalRecords() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const SegmentInfo& info : segments_) {
    if (info.sealed) total += info.stats.record_count;
  }
  if (!segments_.empty() && !segments_.back().sealed) {
    total += active_stats_.record_count;
  }
  return total;
}

size_t HistorySegmentStore::segment_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segments_.size();
}

}  // namespace sentinel
