// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "histlog/segment_store.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/codec.h"
#include "common/crc32c.h"
#include "common/failpoint.h"

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

/// How every reader treats a record body: one whose CRC checks was written
/// whole, so one that does not decode is Corruption, never a tail to stop
/// at or cut away.
Status DecodeOrCorrupt(std::string_view body, const std::string& path,
                       EventOccurrence* occ) {
  Status s = HistorySegmentStore::DecodeRecordBody(body, occ);
  if (s.ok()) return s;
  return Status::Corruption("undecodable record in " + path + ": " +
                            s.ToString());
}

}  // namespace

void HistorySegmentStore::SegmentInfo::Add(const EventOccurrence& occ,
                                           uint64_t at) {
  if (stats.record_count % kIndexStride == 0) index.push_back(at);
  ++stats.record_count;
  stats.min_seq = std::min(stats.min_seq, occ.timestamp.seq);
  stats.max_seq = std::max(stats.max_seq, occ.timestamp.seq);
  stats.min_micros = std::min(stats.min_micros, occ.timestamp.micros);
  stats.max_micros = std::max(stats.max_micros, occ.timestamp.micros);
  BloomAdd(&stats.bloom, occ.oid);
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

std::string HistorySegmentStore::EncodeBody(const EventOccurrence& occ) {
  Encoder body;
  body.PutU64(occ.oid);
  body.PutString(occ.class_name);
  body.PutString(occ.method);
  body.PutU8(static_cast<uint8_t>(occ.modifier));
  body.PutValueList(occ.params);
  body.PutI64(occ.timestamp.micros);
  body.PutU64(occ.timestamp.seq);
  return body.Release();
}

std::string HistorySegmentStore::EncodeRecord(const EventOccurrence& occ) {
  return RecordLog::Frame(EncodeBody(occ));
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
  if (modifier > static_cast<uint8_t>(EventModifier::kEnd)) {
    return Status::Corruption("history record: bad event modifier " +
                              std::to_string(modifier));
  }
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
  footer.PutU32(RecordLog::kFooterSentinel);
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
  if (!dec.GetU32(&sentinel).ok() || sentinel != RecordLog::kFooterSentinel) {
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
  if (has_active()) {
    SENTINEL_RETURN_IF_ERROR(RecoverActiveLocked(&segments_.back()));
  }
  open_ = true;
  return Status::OK();
}

Status HistorySegmentStore::InspectSegment(SegmentInfo* info) {
  SENTINEL_ASSIGN_OR_RETURN(RecordLog::Snapshot snap,
                            RecordLog::OpenSnapshot(info->path));
  if (snap.file_size() < FooterSize()) return Status::OK();
  std::string footer;
  SENTINEL_RETURN_IF_ERROR(
      snap.ReadAt(snap.file_size() - FooterSize(), FooterSize(), &footer));
  info->sealed = DecodeFooter(footer, &info->stats);
  return Status::OK();
}

Status HistorySegmentStore::RecoverActiveLocked(SegmentInfo* info) {
  std::string no_header;
  SENTINEL_RETURN_IF_ERROR(log_.Open(info->path, {}, &no_header));
  Status s = log_.Recover(
      0, /*cut_crc_mismatch=*/true,
      [info](std::string_view body, uint64_t at) {
        EventOccurrence occ;
        SENTINEL_RETURN_IF_ERROR(DecodeOrCorrupt(body, info->path, &occ));
        info->Add(occ, at);
        return Status::OK();
      });
  if (!s.ok()) log_.Close(/*drop_pending=*/true).ok();
  return s;
}

Status HistorySegmentStore::Close() {
  std::lock_guard<std::mutex> lock(mutex_);
  open_ = false;
  // Under a simulated crash, buffered appends are dropped (as in the WAL).
  return log_.Close(FailPoints::AnyActive() &&
                    FailPoints::Instance().crashed());
}

Status HistorySegmentStore::OpenActiveLocked() {
  SegmentInfo info;
  info.id = next_id_++;
  info.path = SegmentPath(dir_, info.id);
  std::string no_header;
  SENTINEL_RETURN_IF_ERROR(log_.Open(info.path, {}, &no_header));
  segments_.push_back(std::move(info));
  return Status::OK();
}

Status HistorySegmentStore::SealActiveLocked() {
  if (FailPoints::AnyActive()) {
    SENTINEL_RETURN_IF_ERROR(FailPoints::Instance().Check("histlog.rotate"));
  }
  SENTINEL_RETURN_IF_ERROR(
      log_.AppendRaw(EncodeFooter(segments_.back().stats)));
  SENTINEL_RETURN_IF_ERROR(log_.Close(/*drop_pending=*/false));
  segments_.back().sealed = true;
  m_rotations_->Add();
  return Status::OK();
}

Status HistorySegmentStore::Append(const EventOccurrence& occ) {
  const std::string body = EncodeBody(occ);  // Outside the mutex.
  std::lock_guard<std::mutex> lock(mutex_);
  if (!open_) return Status::FailedPrecondition("history store not open");
  if (has_active() && segments_.back().stats.record_count > 0 &&
      log_.end() + 8 + body.size() > segment_bytes_) {
    SENTINEL_RETURN_IF_ERROR(SealActiveLocked());
  }
  if (!has_active()) SENTINEL_RETURN_IF_ERROR(OpenActiveLocked());
  const uint64_t at = log_.end();
  SENTINEL_RETURN_IF_ERROR(log_.Append(body));
  segments_.back().Add(occ, at);
  m_appends_->Add();
  return Status::OK();
}

Status HistorySegmentStore::Flush() {
  Status s = log_.Flush();
  return s.IsFailedPrecondition() ? Status::OK() : s;  // No active segment.
}

Status HistorySegmentStore::Walk(
    uint64_t after_ordinal,
    const std::function<bool(const SegmentStats&)>& prune,
    const RecordVisitor& visit) const {
  // Flush and snapshot the active segment first: every record appended
  // before the call is then readable.
  const Result<RecordLog::Snapshot> active = log_.TakeSnapshot();
  struct Part {
    std::string path;
    bool live;         // The segment being appended to.
    uint64_t from;     // File offset to start reading at.
    uint64_t ordinal;  // Ordinal of the record just before `from`.
  };
  std::vector<Part> parts;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!open_) return Status::FailedPrecondition("history store not open");
    uint64_t first = 0;  // Ordinal of the record before this segment.
    for (const SegmentInfo& info : segments_) {
      const uint64_t count = info.stats.record_count;
      first += count;
      if (info.sealed && (first <= after_ordinal || prune(info.stats))) {
        continue;  // The footer skips it without reading a record.
      }
      Part part{info.path, has_active() && &info == &segments_.back(), 0,
                first - count};
      if (after_ordinal > part.ordinal && !info.index.empty()) {
        const size_t k = static_cast<size_t>(
            std::min<uint64_t>((after_ordinal - part.ordinal) / kIndexStride,
                               info.index.size() - 1));
        part.from = info.index[k];
        part.ordinal += k * kIndexStride;
      }
      parts.push_back(std::move(part));
    }
  }
  // Read outside the mutex. A torn tail, CRC mismatch or footer ends one
  // segment's records. A sealed segment is read whole from its file (the
  // snapshot may predate its last records); the live one through the
  // snapshot, unless it started after the snapshot did.
  for (const Part& part : parts) {
    Result<RecordLog::Snapshot> snap = active;
    if (!part.live) {
      snap = RecordLog::OpenSnapshot(part.path);
    } else if (!active.ok() || active->path() != part.path) {
      break;
    }
    SENTINEL_RETURN_IF_ERROR(snap.status());
    RecordLog::Reader reader(std::move(snap).value(), part.from);
    std::string_view body;
    uint64_t ordinal = part.ordinal;
    bool done = false;
    while (!done && reader.Next(&body)) {
      if (++ordinal <= after_ordinal) continue;
      SENTINEL_RETURN_IF_ERROR(visit(body, ordinal, part.path, &done));
    }
    if (done) break;
    if (reader.stop() == RecordLog::Stop::kIOError) {
      return Status::IOError("cannot read " + part.path);
    }
  }
  return Status::OK();
}

Status HistorySegmentStore::ScanFrom(uint64_t after_ordinal, size_t max_rows,
                                     std::vector<std::string>* bodies,
                                     uint64_t* next_ordinal) const {
  *next_ordinal = after_ordinal;
  size_t rows = 0;
  return Walk(after_ordinal, [](const SegmentStats&) { return false; },
              [&](std::string_view body, uint64_t ordinal,
                  const std::string&, bool* done) {
                bodies->emplace_back(body);
                *next_ordinal = ordinal;
                *done = max_rows != 0 && ++rows >= max_rows;
                return Status::OK();
              });
}

Status HistorySegmentStore::ScanFrom(uint64_t after_ordinal, size_t max_rows,
                                     std::vector<EventOccurrence>* out,
                                     uint64_t* next_ordinal) const {
  std::vector<std::string> bodies;
  SENTINEL_RETURN_IF_ERROR(
      ScanFrom(after_ordinal, max_rows, &bodies, next_ordinal));
  for (const std::string& body : bodies) {
    out->emplace_back();
    SENTINEL_RETURN_IF_ERROR(DecodeOrCorrupt(body, dir_, &out->back()));
  }
  return Status::OK();
}

Status HistorySegmentStore::Scan(const HistoryQuery& query,
                                 std::vector<EventOccurrence>* out) const {
  // Footer pruning: skip a sealed segment whose stats prove no record can
  // match.
  auto prune = [&](const SegmentStats& st) {
    const bool skip =
        st.max_seq < query.min_seq || st.max_seq <= query.after_seq ||
        st.min_seq > query.max_seq || st.max_micros < query.min_micros ||
        st.min_micros > query.max_micros ||
        (query.oid != kInvalidOid && !BloomMayContain(st.bloom, query.oid));
    if (skip) m_scan_skipped_->Add();
    return skip;
  };
  size_t found = 0;
  return Walk(0, prune,
              [&](std::string_view body, uint64_t, const std::string& path,
                  bool* done) {
                EventOccurrence occ;
                SENTINEL_RETURN_IF_ERROR(DecodeOrCorrupt(body, path, &occ));
                if (query.Matches(occ)) {
                  out->push_back(std::move(occ));
                  *done = ++found == query.limit;
                }
                return Status::OK();
              });
}

uint64_t HistorySegmentStore::TotalRecords() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t total = 0;
  for (const SegmentInfo& info : segments_) total += info.stats.record_count;
  return total;
}

uint64_t HistorySegmentStore::MaxSeq() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t max_seq = 0;
  for (const SegmentInfo& info : segments_) {
    max_seq = std::max(max_seq, info.stats.max_seq);
  }
  return max_seq;
}

size_t HistorySegmentStore::segment_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segments_.size();
}

}  // namespace sentinel
