// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "net/wire.h"

#include <algorithm>

namespace sentinel {
namespace net {

namespace {

/// Rejects trailing bytes after a fully parsed body: a well-formed peer
/// never pads, so leftovers mean a framing bug or a hostile stream.
Status ExpectEnd(const Decoder& dec) {
  if (!dec.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after message body");
  }
  return Status::OK();
}

Status DecodeModifier(Decoder* dec, EventModifier* out) {
  uint8_t raw = 0;
  SENTINEL_RETURN_IF_ERROR(dec->GetU8(&raw));
  if (raw > static_cast<uint8_t>(EventModifier::kEnd)) {
    return Status::InvalidArgument("bad event modifier " +
                                   std::to_string(raw));
  }
  *out = static_cast<EventModifier>(raw);
  return Status::OK();
}

}  // namespace

bool IsKnownFrameType(uint8_t raw) {
  switch (static_cast<FrameType>(raw)) {
    case FrameType::kPing:
    case FrameType::kRaiseEvent:
    case FrameType::kCreateRule:
    case FrameType::kEnableRule:
    case FrameType::kDisableRule:
    case FrameType::kSubscribe:
    case FrameType::kFetchNotifications:
    case FrameType::kGetStats:
    case FrameType::kHello:
    case FrameType::kHistoryScan:
    case FrameType::kReplSubscribe:
    case FrameType::kHistoryBatch:
    case FrameType::kPong:
    case FrameType::kStatusReply:
    case FrameType::kNotificationBatch:
    case FrameType::kStatsReply:
    case FrameType::kHelloReply:
    case FrameType::kBatchStatusReply:
    case FrameType::kReplBatch:
      return true;
  }
  return false;
}

Status EncodeFrame(FrameType type, const std::string& body, std::string* out,
                   uint8_t version) {
  if (body.size() > kFrameBodyLimit) {
    return Status::ResourceExhausted(
        "frame body of " + std::to_string(body.size()) +
        " bytes exceeds the 24-bit length field");
  }
  Encoder enc;
  // Length and version share one little-endian u32: low 24 bits length,
  // high byte version.
  enc.PutU32(static_cast<uint32_t>(body.size()) |
             (static_cast<uint32_t>(version) << 24));
  enc.PutU8(static_cast<uint8_t>(type));
  out->append(enc.buffer());
  out->append(body);
  return Status::OK();
}

bool FitsReply(size_t bytes, size_t* used) {
  if (bytes > kMaxReplyRowBytes - *used) return false;
  *used += bytes;
  return true;
}

Status ReplyRowTooLarge(const std::string& row, size_t bytes) {
  return Status::ResourceExhausted(
      row + " is " + std::to_string(bytes) + " bytes, over the " +
      std::to_string(kMaxReplyRowBytes) + "-byte reply cap");
}

DecodeProgress TryDecodeFrame(std::string_view buf, uint32_t max_body,
                              Frame* frame, size_t* consumed, Status* error) {
  *consumed = 0;
  if (buf.size() < kFrameHeaderSize) return DecodeProgress::kNeedMore;

  Decoder header(buf.data(), kFrameHeaderSize);
  uint32_t len_word = 0;
  uint8_t raw_type = 0;
  header.GetU32(&len_word).ok();
  header.GetU8(&raw_type).ok();
  uint32_t body_len = len_word & kFrameBodyLimit;
  uint8_t version = static_cast<uint8_t>(len_word >> 24);

  // Validate the header before waiting for the body: an oversized length,
  // an unknown type, or a foreign version can never become a good frame,
  // so fail fast.
  if (version != kProtocolV2) {
    *error = Status::InvalidArgument("unsupported protocol version " +
                                     std::to_string(version));
    return DecodeProgress::kError;
  }
  if (body_len > max_body) {
    *error = Status::ResourceExhausted(
        "frame body of " + std::to_string(body_len) + " bytes exceeds cap " +
        std::to_string(max_body));
    return DecodeProgress::kError;
  }
  if (!IsKnownFrameType(raw_type)) {
    *error = Status::InvalidArgument("unknown frame type " +
                                     std::to_string(raw_type));
    return DecodeProgress::kError;
  }
  if (buf.size() < kFrameHeaderSize + body_len) return DecodeProgress::kNeedMore;

  frame->type = static_cast<FrameType>(raw_type);
  frame->body.assign(buf.substr(kFrameHeaderSize, body_len));
  *consumed = kFrameHeaderSize + body_len;
  return DecodeProgress::kFrame;
}

// --- PingMsg ----------------------------------------------------------------

void PingMsg::Encode(Encoder* enc) const { enc->PutU64(token); }

Result<PingMsg> PingMsg::Decode(const std::string& body) {
  Decoder dec(body);
  PingMsg msg;
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&msg.token));
  SENTINEL_RETURN_IF_ERROR(ExpectEnd(dec));
  return msg;
}

// --- RaiseEventMsg -----------------------------------------------------------

void RaiseEventMsg::Encode(Encoder* enc) const {
  enc->PutU64(oid);
  enc->PutString(class_name);
  enc->PutString(method);
  enc->PutU8(static_cast<uint8_t>(modifier));
  enc->PutValueList(params);
}

bool PeekRaiseRouting(const std::string& body, uint64_t* oid,
                      std::string* class_name) {
  Decoder dec(body);
  return dec.GetU64(oid).ok() && dec.GetString(class_name).ok();
}

Result<RaiseEventMsg> RaiseEventMsg::Decode(const std::string& body) {
  Decoder dec(body);
  RaiseEventMsg msg;
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&msg.oid));
  SENTINEL_RETURN_IF_ERROR(dec.GetString(&msg.class_name));
  SENTINEL_RETURN_IF_ERROR(dec.GetString(&msg.method));
  SENTINEL_RETURN_IF_ERROR(DecodeModifier(&dec, &msg.modifier));
  SENTINEL_RETURN_IF_ERROR(dec.GetValueList(&msg.params));
  SENTINEL_RETURN_IF_ERROR(ExpectEnd(dec));
  if (msg.class_name.empty() || msg.method.empty()) {
    return Status::InvalidArgument("RaiseEvent needs class and method");
  }
  return msg;
}

// --- CreateRuleMsg -----------------------------------------------------------

void CreateRuleMsg::Encode(Encoder* enc) const {
  enc->PutString(name);
  enc->PutString(event_signature);
  enc->PutString(condition_name);
  enc->PutString(action_name);
  enc->PutU8(coupling);
  enc->PutI64(priority);
  enc->PutBool(enabled);
}

Result<CreateRuleMsg> CreateRuleMsg::Decode(const std::string& body) {
  Decoder dec(body);
  CreateRuleMsg msg;
  SENTINEL_RETURN_IF_ERROR(dec.GetString(&msg.name));
  SENTINEL_RETURN_IF_ERROR(dec.GetString(&msg.event_signature));
  SENTINEL_RETURN_IF_ERROR(dec.GetString(&msg.condition_name));
  SENTINEL_RETURN_IF_ERROR(dec.GetString(&msg.action_name));
  SENTINEL_RETURN_IF_ERROR(dec.GetU8(&msg.coupling));
  SENTINEL_RETURN_IF_ERROR(dec.GetI64(&msg.priority));
  SENTINEL_RETURN_IF_ERROR(dec.GetBool(&msg.enabled));
  SENTINEL_RETURN_IF_ERROR(ExpectEnd(dec));
  if (msg.name.empty()) {
    return Status::InvalidArgument("CreateRule needs a rule name");
  }
  if (msg.coupling > 2) {
    return Status::InvalidArgument("bad coupling mode " +
                                   std::to_string(msg.coupling));
  }
  return msg;
}

// --- RuleNameMsg -------------------------------------------------------------

void RuleNameMsg::Encode(Encoder* enc) const { enc->PutString(name); }

Result<RuleNameMsg> RuleNameMsg::Decode(const std::string& body) {
  Decoder dec(body);
  RuleNameMsg msg;
  SENTINEL_RETURN_IF_ERROR(dec.GetString(&msg.name));
  SENTINEL_RETURN_IF_ERROR(ExpectEnd(dec));
  if (msg.name.empty()) {
    return Status::InvalidArgument("rule name must not be empty");
  }
  return msg;
}

// --- SubscribeMsg ------------------------------------------------------------

void SubscribeMsg::Encode(Encoder* enc) const { enc->PutString(key); }

Result<SubscribeMsg> SubscribeMsg::Decode(const std::string& body) {
  Decoder dec(body);
  SubscribeMsg msg;
  SENTINEL_RETURN_IF_ERROR(dec.GetString(&msg.key));
  SENTINEL_RETURN_IF_ERROR(ExpectEnd(dec));
  if (msg.key.empty()) {
    return Status::InvalidArgument("subscription key must not be empty");
  }
  return msg;
}

// --- FetchMsg ----------------------------------------------------------------

void FetchMsg::Encode(Encoder* enc) const {
  enc->PutU32(max);
  enc->PutU32(wait_ms);
}

Result<FetchMsg> FetchMsg::Decode(const std::string& body) {
  Decoder dec(body);
  FetchMsg msg;
  SENTINEL_RETURN_IF_ERROR(dec.GetU32(&msg.max));
  SENTINEL_RETURN_IF_ERROR(dec.GetU32(&msg.wait_ms));
  SENTINEL_RETURN_IF_ERROR(ExpectEnd(dec));
  if (msg.max == 0) {
    return Status::InvalidArgument("fetch max must be positive");
  }
  return msg;
}

// --- HistoryScanMsg ----------------------------------------------------------

void HistoryScanMsg::Encode(Encoder* enc) const {
  enc->PutU64(min_seq);
  enc->PutU64(max_seq);
  enc->PutI64(min_micros);
  enc->PutI64(max_micros);
  enc->PutU64(oid);
  enc->PutU32(limit);
  enc->PutU64(after_seq);
}

Result<HistoryScanMsg> HistoryScanMsg::Decode(const std::string& body) {
  Decoder dec(body);
  HistoryScanMsg msg;
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&msg.min_seq));
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&msg.max_seq));
  SENTINEL_RETURN_IF_ERROR(dec.GetI64(&msg.min_micros));
  SENTINEL_RETURN_IF_ERROR(dec.GetI64(&msg.max_micros));
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&msg.oid));
  SENTINEL_RETURN_IF_ERROR(dec.GetU32(&msg.limit));
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&msg.after_seq));
  SENTINEL_RETURN_IF_ERROR(ExpectEnd(dec));
  if (msg.min_seq > msg.max_seq) {
    return Status::InvalidArgument("history scan: min_seq > max_seq");
  }
  if (msg.max_micros != 0 && msg.min_micros > msg.max_micros) {
    return Status::InvalidArgument("history scan: min_micros > max_micros");
  }
  return msg;
}

// --- HelloMsg ----------------------------------------------------------------

void HelloMsg::Encode(Encoder* enc) const {
  enc->PutU32(magic);
  enc->PutString(tenant);
}

Result<HelloMsg> HelloMsg::Decode(const std::string& body) {
  Decoder dec(body);
  HelloMsg msg;
  SENTINEL_RETURN_IF_ERROR(dec.GetU32(&msg.magic));
  SENTINEL_RETURN_IF_ERROR(dec.GetString(&msg.tenant));
  SENTINEL_RETURN_IF_ERROR(ExpectEnd(dec));
  if (msg.magic != kMagic) {
    return Status::InvalidArgument("bad hello magic");
  }
  return msg;
}

// --- HelloReplyMsg -----------------------------------------------------------

void HelloReplyMsg::Encode(Encoder* enc) const {
  enc->PutU32(max_frame_body);
  enc->PutString(server);
}

Result<HelloReplyMsg> HelloReplyMsg::Decode(const std::string& body) {
  Decoder dec(body);
  HelloReplyMsg msg;
  SENTINEL_RETURN_IF_ERROR(dec.GetU32(&msg.max_frame_body));
  SENTINEL_RETURN_IF_ERROR(dec.GetString(&msg.server));
  SENTINEL_RETURN_IF_ERROR(ExpectEnd(dec));
  return msg;
}

// --- BatchStatusReplyMsg -----------------------------------------------------

size_t BatchStatusReplyMsg::TotalAcks() const {
  size_t total = 0;
  for (const Run& run : runs) total += run.count;
  return total;
}

void BatchStatusReplyMsg::Encode(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(runs.size()));
  for (const Run& run : runs) {
    enc->PutU32(run.count);
    enc->PutU8(run.code);
    enc->PutString(run.message);
    enc->PutU64(run.payload);
  }
}

Result<BatchStatusReplyMsg> BatchStatusReplyMsg::Decode(
    const std::string& body) {
  Decoder dec(body);
  uint32_t count = 0;
  SENTINEL_RETURN_IF_ERROR(dec.GetU32(&count));
  BatchStatusReplyMsg msg;
  msg.runs.reserve(std::min<size_t>(count, dec.remaining()));
  for (uint32_t i = 0; i < count; ++i) {
    Run run;
    SENTINEL_RETURN_IF_ERROR(dec.GetU32(&run.count));
    SENTINEL_RETURN_IF_ERROR(dec.GetU8(&run.code));
    SENTINEL_RETURN_IF_ERROR(dec.GetString(&run.message));
    SENTINEL_RETURN_IF_ERROR(dec.GetU64(&run.payload));
    if (run.count == 0) {
      return Status::InvalidArgument("empty batch-status run");
    }
    if (run.code > static_cast<uint8_t>(Status::Code::kResourceExhausted)) {
      return Status::InvalidArgument("bad status code " +
                                     std::to_string(run.code));
    }
    msg.runs.push_back(std::move(run));
  }
  SENTINEL_RETURN_IF_ERROR(ExpectEnd(dec));
  if (msg.runs.empty()) {
    return Status::InvalidArgument("batch status reply carries no runs");
  }
  return msg;
}

// --- StatsRequestMsg ---------------------------------------------------------

void StatsRequestMsg::Encode(Encoder* enc) const { enc->PutU32(sections); }

Result<StatsRequestMsg> StatsRequestMsg::Decode(const std::string& body) {
  Decoder dec(body);
  StatsRequestMsg msg;
  SENTINEL_RETURN_IF_ERROR(dec.GetU32(&msg.sections));
  SENTINEL_RETURN_IF_ERROR(ExpectEnd(dec));
  if (msg.sections == 0) {
    return Status::InvalidArgument("stats request selects no sections");
  }
  if ((msg.sections & ~(kDatabase | kGateway)) != 0) {
    return Status::InvalidArgument("unknown stats section bits " +
                                   std::to_string(msg.sections));
  }
  return msg;
}

// --- StatusReplyMsg ----------------------------------------------------------

Status StatusReplyMsg::ToStatus() const {
  switch (static_cast<Status::Code>(code)) {
    case Status::Code::kOk:
      return Status::OK();
    case Status::Code::kNotFound:
      return Status::NotFound(message);
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(message);
    case Status::Code::kAlreadyExists:
      return Status::AlreadyExists(message);
    case Status::Code::kCorruption:
      return Status::Corruption(message);
    case Status::Code::kIOError:
      return Status::IOError(message);
    case Status::Code::kAborted:
      return Status::Aborted(message);
    case Status::Code::kBusy:
      return Status::Busy(message);
    case Status::Code::kNotSupported:
      return Status::NotSupported(message);
    case Status::Code::kFailedPrecondition:
      return Status::FailedPrecondition(message);
    case Status::Code::kInternal:
      return Status::Internal(message);
    case Status::Code::kResourceExhausted:
      return Status::ResourceExhausted(message);
    case Status::Code::kOutOfRange:
      return Status::OutOfRange(message);
  }
  return Status::Internal("unknown status code " + std::to_string(code));
}

StatusReplyMsg StatusReplyMsg::FromStatus(const Status& s, uint64_t payload) {
  StatusReplyMsg msg;
  msg.code = static_cast<uint8_t>(s.code());
  msg.message = s.message();
  msg.payload = payload;
  return msg;
}

void ReplSubscribeMsg::Encode(Encoder* enc) const {
  enc->PutU64(epoch);
  enc->PutU8(mode);
  enc->PutU64(after_oid);
  enc->PutU64(next_lsn);
  enc->PutU64(after_ordinal);
  enc->PutU32(max_items);
}

Result<ReplSubscribeMsg> ReplSubscribeMsg::Decode(const std::string& body) {
  Decoder dec(body);
  ReplSubscribeMsg msg;
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&msg.epoch));
  SENTINEL_RETURN_IF_ERROR(dec.GetU8(&msg.mode));
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&msg.after_oid));
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&msg.next_lsn));
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&msg.after_ordinal));
  SENTINEL_RETURN_IF_ERROR(dec.GetU32(&msg.max_items));
  SENTINEL_RETURN_IF_ERROR(ExpectEnd(dec));
  if (msg.mode > ReplSubscribeMsg::kTail) {
    return Status::InvalidArgument("repl subscribe: unknown mode");
  }
  return msg;
}

void ReplBatchMsg::Encode(Encoder* enc) const {
  enc->PutU64(epoch);
  enc->PutU8(primary);
  enc->PutU8(mode);
  enc->PutU64(wal_base_lsn);
  enc->PutU64(wal_end_lsn);
  enc->PutU64(mirror_total);
  enc->PutU32(static_cast<uint32_t>(objects.size()));
  for (const ObjectImage& obj : objects) {
    enc->PutU64(obj.oid);
    enc->PutString(obj.class_name);
    enc->PutString(obj.state);
  }
  enc->PutU64(next_oid);
  enc->PutU8(snapshot_done);
  enc->PutU64(snapshot_lsn);
  enc->PutU32(static_cast<uint32_t>(wal.size()));
  for (const std::string& rec : wal) enc->PutRaw(rec.data(), rec.size());
  enc->PutU64(next_lsn);
  enc->PutU8(wal_reset);
  enc->PutU32(static_cast<uint32_t>(occ_records.size()));
  for (const std::string& rec : occ_records) enc->PutString(rec);
  enc->PutU64(next_ordinal);
}

Result<ReplBatchMsg> ReplBatchMsg::Decode(const std::string& body) {
  Decoder dec(body);
  ReplBatchMsg msg;
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&msg.epoch));
  SENTINEL_RETURN_IF_ERROR(dec.GetU8(&msg.primary));
  SENTINEL_RETURN_IF_ERROR(dec.GetU8(&msg.mode));
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&msg.wal_base_lsn));
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&msg.wal_end_lsn));
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&msg.mirror_total));
  uint32_t n = 0;
  SENTINEL_RETURN_IF_ERROR(dec.GetU32(&n));
  msg.objects.resize(n);
  for (ObjectImage& obj : msg.objects) {
    SENTINEL_RETURN_IF_ERROR(dec.GetU64(&obj.oid));
    SENTINEL_RETURN_IF_ERROR(dec.GetString(&obj.class_name));
    SENTINEL_RETURN_IF_ERROR(dec.GetString(&obj.state));
  }
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&msg.next_oid));
  SENTINEL_RETURN_IF_ERROR(dec.GetU8(&msg.snapshot_done));
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&msg.snapshot_lsn));
  SENTINEL_RETURN_IF_ERROR(dec.GetU32(&n));
  msg.wal.resize(n);
  for (std::string& rec : msg.wal) {
    const size_t start = body.size() - dec.remaining();
    uint8_t type = 0;
    uint64_t word = 0;
    std::string_view payload;
    SENTINEL_RETURN_IF_ERROR(dec.GetU8(&type));
    SENTINEL_RETURN_IF_ERROR(dec.GetU64(&word));  // txn
    SENTINEL_RETURN_IF_ERROR(dec.GetU64(&word));  // oid
    SENTINEL_RETURN_IF_ERROR(dec.GetStringView(&payload));
    rec = body.substr(start, body.size() - dec.remaining() - start);
  }
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&msg.next_lsn));
  SENTINEL_RETURN_IF_ERROR(dec.GetU8(&msg.wal_reset));
  SENTINEL_RETURN_IF_ERROR(dec.GetU32(&n));
  msg.occ_records.resize(n);
  for (std::string& rec : msg.occ_records) {
    SENTINEL_RETURN_IF_ERROR(dec.GetString(&rec));
  }
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&msg.next_ordinal));
  SENTINEL_RETURN_IF_ERROR(ExpectEnd(dec));
  return msg;
}

void StatusReplyMsg::Encode(Encoder* enc) const {
  enc->PutU8(code);
  enc->PutString(message);
  enc->PutU64(payload);
}

Result<StatusReplyMsg> StatusReplyMsg::Decode(const std::string& body) {
  Decoder dec(body);
  StatusReplyMsg msg;
  SENTINEL_RETURN_IF_ERROR(dec.GetU8(&msg.code));
  SENTINEL_RETURN_IF_ERROR(dec.GetString(&msg.message));
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&msg.payload));
  SENTINEL_RETURN_IF_ERROR(ExpectEnd(dec));
  if (msg.code > static_cast<uint8_t>(Status::Code::kResourceExhausted)) {
    return Status::InvalidArgument("bad status code " +
                                   std::to_string(msg.code));
  }
  return msg;
}

// --- Notification / NotificationBatchMsg ------------------------------------

void Notification::Encode(Encoder* enc) const {
  enc->PutString(key);
  enc->PutU64(oid);
  enc->PutString(class_name);
  enc->PutString(method);
  enc->PutU8(static_cast<uint8_t>(modifier));
  enc->PutValueList(params);
  enc->PutI64(timestamp.micros);
  enc->PutU64(timestamp.seq);
}

Status Notification::DecodeInto(Decoder* dec, Notification* out) {
  SENTINEL_RETURN_IF_ERROR(dec->GetString(&out->key));
  SENTINEL_RETURN_IF_ERROR(dec->GetU64(&out->oid));
  SENTINEL_RETURN_IF_ERROR(dec->GetString(&out->class_name));
  SENTINEL_RETURN_IF_ERROR(dec->GetString(&out->method));
  SENTINEL_RETURN_IF_ERROR(DecodeModifier(dec, &out->modifier));
  SENTINEL_RETURN_IF_ERROR(dec->GetValueList(&out->params));
  SENTINEL_RETURN_IF_ERROR(dec->GetI64(&out->timestamp.micros));
  SENTINEL_RETURN_IF_ERROR(dec->GetU64(&out->timestamp.seq));
  return Status::OK();
}

void NotificationBatchMsg::Encode(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(items.size()));
  for (const Notification& n : items) n.Encode(enc);
}

Result<NotificationBatchMsg> NotificationBatchMsg::Decode(
    const std::string& body) {
  Decoder dec(body);
  uint32_t count = 0;
  SENTINEL_RETURN_IF_ERROR(dec.GetU32(&count));
  NotificationBatchMsg msg;
  // Reserve conservatively: `count` is attacker-controlled, the remaining
  // bytes are not, and each notification needs well over one byte.
  msg.items.reserve(std::min<size_t>(count, dec.remaining()));
  for (uint32_t i = 0; i < count; ++i) {
    Notification n;
    SENTINEL_RETURN_IF_ERROR(Notification::DecodeInto(&dec, &n));
    msg.items.push_back(std::move(n));
  }
  SENTINEL_RETURN_IF_ERROR(ExpectEnd(dec));
  return msg;
}

// --- HistoryBatchMsg ---------------------------------------------------------

void HistoryBatchMsg::Encode(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(items.size()));
  for (const Notification& n : items) n.Encode(enc);
  enc->PutBool(complete);
  enc->PutU64(next_seq);
}

Result<HistoryBatchMsg> HistoryBatchMsg::Decode(const std::string& body) {
  Decoder dec(body);
  uint32_t count = 0;
  SENTINEL_RETURN_IF_ERROR(dec.GetU32(&count));
  HistoryBatchMsg msg;
  msg.items.reserve(std::min<size_t>(count, dec.remaining()));
  for (uint32_t i = 0; i < count; ++i) {
    Notification n;
    SENTINEL_RETURN_IF_ERROR(Notification::DecodeInto(&dec, &n));
    msg.items.push_back(std::move(n));
  }
  SENTINEL_RETURN_IF_ERROR(dec.GetBool(&msg.complete));
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&msg.next_seq));
  SENTINEL_RETURN_IF_ERROR(ExpectEnd(dec));
  return msg;
}

// --- StatsReplyMsg -----------------------------------------------------------

void StatsReplyMsg::Encode(Encoder* enc) const { enc->PutString(json); }

Result<StatsReplyMsg> StatsReplyMsg::Decode(const std::string& body) {
  Decoder dec(body);
  StatsReplyMsg msg;
  SENTINEL_RETURN_IF_ERROR(dec.GetString(&msg.json));
  SENTINEL_RETURN_IF_ERROR(ExpectEnd(dec));
  if (msg.json.empty()) {
    return Status::InvalidArgument("stats reply carries no document");
  }
  return msg;
}

// --- PongMsg -----------------------------------------------------------------

void PongMsg::Encode(Encoder* enc) const { enc->PutU64(token); }

Result<PongMsg> PongMsg::Decode(const std::string& body) {
  Decoder dec(body);
  PongMsg msg;
  SENTINEL_RETURN_IF_ERROR(dec.GetU64(&msg.token));
  SENTINEL_RETURN_IF_ERROR(ExpectEnd(dec));
  return msg;
}

}  // namespace net
}  // namespace sentinel
