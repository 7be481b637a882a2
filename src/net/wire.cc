// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "net/wire.h"

namespace sentinel {
namespace net {

namespace {

/// A reply may carry any code StatusReplyMsg::ToStatus rebuilds.
Status CheckStatusCode(uint8_t code) {
  if (code > static_cast<uint8_t>(Status::Code::kOutOfRange)) {
    return Status::InvalidArgument("bad status code " + std::to_string(code));
  }
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

// --- BodyReader --------------------------------------------------------------

Status BodyReader::Finish() const {
  if (!status_.ok()) return status_;
  if (!dec_.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after message body");
  }
  return Status::OK();
}

bool BodyReader::Get(EventModifier& v) {
  uint8_t raw = 0;
  if (!Get(raw)) return false;
  if (raw > static_cast<uint8_t>(EventModifier::kEnd)) {
    return Take(Status::InvalidArgument("bad event modifier " +
                                        std::to_string(raw)));
  }
  v = static_cast<EventModifier>(raw);
  return true;
}

bool BodyReader::GetWalBody(std::string& rec) {
  const size_t start = body_.size() - dec_.remaining();
  uint8_t type = 0;
  uint64_t txn = 0;
  uint64_t oid = 0;
  std::string_view payload;
  if (!(*this)(type, txn, oid, payload)) return false;
  rec.assign(body_.substr(start, body_.size() - dec_.remaining() - start));
  return true;
}

bool PeekRaiseRouting(const std::string& body, uint64_t* oid,
                      std::string* class_name) {
  Decoder dec(body);
  return dec.GetU64(oid).ok() && dec.GetString(class_name).ok();
}

// --- Semantic checks ---------------------------------------------------------

Status RaiseEventMsg::Check() const {
  if (class_name.empty() || method.empty()) {
    return Status::InvalidArgument("RaiseEvent needs class and method");
  }
  return Status::OK();
}

Status CreateRuleMsg::Check() const {
  if (name.empty()) {
    return Status::InvalidArgument("CreateRule needs a rule name");
  }
  if (coupling > 2) {
    return Status::InvalidArgument("bad coupling mode " +
                                   std::to_string(coupling));
  }
  return Status::OK();
}

Status RuleNameMsg::Check() const {
  if (name.empty()) {
    return Status::InvalidArgument("rule name must not be empty");
  }
  return Status::OK();
}

Status SubscribeMsg::Check() const {
  if (key.empty()) {
    return Status::InvalidArgument("subscription key must not be empty");
  }
  return Status::OK();
}

Status FetchMsg::Check() const {
  if (max == 0) {
    return Status::InvalidArgument("fetch max must be positive");
  }
  return Status::OK();
}

Status HistoryScanMsg::Check() const {
  if (min_seq > max_seq) {
    return Status::InvalidArgument("history scan: min_seq > max_seq");
  }
  if (max_micros != 0 && min_micros > max_micros) {
    return Status::InvalidArgument("history scan: min_micros > max_micros");
  }
  return Status::OK();
}

Status HelloMsg::Check() const {
  if (magic != kMagic) {
    return Status::InvalidArgument("bad hello magic");
  }
  return Status::OK();
}

Status StatsRequestMsg::Check() const {
  if (sections == 0) {
    return Status::InvalidArgument("stats request selects no sections");
  }
  if ((sections & ~(kDatabase | kGateway)) != 0) {
    return Status::InvalidArgument("unknown stats section bits " +
                                   std::to_string(sections));
  }
  return Status::OK();
}

Status ReplSubscribeMsg::Check() const {
  if (mode > kTail) {
    return Status::InvalidArgument("repl subscribe: unknown mode");
  }
  return Status::OK();
}

Status StatusReplyMsg::Check() const { return CheckStatusCode(code); }

Status BatchStatusReplyMsg::Check() const {
  if (runs.empty()) {
    return Status::InvalidArgument("batch status reply carries no runs");
  }
  for (const Run& run : runs) {
    if (run.count == 0) {
      return Status::InvalidArgument("empty batch-status run");
    }
    SENTINEL_RETURN_IF_ERROR(CheckStatusCode(run.code));
  }
  return Status::OK();
}

Status StatsReplyMsg::Check() const {
  if (json.empty()) {
    return Status::InvalidArgument("stats reply carries no document");
  }
  return Status::OK();
}

// --- Helpers -----------------------------------------------------------------

size_t BatchStatusReplyMsg::TotalAcks() const {
  size_t total = 0;
  for (const Run& run : runs) total += run.count;
  return total;
}

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

}  // namespace net
}  // namespace sentinel
