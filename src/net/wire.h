// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Wire protocol of the Sentinel event gateway.
//
// The paper's event interface propagates primitive events asynchronously of
// the synchronous call interface; the gateway extends that propagation across
// process boundaries. Every message travels in a length-prefixed frame
//
//   u24 body-length | u8 protocol version | u8 frame type | body
//
// (little endian; the length and version share one u32 word). There is one
// protocol: every frame in both directions carries kProtocolV2 in the
// version byte, from the first frame on, and a decoder rejects any other
// value. An optional kHello exchange names the connection's tenant and
// reports the server's frame-body ceiling.
//
// Bodies are encoded by common/codec (the same Encoder/Decoder the object
// store and WAL use). Each message lists its fields once, in wire order, in
// a static Fields(m, io); a BodyWriter walks that list to encode and a
// BodyReader walks the same list to decode, so the two directions cannot
// drift apart. Decoding never trusts the peer: truncated, oversized,
// unknown-type, and trailing-garbage frames all surface as Status errors
// instead of crashes, because framed bytes come from the network, and every
// list count is bounded by the bytes left before anything is reserved.

#ifndef SENTINEL_NET_WIRE_H_
#define SENTINEL_NET_WIRE_H_

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/codec.h"
#include "common/status.h"
#include "common/value.h"
#include "events/signature.h"

namespace sentinel {
namespace net {

/// Frame discriminator. Requests are < 64, responses >= 64.
enum class FrameType : uint8_t {
  // Requests (client -> server).
  kPing = 1,
  kRaiseEvent = 2,
  kCreateRule = 3,
  kEnableRule = 4,
  kDisableRule = 5,
  kSubscribe = 6,
  kFetchNotifications = 7,
  kGetStats = 8,
  kHello = 9,
  kHistoryScan = 10,
  kReplSubscribe = 11,

  // Responses (server -> client).
  kPong = 64,
  kStatusReply = 65,
  kNotificationBatch = 66,
  kStatsReply = 67,
  kHelloReply = 68,
  kBatchStatusReply = 69,
  kHistoryBatch = 70,
  kReplBatch = 71,
};

/// True when `raw` names a defined FrameType.
bool IsKnownFrameType(uint8_t raw);

/// The header version byte every frame carries.
constexpr uint8_t kProtocolV2 = 2;

/// Hard framing ceiling: the length field is 24 bits.
constexpr uint32_t kFrameBodyLimit = (1u << 24) - 1;

/// Default ceiling on a frame body. Anything larger is rejected before
/// buffering so a hostile peer cannot balloon server memory.
constexpr uint32_t kDefaultMaxFrameBody = 4u << 20;  // 4 MiB

/// Bytes a reply that ships rows (HistoryBatch, ReplBatch) may spend on
/// them: clients read frames with a kDefaultMaxFrameBody cap, less 1 KiB
/// for the reply's fixed fields.
constexpr size_t kMaxReplyRowBytes = kDefaultMaxFrameBody - 1024;

/// True, counting the row into `*used`, when a row of `bytes` encoded
/// bytes still fits a reply whose rows take `*used` of kMaxReplyRowBytes.
/// A reply ships at least one row: when `*used` is 0 and this is false,
/// answer ReplyRowTooLarge instead.
bool FitsReply(size_t bytes, size_t* used);

/// The error for a row (`row` names it) too large for any reply.
Status ReplyRowTooLarge(const std::string& row, size_t bytes);

/// Bytes of frame header preceding the body.
constexpr size_t kFrameHeaderSize = 5;  // u24 length + u8 version + u8 type

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kPing;
  std::string body;
};

/// Appends the framed encoding of (type, body) to `out`. `version` is the
/// header version byte; only tests forging hostile headers pass another.
/// A body over kFrameBodyLimit cannot be framed: nothing is appended and
/// the result is ResourceExhausted.
Status EncodeFrame(FrameType type, const std::string& body, std::string* out,
                   uint8_t version = kProtocolV2);

/// Outcome of TryDecodeFrame.
enum class DecodeProgress {
  kNeedMore,  ///< Buffer holds a valid prefix; read more bytes.
  kFrame,     ///< One frame decoded; `*consumed` bytes were used.
  kError,     ///< Malformed stream; the connection should be dropped.
};

/// Attempts to split one frame off the front of `buf` (an accumulation
/// buffer of raw socket bytes). On kFrame, `*frame` holds the result and
/// `*consumed` the bytes to discard. On kError, `*error` says why (a
/// version byte other than kProtocolV2, an oversized length prefix or an
/// unknown frame type).
DecodeProgress TryDecodeFrame(std::string_view buf, uint32_t max_body,
                              Frame* frame, size_t* consumed, Status* error);

// --- Message bodies -------------------------------------------------------

class BodyWriter;

/// A struct whose fields a static Fields(m, io) lists in wire order.
template <typename T>
concept WireStruct = requires(T& m, BodyWriter& io) { T::Fields(m, io); };

/// Encodes the fields a Fields list names, in order.
class BodyWriter {
 public:
  explicit BodyWriter(Encoder* enc) : enc_(enc) {}

  template <typename... F>
  void operator()(const F&... fields) {
    (Put(fields), ...);
  }

  /// A u32 count, then each WAL record body as it is, without a length
  /// prefix: the body's own layout says where it ends.
  void WalBodies(const std::vector<std::string>& records) {
    enc_->PutU32(static_cast<uint32_t>(records.size()));
    for (const std::string& rec : records) {
      enc_->PutRaw(rec.data(), rec.size());
    }
  }

 private:
  void Put(uint8_t v) { enc_->PutU8(v); }
  void Put(uint32_t v) { enc_->PutU32(v); }
  void Put(uint64_t v) { enc_->PutU64(v); }
  void Put(int64_t v) { enc_->PutI64(v); }
  void Put(bool v) { enc_->PutBool(v); }
  void Put(const std::string& v) { enc_->PutString(v); }
  void Put(EventModifier v) { enc_->PutU8(static_cast<uint8_t>(v)); }
  // Exactly a Value: a scalar field must not convert into a tagged one.
  template <std::same_as<Value> V>
  void Put(const V& v) {
    enc_->PutValue(v);
  }
  template <WireStruct T>
  void Put(const T& item) {
    T::Fields(item, *this);
  }
  /// A u32 count, then each item.
  template <typename T>
  void Put(const std::vector<T>& items) {
    enc_->PutU32(static_cast<uint32_t>(items.size()));
    for (const T& item : items) Put(item);
  }

  Encoder* enc_;
};

/// Decodes the fields a Fields list names, in order. The first error
/// sticks: later reads do nothing, and Finish reports it.
class BodyReader {
 public:
  explicit BodyReader(std::string_view body) : body_(body), dec_(body) {}

  /// False once any read has failed.
  template <typename... F>
  bool operator()(F&... fields) {
    return status_.ok() && (Get(fields) && ...);
  }

  /// The WalBodies layout: each body is u8 type | u64 txn | u64 oid |
  /// string payload, copied out whole.
  bool WalBodies(std::vector<std::string>& records) {
    return status_.ok() &&
           List(records, [this](std::string& rec) { return GetWalBody(rec); });
  }

  /// The first read error (Corruption on underflow, InvalidArgument on a
  /// bad modifier); else InvalidArgument when bytes trail the last field,
  /// since a well-formed peer never pads.
  Status Finish() const;

 private:
  bool Take(Status s) {
    if (s.ok()) return true;
    status_ = std::move(s);
    return false;
  }
  bool Get(uint8_t& v) { return Take(dec_.GetU8(&v)); }
  bool Get(uint32_t& v) { return Take(dec_.GetU32(&v)); }
  bool Get(uint64_t& v) { return Take(dec_.GetU64(&v)); }
  bool Get(int64_t& v) { return Take(dec_.GetI64(&v)); }
  bool Get(bool& v) { return Take(dec_.GetBool(&v)); }
  bool Get(std::string& v) { return Take(dec_.GetString(&v)); }
  bool Get(std::string_view& v) { return Take(dec_.GetStringView(&v)); }
  bool Get(Value& v) { return Take(dec_.GetValue(&v)); }
  /// InvalidArgument above kEnd.
  bool Get(EventModifier& v);
  template <WireStruct T>
  bool Get(T& item) {
    T::Fields(item, *this);
    return status_.ok();
  }
  template <typename T>
  bool Get(std::vector<T>& items) {
    return List(items, [this](T& item) { return Get(item); });
  }
  bool GetWalBody(std::string& rec);

  /// The one list reader: a u32 count, then `read_one` per item. The count
  /// is the peer's and the bytes left are not, and every item takes at
  /// least one byte, so the reservation never exceeds the bytes left.
  template <typename T, typename ReadOne>
  bool List(std::vector<T>& items, ReadOne read_one) {
    uint32_t count = 0;
    if (!Get(count)) return false;
    items.clear();
    items.reserve(std::min<size_t>(count, dec_.remaining()));
    for (uint32_t i = 0; i < count; ++i) {
      if (!read_one(items.emplace_back())) return false;
    }
    return true;
  }

  std::string_view body_;
  Decoder dec_;
  Status status_;
};

/// Builds a message's Encode and Decode from its M::Fields list. Decode
/// reads every field, rejects trailing bytes, then runs M::Check, the
/// message's semantic rules (InvalidArgument; none by default).
template <typename M>
struct Body {
  void Encode(Encoder* enc) const {
    BodyWriter io(enc);
    M::Fields(static_cast<const M&>(*this), io);
  }

  static Result<M> Decode(const std::string& body) {
    M msg;
    BodyReader io(body);
    M::Fields(msg, io);
    SENTINEL_RETURN_IF_ERROR(io.Finish());
    SENTINEL_RETURN_IF_ERROR(msg.Check());
    return msg;
  }

  Status Check() const { return Status::OK(); }
};

// --- Request messages -----------------------------------------------------

/// Liveness probe; the server echoes `token` in a Pong.
struct PingMsg : Body<PingMsg> {
  uint64_t token = 0;

  static void Fields(auto& m, auto& io) { io(m.token); }
};

/// Raise a primitive event on the server: the remote analog of calling a
/// designated method on a reactive object. `oid` selects the server-side
/// relay object (0 lets the server pick one per class).
struct RaiseEventMsg : Body<RaiseEventMsg> {
  uint64_t oid = 0;
  std::string class_name;
  std::string method;
  EventModifier modifier = EventModifier::kEnd;
  ValueList params;

  Status Check() const;
  static void Fields(auto& m, auto& io) {
    io(m.oid, m.class_name, m.method, m.modifier, m.params);
  }
};

/// Decodes only the routing prefix (oid, class_name) of a kRaiseEvent
/// body. The IO thread uses this to pick the target shard queue without
/// paying for the full decode (params stay untouched); the owning worker
/// still runs the complete, validating Decode. False on truncated input.
bool PeekRaiseRouting(const std::string& body, uint64_t* oid,
                      std::string* class_name);

/// Create an ECA rule remotely. Conditions and actions are C++ closures and
/// cannot cross the wire, so they are referenced by FunctionRegistry name —
/// exactly how persisted rules rebind (an empty condition name means
/// "always true"; an empty action name defaults to the gateway's built-in
/// subscriber-notify action).
struct CreateRuleMsg : Body<CreateRuleMsg> {
  std::string name;
  std::string event_signature;  ///< e.g. "end Employee::ChangeIncome".
  std::string condition_name;
  std::string action_name;
  uint8_t coupling = 0;  ///< CouplingMode under the hood.
  int64_t priority = 0;
  bool enabled = true;

  Status Check() const;
  static void Fields(auto& m, auto& io) {
    io(m.name, m.event_signature, m.condition_name, m.action_name,
       m.coupling, m.priority, m.enabled);
  }
};

/// Enable/Disable an existing rule by name (frame type carries the verb).
struct RuleNameMsg : Body<RuleNameMsg> {
  std::string name;

  Status Check() const;
  static void Fields(auto& m, auto& io) { io(m.name); }
};

/// Subscribe this session to a notification key: either an occurrence key
/// ("end Employee::ChangeIncome") or a rule-firing key ("rule:RuleName").
struct SubscribeMsg : Body<SubscribeMsg> {
  std::string key;

  Status Check() const;
  static void Fields(auto& m, auto& io) { io(m.key); }
};

/// Fetch up to `max` queued notifications, waiting up to `wait_ms` for the
/// first one (0 = return immediately, possibly empty).
struct FetchMsg : Body<FetchMsg> {
  uint32_t max = 64;
  uint32_t wait_ms = 0;

  Status Check() const;
  static void Fields(auto& m, auto& io) { io(m.max, m.wait_ms); }
};

/// Names the connection's tenant: the admission domain it bills its quotas
/// to ("" = the default tenant). Optional; the server answers with a
/// HelloReply. A session that never sends one bills the default tenant.
struct HelloMsg : Body<HelloMsg> {
  static constexpr uint32_t kMagic = 0x534E544Cu;  // "SNTL"

  uint32_t magic = kMagic;
  std::string tenant;

  Status Check() const;
  static void Fields(auto& m, auto& io) { io(m.magic, m.tenant); }
};

/// Request the server's stats snapshot. `sections` is a bitmask choosing
/// what the reply's JSON covers; unknown bits are rejected so they stay
/// available for future sections.
struct StatsRequestMsg : Body<StatsRequestMsg> {
  static constexpr uint32_t kDatabase = 1u << 0;  ///< Metrics registry.
  static constexpr uint32_t kGateway = 1u << 1;   ///< Server/queue counters.

  uint32_t sections = kDatabase | kGateway;

  Status Check() const;
  static void Fields(auto& m, auto& io) { io(m.sections); }
};

/// Replay spilled occurrence history: the remote face of
/// Database::HistoryScan (spilled rows only). Filters mirror HistoryQuery;
/// zero/defaulted fields mean "unbounded" on that axis (`oid` 0 = every
/// object). `limit` is clamped server-side so one request cannot balloon a
/// reply frame; the server scans limit + 1 rows to tell whether the page
/// is complete.
struct HistoryScanMsg : Body<HistoryScanMsg> {
  uint64_t min_seq = 0;
  uint64_t max_seq = ~0ull;
  int64_t min_micros = 0;  ///< 0 = open (occurrence micros are positive).
  int64_t max_micros = 0;  ///< 0 = open.
  uint64_t oid = 0;        ///< 0 = every object.
  uint32_t limit = 0;      ///< 0 = server default.
  /// Exclusive resume cursor: the seq of the last row the previous
  /// HistoryBatch delivered (its next_seq); 0 scans from the start. Seqs
  /// are unique within a database's history, so resuming after one neither
  /// skips nor repeats a row.
  uint64_t after_seq = 0;

  Status Check() const;
  static void Fields(auto& m, auto& io) {
    io(m.min_seq, m.max_seq, m.min_micros, m.max_micros, m.oid, m.limit,
       m.after_seq);
  }
};

/// One poll of the log-shipping replication stream (request). A follower
/// drives the whole protocol with this single message in three modes:
/// probe (where is the primary's log?), snapshot (fuzzy heap chunks for
/// initial catch-up), and tail (WAL suffix + occurrence-mirror rows from
/// the cursors). Every request carries the follower's view of the primary
/// epoch; a request with a *newer* epoch demotes the serving node (epoch
/// fencing — a deposed primary stops accepting producers the moment it
/// hears of its successor).
struct ReplSubscribeMsg : Body<ReplSubscribeMsg> {
  enum Mode : uint8_t { kProbe = 0, kSnapshot = 1, kTail = 2 };

  uint64_t epoch = 0;
  uint8_t mode = kProbe;
  uint64_t after_oid = 0;       ///< Snapshot chunk cursor (exclusive).
  uint64_t next_lsn = 0;        ///< Tail: first WAL LSN not yet applied.
  uint64_t after_ordinal = 0;   ///< Tail: occurrence-mirror cursor (excl.).
  uint32_t max_items = 0;       ///< Per-section row cap; 0 = server default.

  Status Check() const;
  static void Fields(auto& m, auto& io) {
    io(m.epoch, m.mode, m.after_oid, m.next_lsn, m.after_ordinal,
       m.max_items);
  }
};

// --- Response messages ----------------------------------------------------

/// Generic request outcome. `payload` carries a small result where one
/// exists (RaiseEvent: the relay oid raises were applied to).
struct StatusReplyMsg : Body<StatusReplyMsg> {
  uint8_t code = 0;  ///< Status::Code cast to its underlying value.
  std::string message;
  uint64_t payload = 0;

  /// Rebuilds the Status this reply transports.
  Status ToStatus() const;
  static StatusReplyMsg FromStatus(const Status& s, uint64_t payload = 0);

  Status Check() const;
  static void Fields(auto& m, auto& io) { io(m.code, m.message, m.payload); }
};

/// Reply to Hello: the server's frame-body ceiling, so a well-behaved
/// client never sends a frame the server would have to kill the
/// connection over, plus an informational banner.
struct HelloReplyMsg : Body<HelloReplyMsg> {
  uint32_t max_frame_body = kDefaultMaxFrameBody;
  std::string server;  ///< Informational banner, e.g. "sentinel-gateway/2".

  static void Fields(auto& m, auto& io) { io(m.max_frame_body, m.server); }
};

/// Ranged, coalesced acks. Answers a run of consecutive same-session
/// requests whose StatusReplies would have been identical with one frame:
/// `count` acks of (code, message). `payload`
/// carries the per-request payload only when count == 1 (a run of raises
/// against one relay shares its oid, so coalescing keeps that case exact
/// too — the encoder only merges acks whose payloads match).
struct BatchStatusReplyMsg : Body<BatchStatusReplyMsg> {
  struct Run {
    uint32_t count = 0;
    uint8_t code = 0;
    std::string message;
    uint64_t payload = 0;

    static void Fields(auto& m, auto& io) {
      io(m.count, m.code, m.message, m.payload);
    }
  };
  std::vector<Run> runs;

  /// Sum of run counts: how many request acks this frame settles.
  size_t TotalAcks() const;

  Status Check() const;
  static void Fields(auto& m, auto& io) { io(m.runs); }
};

/// One delivered notification: the subscription key it matched plus the
/// occurrence fields of the paper's generated primitive event.
struct Notification : Body<Notification> {
  std::string key;
  uint64_t oid = 0;
  std::string class_name;
  std::string method;
  EventModifier modifier = EventModifier::kEnd;
  ValueList params;
  Timestamp timestamp;

  static void Fields(auto& m, auto& io) {
    io(m.key, m.oid, m.class_name, m.method, m.modifier, m.params,
       m.timestamp.micros, m.timestamp.seq);
  }
};

/// Reply to FetchNotifications.
struct NotificationBatchMsg : Body<NotificationBatchMsg> {
  std::vector<Notification> items;

  static void Fields(auto& m, auto& io) { io(m.items); }
};

/// Reply to HistoryScan: the matching occurrences in logical-clock order
/// (Notification encoding with an empty subscription key), plus `complete`
/// — false when the server's limit clamp cut the result short — and the
/// resume cursor next_seq (the last row's seq): copy it into the next
/// request's after_seq to continue exactly where this page ended.
struct HistoryBatchMsg : Body<HistoryBatchMsg> {
  std::vector<Notification> items;
  bool complete = true;
  uint64_t next_seq = 0;

  static void Fields(auto& m, auto& io) { io(m.items, m.complete, m.next_seq); }
};

/// Reply to ReplSubscribe. Sections are filled per the request mode;
/// cursors always come back advanced so the follower's next request
/// resumes exactly where this batch ended.
struct ReplBatchMsg : Body<ReplBatchMsg> {
  /// One snapshot object image.
  struct ObjectImage {
    uint64_t oid = 0;
    std::string class_name;
    std::string state;

    static void Fields(auto& m, auto& io) {
      io(m.oid, m.class_name, m.state);
    }
  };

  uint64_t epoch = 0;      ///< Serving node's current epoch.
  uint8_t primary = 0;     ///< 1 while the serving node believes it leads.
  uint8_t mode = 0;        ///< Echo of the request mode.

  // Probe section (also stamped on every reply).
  uint64_t wal_base_lsn = 0;   ///< Oldest LSN still shippable.
  uint64_t wal_end_lsn = 0;    ///< LSN one past the newest record.
  uint64_t mirror_total = 0;   ///< Occurrence-mirror rows appended ever.

  // Snapshot section.
  std::vector<ObjectImage> objects;
  uint64_t next_oid = 0;       ///< Pass back as after_oid.
  uint8_t snapshot_done = 0;   ///< 1 = no objects past next_oid.
  /// WAL position captured when this chunk was cut: tailing from the
  /// *first* chunk's value replays everything the fuzzy snapshot raced.
  uint64_t snapshot_lsn = 0;

  // Tail section.
  /// WAL record bodies, u8 type | u64 txn | u64 oid | string payload: the
  /// bytes txn/wal.h's WalRecordView parses, written here as they are.
  std::vector<std::string> wal;
  uint64_t next_lsn = 0;       ///< Pass back as next_lsn.
  /// 1 = the requested LSN was checkpoint-truncated away; re-snapshot.
  uint8_t wal_reset = 0;
  /// Occurrence-mirror rows (HistorySegmentStore record bodies).
  std::vector<std::string> occ_records;
  uint64_t next_ordinal = 0;   ///< Pass back as after_ordinal.

  static void Fields(auto& m, auto& io) {
    io(m.epoch, m.primary, m.mode, m.wal_base_lsn, m.wal_end_lsn,
       m.mirror_total, m.objects, m.next_oid, m.snapshot_done, m.snapshot_lsn);
    io.WalBodies(m.wal);
    io(m.next_lsn, m.wal_reset, m.occ_records, m.next_ordinal);
  }
};

/// Reply to Ping.
struct PongMsg : Body<PongMsg> {
  uint64_t token = 0;

  static void Fields(auto& m, auto& io) { io(m.token); }
};

/// Reply to GetStats: one JSON document, built on the mutator thread, with
/// a top-level object per requested section, e.g.
///   {"db": {"counters": ..., "gauges": ..., "histograms": ...},
///    "gateway": {"sessions": N, "ingress_depth": N, ...}}
/// JSON (not codec structs) so the schema can grow section-by-section
/// without a wire-format change, and so the payload is directly usable by
/// external tooling.
struct StatsReplyMsg : Body<StatsReplyMsg> {
  std::string json;

  Status Check() const;
  static void Fields(auto& m, auto& io) { io(m.json); }
};

}  // namespace net
}  // namespace sentinel

#endif  // SENTINEL_NET_WIRE_H_
