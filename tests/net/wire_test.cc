// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Wire framing: every frame type round-trips, and truncated / oversized /
// garbage frames come back as clean Status errors, never crashes.

#include "net/wire.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <random>

namespace sentinel {
namespace net {
namespace {

std::string Framed(FrameType type, const std::string& body) {
  std::string out;
  EncodeFrame(type, body, &out);
  return out;
}

template <typename Msg>
std::string BodyOf(const Msg& msg) {
  Encoder enc;
  msg.Encode(&enc);
  return enc.buffer();
}

// --- Frame splitting ---------------------------------------------------------

TEST(FrameTest, RoundTripsThroughBuffer) {
  PingMsg ping;
  ping.token = 0xdeadbeef;
  std::string wire = Framed(FrameType::kPing, BodyOf(ping));

  Frame frame;
  size_t consumed = 0;
  Status error;
  ASSERT_EQ(TryDecodeFrame(wire, kDefaultMaxFrameBody, &frame, &consumed,
                           &error),
            DecodeProgress::kFrame);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_EQ(frame.type, FrameType::kPing);
  auto decoded = PingMsg::Decode(frame.body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->token, 0xdeadbeefu);
}

TEST(FrameTest, EveryTruncationAsksForMoreBytes) {
  RaiseEventMsg msg;
  msg.class_name = "Employee";
  msg.method = "ChangeIncome";
  msg.params = {Value(50000.0), Value("fred")};
  std::string wire = Framed(FrameType::kRaiseEvent, BodyOf(msg));

  // No prefix of a valid frame may error or yield a frame.
  for (size_t len = 0; len < wire.size(); ++len) {
    Frame frame;
    size_t consumed = 0;
    Status error;
    EXPECT_EQ(TryDecodeFrame(wire.substr(0, len), kDefaultMaxFrameBody,
                             &frame, &consumed, &error),
              DecodeProgress::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(FrameTest, TwoFramesSplitInOrder) {
  PingMsg a, b;
  a.token = 1;
  b.token = 2;
  std::string wire = Framed(FrameType::kPing, BodyOf(a)) +
                     Framed(FrameType::kPing, BodyOf(b));

  Frame frame;
  size_t consumed = 0;
  Status error;
  ASSERT_EQ(TryDecodeFrame(wire, kDefaultMaxFrameBody, &frame, &consumed,
                           &error),
            DecodeProgress::kFrame);
  EXPECT_EQ(PingMsg::Decode(frame.body)->token, 1u);
  wire.erase(0, consumed);
  ASSERT_EQ(TryDecodeFrame(wire, kDefaultMaxFrameBody, &frame, &consumed,
                           &error),
            DecodeProgress::kFrame);
  EXPECT_EQ(PingMsg::Decode(frame.body)->token, 2u);
}

TEST(FrameTest, OversizedLengthPrefixIsRejectedBeforeBuffering) {
  Encoder enc;
  enc.PutU32((kDefaultMaxFrameBody + 1) | (uint32_t{kProtocolV2} << 24));
  enc.PutU8(static_cast<uint8_t>(FrameType::kPing));

  Frame frame;
  size_t consumed = 0;
  Status error;
  EXPECT_EQ(TryDecodeFrame(enc.buffer(), kDefaultMaxFrameBody, &frame,
                           &consumed, &error),
            DecodeProgress::kError);
  EXPECT_TRUE(error.IsResourceExhausted()) << error.ToString();
}

TEST(FrameTest, UnknownFrameTypeIsRejected) {
  Encoder enc;
  enc.PutU32(uint32_t{kProtocolV2} << 24);
  enc.PutU8(42);  // Not a FrameType.

  Frame frame;
  size_t consumed = 0;
  Status error;
  EXPECT_EQ(TryDecodeFrame(enc.buffer(), kDefaultMaxFrameBody, &frame,
                           &consumed, &error),
            DecodeProgress::kError);
  EXPECT_TRUE(error.IsInvalidArgument()) << error.ToString();
}

// --- Message round trips -----------------------------------------------------

TEST(WireMessageTest, RaiseEventRoundTrips) {
  RaiseEventMsg msg;
  msg.oid = 77;
  msg.class_name = "Employee";
  msg.method = "ChangeIncome";
  msg.modifier = EventModifier::kBegin;
  msg.params = {Value(int64_t{42}), Value(2.5), Value("x"), Value(true),
                Value::MakeOid(9)};

  auto decoded = RaiseEventMsg::Decode(BodyOf(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->oid, 77u);
  EXPECT_EQ(decoded->class_name, "Employee");
  EXPECT_EQ(decoded->method, "ChangeIncome");
  EXPECT_EQ(decoded->modifier, EventModifier::kBegin);
  ASSERT_EQ(decoded->params.size(), 5u);
  EXPECT_EQ(decoded->params[0], Value(int64_t{42}));
  EXPECT_EQ(decoded->params[4].AsOid(), 9u);
}

TEST(WireMessageTest, CreateRuleRoundTrips) {
  CreateRuleMsg msg;
  msg.name = "HighSalary";
  msg.event_signature = "end Employee::ChangeIncome(float)";
  msg.condition_name = "over_limit";
  msg.action_name = "gateway.notify";
  msg.coupling = 2;
  msg.priority = -3;
  msg.enabled = false;

  auto decoded = CreateRuleMsg::Decode(BodyOf(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->name, "HighSalary");
  EXPECT_EQ(decoded->event_signature, "end Employee::ChangeIncome(float)");
  EXPECT_EQ(decoded->condition_name, "over_limit");
  EXPECT_EQ(decoded->action_name, "gateway.notify");
  EXPECT_EQ(decoded->coupling, 2);
  EXPECT_EQ(decoded->priority, -3);
  EXPECT_FALSE(decoded->enabled);
}

TEST(WireMessageTest, RuleNameSubscribeFetchPongRoundTrip) {
  RuleNameMsg rule;
  rule.name = "R1";
  EXPECT_EQ(RuleNameMsg::Decode(BodyOf(rule))->name, "R1");

  SubscribeMsg sub;
  sub.key = "end Employee::ChangeIncome";
  EXPECT_EQ(SubscribeMsg::Decode(BodyOf(sub))->key, sub.key);

  FetchMsg fetch;
  fetch.max = 17;
  fetch.wait_ms = 250;
  auto f = FetchMsg::Decode(BodyOf(fetch));
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->max, 17u);
  EXPECT_EQ(f->wait_ms, 250u);

  PongMsg pong;
  pong.token = 999;
  EXPECT_EQ(PongMsg::Decode(BodyOf(pong))->token, 999u);
}

TEST(WireMessageTest, StatusReplyCarriesEveryCode) {
  const Status statuses[] = {
      Status::OK(),
      Status::NotFound("a"),
      Status::InvalidArgument("b"),
      Status::AlreadyExists("c"),
      Status::Corruption("d"),
      Status::IOError("e"),
      Status::Aborted("f"),
      Status::Busy("g"),
      Status::NotSupported("h"),
      Status::FailedPrecondition("i"),
      Status::Internal("j"),
      Status::ResourceExhausted("k"),
  };
  for (const Status& s : statuses) {
    StatusReplyMsg msg = StatusReplyMsg::FromStatus(s, 5);
    auto decoded = StatusReplyMsg::Decode(BodyOf(msg));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->ToStatus(), s);
    EXPECT_EQ(decoded->payload, 5u);
  }
}

TEST(WireMessageTest, NotificationBatchRoundTrips) {
  NotificationBatchMsg batch;
  for (int i = 0; i < 3; ++i) {
    Notification n;
    n.key = "end Sensor::Report";
    n.oid = 100 + i;
    n.class_name = "Sensor";
    n.method = "Report";
    n.modifier = EventModifier::kEnd;
    n.params = {Value(double(i))};
    n.timestamp = {1000 + i, static_cast<uint64_t>(i)};
    batch.items.push_back(n);
  }
  auto decoded = NotificationBatchMsg::Decode(BodyOf(batch));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->items.size(), 3u);
  EXPECT_EQ(decoded->items[2].oid, 102u);
  EXPECT_EQ(decoded->items[2].timestamp.micros, 1002);
  EXPECT_EQ(decoded->items[1].params[0], Value(1.0));
}

// --- Hostile bodies ----------------------------------------------------------

TEST(WireMessageTest, TruncatedBodiesFailCleanly) {
  RaiseEventMsg msg;
  msg.class_name = "Employee";
  msg.method = "ChangeIncome";
  msg.params = {Value(1.0)};
  std::string body = BodyOf(msg);

  for (size_t len = 0; len < body.size(); ++len) {
    auto r = RaiseEventMsg::Decode(body.substr(0, len));
    EXPECT_FALSE(r.ok()) << "truncated body of length " << len;
  }
}

TEST(WireMessageTest, GarbageBodiesFailCleanly) {
  std::string garbage = "\xff\x13\x37 not a message at all \x00\x01";
  EXPECT_FALSE(RaiseEventMsg::Decode(garbage).ok());
  EXPECT_FALSE(CreateRuleMsg::Decode(garbage).ok());
  EXPECT_FALSE(RuleNameMsg::Decode(garbage).ok());
  EXPECT_FALSE(SubscribeMsg::Decode(garbage).ok());
  EXPECT_FALSE(FetchMsg::Decode(garbage).ok());
  EXPECT_FALSE(StatusReplyMsg::Decode(garbage).ok());
  EXPECT_FALSE(NotificationBatchMsg::Decode(garbage).ok());
  EXPECT_FALSE(PingMsg::Decode(garbage).ok());
  EXPECT_FALSE(PongMsg::Decode(garbage).ok());
}

TEST(WireMessageTest, TrailingBytesAreRejected) {
  PingMsg ping;
  ping.token = 5;
  std::string body = BodyOf(ping) + "extra";
  auto r = PingMsg::Decode(body);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(WireMessageTest, SemanticValidationRejectsBadFields) {
  // Empty class/method.
  RaiseEventMsg raise;
  raise.method = "M";
  EXPECT_FALSE(RaiseEventMsg::Decode(BodyOf(raise)).ok());

  // Out-of-range coupling mode.
  CreateRuleMsg rule;
  rule.name = "R";
  rule.coupling = 9;
  EXPECT_FALSE(CreateRuleMsg::Decode(BodyOf(rule)).ok());

  // Zero-max fetch.
  FetchMsg fetch;
  fetch.max = 0;
  EXPECT_FALSE(FetchMsg::Decode(BodyOf(fetch)).ok());

  // A notification batch whose count lies about the payload.
  Encoder enc;
  enc.PutU32(1000000);  // Claims a million items, provides none.
  EXPECT_FALSE(NotificationBatchMsg::Decode(enc.buffer()).ok());
}

// --- Protocol versioning -----------------------------------------------------

TEST(FrameVersionTest, VersionByteRoundTripsInHeader) {
  PingMsg ping;
  ping.token = 7;
  std::string wire;
  EncodeFrame(FrameType::kPing, BodyOf(ping), &wire);
  // The length word's high byte carries the version, by default.
  ASSERT_GE(wire.size(), kFrameHeaderSize);
  EXPECT_EQ(static_cast<uint8_t>(wire[3]), kProtocolV2);

  Frame frame;
  size_t consumed = 0;
  Status error;
  ASSERT_EQ(TryDecodeFrame(wire, kDefaultMaxFrameBody, &frame, &consumed,
                           &error),
            DecodeProgress::kFrame);
  EXPECT_EQ(consumed, wire.size());
  EXPECT_TRUE(PingMsg::Decode(frame.body).ok());
}

TEST(FrameVersionTest, LegacyVersionBytesAreRejected) {
  // Version 0 is what pre-versioning peers emitted (the top byte of their
  // length word was always zero); version 1 named that same framing.
  // Neither is spoken any more.
  for (uint8_t version : {uint8_t{0}, uint8_t{1}}) {
    std::string wire;
    EncodeFrame(FrameType::kPing, BodyOf(PingMsg{}), &wire, version);
    Frame frame;
    size_t consumed = 0;
    Status error;
    EXPECT_EQ(TryDecodeFrame(wire, kDefaultMaxFrameBody, &frame, &consumed,
                             &error),
              DecodeProgress::kError)
        << int{version};
    EXPECT_TRUE(error.IsInvalidArgument()) << error.ToString();
  }
}

TEST(FrameVersionTest, FutureVersionIsAProtocolError) {
  std::string wire;
  EncodeFrame(FrameType::kPing, BodyOf(PingMsg{}), &wire, kProtocolV2 + 1);
  Frame frame;
  size_t consumed = 0;
  Status error;
  EXPECT_EQ(TryDecodeFrame(wire, kDefaultMaxFrameBody, &frame, &consumed,
                           &error),
            DecodeProgress::kError);
}

TEST(WireMessageTest, HelloRoundTripsAndValidates) {
  HelloMsg hello;
  hello.tenant = "acme";
  auto decoded = HelloMsg::Decode(BodyOf(hello));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->magic, HelloMsg::kMagic);
  EXPECT_EQ(decoded->tenant, "acme");

  // Wrong magic.
  HelloMsg bad = hello;
  bad.magic = 0xdeadbeef;
  EXPECT_FALSE(HelloMsg::Decode(BodyOf(bad)).ok());

  // Trailing bytes.
  EXPECT_FALSE(HelloMsg::Decode(BodyOf(hello) + "x").ok());
}

TEST(WireMessageTest, HelloReplyRoundTripsAndRejectsTrailingBytes) {
  HelloReplyMsg reply;
  reply.max_frame_body = 123456;
  reply.server = "sentinel-gateway/2";
  auto decoded = HelloReplyMsg::Decode(BodyOf(reply));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->max_frame_body, 123456u);
  EXPECT_EQ(decoded->server, "sentinel-gateway/2");

  EXPECT_FALSE(HelloReplyMsg::Decode(BodyOf(reply) + "x").ok());
  EXPECT_FALSE(HelloReplyMsg::Decode("").ok());
}

TEST(WireMessageTest, BatchStatusReplyRoundTripsRuns) {
  BatchStatusReplyMsg batch;
  batch.runs.push_back({100, 0, "", 42});
  batch.runs.push_back({1, 8, "ingress queue full (64)", 0});
  batch.runs.push_back({25, 0, "", 42});
  EXPECT_EQ(batch.TotalAcks(), 126u);

  auto decoded = BatchStatusReplyMsg::Decode(BodyOf(batch));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->runs.size(), 3u);
  EXPECT_EQ(decoded->runs[0].count, 100u);
  EXPECT_EQ(decoded->runs[0].payload, 42u);
  EXPECT_EQ(decoded->runs[1].message, "ingress queue full (64)");
  EXPECT_EQ(decoded->TotalAcks(), 126u);
}

TEST(WireMessageTest, BatchStatusReplyRejectsMalformedRuns) {
  // Empty batch.
  Encoder empty;
  empty.PutU32(0);
  EXPECT_FALSE(BatchStatusReplyMsg::Decode(empty.buffer()).ok());

  // A zero-count run.
  BatchStatusReplyMsg batch;
  batch.runs.push_back({0, 0, "", 0});
  EXPECT_FALSE(BatchStatusReplyMsg::Decode(BodyOf(batch)).ok());

  EXPECT_FALSE(BatchStatusReplyMsg::Decode("garbage").ok());
}


// --- Golden bytes ------------------------------------------------------------

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

/// One fixed sample of a message type: its encoded body, and a function that
/// decodes bytes as that type and re-encodes the result.
struct WireSample {
  std::string name;
  std::string body;
  std::function<Result<std::string>(const std::string&)> reencode;
};

template <typename Msg>
WireSample SampleOf(std::string name, const Msg& msg) {
  return {std::move(name), BodyOf(msg),
          [](const std::string& bytes) -> Result<std::string> {
            auto decoded = Msg::Decode(bytes);
            if (!decoded.ok()) return decoded.status();
            return BodyOf(decoded.value());
          }};
}

ValueList EveryValueTag() {
  return {Value(), Value(true), Value(int64_t{-3}), Value(2.5), Value("txt"),
          Value::MakeOid(77)};
}

Notification SampleNotification(std::string key, uint64_t oid) {
  Notification n;
  n.key = std::move(key);
  n.oid = oid;
  n.class_name = "Sensor";
  n.method = "Report";
  n.modifier = EventModifier::kBegin;
  n.params = EveryValueTag();
  n.timestamp = {1700000000000000 + static_cast<int64_t>(oid), oid + 5};
  return n;
}

std::string WalRecordBody(uint8_t type, uint64_t txn, uint64_t oid,
                          const std::string& payload) {
  Encoder enc;
  enc.PutU8(type);
  enc.PutU64(txn);
  enc.PutU64(oid);
  enc.PutString(payload);
  return enc.buffer();
}

/// One sample of each of the 18 message types, every field set: lists hold
/// two or more items and params cover every Value tag.
std::vector<WireSample> Samples() {
  std::vector<WireSample> out;

  PingMsg ping;
  ping.token = 0x0102030405060708ull;
  out.push_back(SampleOf("Ping", ping));

  RaiseEventMsg raise;
  raise.oid = 42;
  raise.class_name = "Employee";
  raise.method = "ChangeIncome";
  raise.modifier = EventModifier::kBegin;
  raise.params = EveryValueTag();
  out.push_back(SampleOf("RaiseEvent", raise));

  CreateRuleMsg rule;
  rule.name = "R1";
  rule.event_signature = "end Employee::ChangeIncome";
  rule.condition_name = "IsRich";
  rule.action_name = "Notify";
  rule.coupling = 2;
  rule.priority = -5;
  rule.enabled = false;
  out.push_back(SampleOf("CreateRule", rule));

  RuleNameMsg rule_name;
  rule_name.name = "R1";
  out.push_back(SampleOf("RuleName", rule_name));

  SubscribeMsg subscribe;
  subscribe.key = "rule:R1";
  out.push_back(SampleOf("Subscribe", subscribe));

  FetchMsg fetch;
  fetch.max = 32;
  fetch.wait_ms = 250;
  out.push_back(SampleOf("Fetch", fetch));

  HelloMsg hello;
  hello.tenant = "acme";
  out.push_back(SampleOf("Hello", hello));

  StatsRequestMsg stats;
  stats.sections = StatsRequestMsg::kGateway;
  out.push_back(SampleOf("StatsRequest", stats));

  HistoryScanMsg scan;
  scan.min_seq = 3;
  scan.max_seq = 900;
  scan.min_micros = 1000;
  scan.max_micros = 2000;
  scan.oid = 42;
  scan.limit = 128;
  scan.after_seq = 17;
  out.push_back(SampleOf("HistoryScan", scan));

  ReplSubscribeMsg subscribe_repl;
  subscribe_repl.epoch = 4;
  subscribe_repl.mode = ReplSubscribeMsg::kTail;
  subscribe_repl.after_oid = 11;
  subscribe_repl.next_lsn = 512;
  subscribe_repl.after_ordinal = 9;
  subscribe_repl.max_items = 64;
  out.push_back(SampleOf("ReplSubscribe", subscribe_repl));

  out.push_back(SampleOf(
      "StatusReply",
      StatusReplyMsg::FromStatus(Status::NotFound("no such rule"), 7)));

  HelloReplyMsg hello_reply;
  hello_reply.max_frame_body = 1u << 20;
  hello_reply.server = "sentinel-gateway/2";
  out.push_back(SampleOf("HelloReply", hello_reply));

  BatchStatusReplyMsg batch_status;
  batch_status.runs.push_back({3, 0, "", 42});
  batch_status.runs.push_back(
      {1, static_cast<uint8_t>(Status::Code::kInvalidArgument), "bad", 9});
  out.push_back(SampleOf("BatchStatusReply", batch_status));

  NotificationBatchMsg notes;
  notes.items.push_back(SampleNotification("end Sensor::Report", 100));
  notes.items.push_back(SampleNotification("rule:R1", 101));
  out.push_back(SampleOf("NotificationBatch", notes));

  HistoryBatchMsg history;
  history.items.push_back(SampleNotification("", 200));
  history.items.push_back(SampleNotification("", 201));
  history.complete = false;
  history.next_seq = 206;
  out.push_back(SampleOf("HistoryBatch", history));

  ReplBatchMsg repl;
  repl.epoch = 5;
  repl.primary = 1;
  repl.mode = ReplSubscribeMsg::kTail;
  repl.wal_base_lsn = 100;
  repl.wal_end_lsn = 300;
  repl.mirror_total = 12;
  repl.objects.push_back({21, "Sensor", "state-a"});
  repl.objects.push_back({22, "Gauge", "state-b"});
  repl.next_oid = 23;
  repl.snapshot_done = 1;
  repl.snapshot_lsn = 150;
  repl.wal.push_back(WalRecordBody(2, 901, 21, "image"));
  repl.wal.push_back(WalRecordBody(4, 901, 0, ""));
  repl.next_lsn = 300;
  repl.wal_reset = 1;
  repl.occ_records.push_back("occ-one");
  repl.occ_records.push_back("occ-two");
  repl.next_ordinal = 12;
  out.push_back(SampleOf("ReplBatch", repl));

  PongMsg pong;
  pong.token = 0x1122334455667788ull;
  out.push_back(SampleOf("Pong", pong));

  StatsReplyMsg stats_reply;
  stats_reply.json = R"({"db":{}})";
  out.push_back(SampleOf("StatsReply", stats_reply));

  return out;
}

// Round-trip tests cannot see a layout change both directions make
// together; these bytes pin the layout itself.
TEST(WireGoldenTest, EveryMessageEncodesToItsGoldenBytes) {
  const std::map<std::string, std::string> kGolden = {
      {"Ping", "0807060504030201"},
      {"RaiseEvent",
       "2a0000000000000008000000456d706c6f7965650c0000004368616e6765496e"
       "636f6d65000600000000010102fdffffffffffffff0300000000000004400403"
       "000000747874054d00000000000000"},
      {"CreateRule",
       "0200000052311a000000656e6420456d706c6f7965653a3a4368616e6765496e"
       "636f6d6506000000497352696368060000004e6f7469667902fbffffffffffff"
       "ff00"},
      {"RuleName", "020000005231"},
      {"Subscribe", "0700000072756c653a5231"},
      {"Fetch", "20000000fa000000"},
      {"Hello", "4c544e530400000061636d65"},
      {"StatsRequest", "02000000"},
      {"HistoryScan",
       "03000000000000008403000000000000e803000000000000d007000000000000"
       "2a00000000000000800000001100000000000000"},
      {"ReplSubscribe",
       "0400000000000000020b00000000000000000200000000000009000000000000"
       "0040000000"},
      {"StatusReply", "010c0000006e6f20737563682072756c650700000000000000"},
      {"HelloReply", "000010001200000073656e74696e656c2d676174657761792f32"},
      {"BatchStatusReply",
       "020000000300000000000000002a000000000000000100000002030000006261"
       "640900000000000000"},
      {"NotificationBatch",
       "0200000012000000656e642053656e736f723a3a5265706f7274640000000000"
       "00000600000053656e736f72060000005265706f7274000600000000010102fd"
       "ffffffffffffff0300000000000004400403000000747874054d000000000000"
       "0064401e18240a060069000000000000000700000072756c653a523165000000"
       "000000000600000053656e736f72060000005265706f72740006000000000101"
       "02fdffffffffffffff0300000000000004400403000000747874054d00000000"
       "00000065401e18240a06006a00000000000000"},
      {"HistoryBatch",
       "0200000000000000c8000000000000000600000053656e736f72060000005265"
       "706f7274000600000000010102fdffffffffffffff0300000000000004400403"
       "000000747874054d00000000000000c8401e18240a0600cd0000000000000000"
       "000000c9000000000000000600000053656e736f72060000005265706f727400"
       "0600000000010102fdffffffffffffff03000000000000044004030000007478"
       "74054d00000000000000c9401e18240a0600ce0000000000000000ce00000000"
       "000000"},
      {"ReplBatch",
       "0500000000000000010264000000000000002c010000000000000c0000000000"
       "00000200000015000000000000000600000053656e736f720700000073746174"
       "652d6116000000000000000500000047617567650700000073746174652d6217"
       "0000000000000001960000000000000002000000028503000000000000150000"
       "000000000005000000696d616765048503000000000000000000000000000000"
       "0000002c010000000000000102000000070000006f63632d6f6e65070000006f"
       "63632d74776f0c00000000000000"},
      {"Pong", "8877665544332211"},
      {"StatsReply", "090000007b226462223a7b7d7d"},
  };
  const std::vector<WireSample> samples = Samples();
  ASSERT_EQ(samples.size(), 18u);
  for (const WireSample& sample : samples) {
    SCOPED_TRACE(sample.name);
    auto golden = kGolden.find(sample.name);
    ASSERT_NE(golden, kGolden.end());
    EXPECT_EQ(Hex(sample.body), golden->second);
    auto again = sample.reencode(sample.body);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again.value(), sample.body);
  }
}


// --- Hostile list counts and seeded mutations --------------------------------

// Each list count of a ReplBatch claims 2^32 - 1 items the body does not
// hold. The reader reserves at most the bytes left, so each decode fails
// with underflow instead of allocating for the claim.
TEST(WireMutationTest, ReplBatchHostileListCountsFailCleanly) {
  const std::string valid = BodyOf(ReplBatchMsg{});
  ASSERT_TRUE(ReplBatchMsg::Decode(valid).ok());
  // Offsets of the objects, wal and occ_records counts in a body whose
  // lists are empty.
  const size_t objects_at = 8 + 1 + 1 + 8 + 8 + 8;
  const size_t wal_at = objects_at + 4 + 8 + 1 + 8;
  const size_t occ_at = wal_at + 4 + 8 + 1;
  ASSERT_EQ(valid.size(), occ_at + 4 + 8);
  for (size_t at : {objects_at, wal_at, occ_at}) {
    SCOPED_TRACE("count at " + std::to_string(at));
    std::string body = valid;
    body.replace(at, 4, "\xff\xff\xff\xff");
    Result<ReplBatchMsg> decoded = Status::Internal("not decoded");
    ASSERT_NO_THROW(decoded = ReplBatchMsg::Decode(body));
    ASSERT_FALSE(decoded.ok());
    EXPECT_TRUE(decoded.status().IsCorruption()) << decoded.status().ToString();
  }
}

// Seeded hostile bodies: mutations of every golden sample. Each decode
// returns a Status without throwing, and a body that decodes OK re-encodes
// to exactly its own bytes: every decoder is strict, so any other outcome
// means Encode and Decode disagree. Each run takes the next seed from a
// per-process counter, so --gtest_repeat covers more of them.
TEST(WireMutationTest, MutatedBodiesFailOrReencodeExactly) {
  static uint32_t iteration = 0;
  const uint32_t seed = iteration++;
  SCOPED_TRACE(std::string("seed ").append(std::to_string(seed)));
  std::mt19937 rng(seed);
  auto below = [&](size_t n) {
    return static_cast<size_t>(std::uniform_int_distribution<size_t>(
        0, n - 1)(rng));
  };
  auto put_u32 = [&](std::string* body, uint32_t v) {
    body->replace(below(body->size() - 3), 4,
                  reinterpret_cast<const char*>(&v), 4);
  };
  for (const WireSample& sample : Samples()) {
    SCOPED_TRACE(sample.name);
    for (int round = 0; round < 1000; ++round) {
      std::string body = sample.body;
      switch (below(5)) {
        case 0:  // Truncation.
          body.resize(below(body.size()));
          break;
        case 1:  // One to three flipped bytes.
          for (size_t i = 1 + below(3); i > 0; --i) {
            body[below(body.size())] ^= static_cast<char>(1 + below(255));
          }
          break;
        case 2:  // A u32 (a count, a length) claiming everything.
          put_u32(&body, 0xFFFFFFFFu);
          break;
        case 3:  // A random u32.
          put_u32(&body, static_cast<uint32_t>(rng()));
          break;
        default:  // Appended bytes.
          for (size_t i = 1 + below(8); i > 0; --i) {
            body.push_back(static_cast<char>(below(256)));
          }
          break;
      }
      Result<std::string> again = Status::Internal("not decoded");
      ASSERT_NO_THROW(again = sample.reencode(body)) << "round " << round;
      if (again.ok()) {
        ASSERT_EQ(Hex(again.value()), Hex(body)) << "round " << round;
      }
    }
  }
}

TEST(WireMessageTest, StatusReplyCarriesOutOfRange) {
  const Status s = Status::OutOfRange("lsn truncated away");
  auto reply = StatusReplyMsg::Decode(BodyOf(StatusReplyMsg::FromStatus(s)));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->ToStatus(), s);

  BatchStatusReplyMsg batch;
  batch.runs.push_back(
      {2, static_cast<uint8_t>(Status::Code::kOutOfRange), "gone", 0});
  auto runs = BatchStatusReplyMsg::Decode(BodyOf(batch));
  ASSERT_TRUE(runs.ok()) << runs.status().ToString();
  EXPECT_EQ(runs->TotalAcks(), 2u);

  StatusReplyMsg unknown;
  unknown.code = static_cast<uint8_t>(Status::Code::kOutOfRange) + 1;
  EXPECT_TRUE(
      StatusReplyMsg::Decode(BodyOf(unknown)).status().IsInvalidArgument());
}

}  // namespace
}  // namespace net
}  // namespace sentinel
