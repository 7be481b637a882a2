// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Wire framing: every frame type round-trips, and truncated / oversized /
// garbage frames come back as clean Status errors, never crashes.

#include "net/wire.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace net
}  // namespace sentinel
