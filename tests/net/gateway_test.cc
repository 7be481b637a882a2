// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// End-to-end gateway tests over loopback TCP: a remote raise triggers
// rules and reaches another connection's subscription, long-polls complete
// on raise, and malformed streams are rejected without taking the server
// down. Clients use the role API (Connection + Publisher + Subscriber).

#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "common/failpoint.h"
#include "net/client.h"
#include "test_util.h"

namespace sentinel {
namespace net {
namespace {

using std::chrono::milliseconds;

class GatewayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tmp_ = std::make_unique<testing_util::TempDir>("gateway");
    auto opened = Database::Open({.dir = tmp_->path()});
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db_ = std::move(opened).value();

    // Server-side schema: all mutations after Start() must flow through
    // the gateway's mutator thread.
    ASSERT_TRUE(db_->RegisterClass(ClassBuilder("Sensor")
                                       .Reactive()
                                       .Method("Report", {.begin = true,
                                                          .end = true})
                                       .Build())
                    .ok());

    server_ = std::make_unique<GatewayServer>(db_.get(), options_);
    Status s = server_->Start();
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  void TearDown() override {
    server_->Stop();
    server_.reset();
    db_->Close().ok();
    db_.reset();
    tmp_.reset();
  }

  std::unique_ptr<Connection> Dial() {
    auto c = Connection::Dial("127.0.0.1", server_->port());
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return std::move(c).value();
  }

  ServerOptions options_;
  std::unique_ptr<testing_util::TempDir> tmp_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<GatewayServer> server_;
};

TEST_F(GatewayTest, PingRoundTrips) {
  auto conn = Dial();
  EXPECT_TRUE(conn->Ping().ok());
}

TEST_F(GatewayTest, RaiseReachesAnotherSessionsSubscription) {
  auto consumer_conn = Dial();
  Subscriber consumer(consumer_conn.get());
  auto producer_conn = Dial();
  Publisher producer(producer_conn.get());

  ASSERT_TRUE(consumer.Subscribe("end Sensor::Report").ok());

  auto oid = producer.Raise("Sensor", "Report", EventModifier::kEnd,
                            {Value(21.5), Value("lab")});
  ASSERT_TRUE(oid.ok()) << oid.status().ToString();
  EXPECT_NE(*oid, 0u);

  auto batch = consumer.Fetch(16, 2000);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  // A begin and an end shade both reach PostRaise; the subscription only
  // matches the end key.
  ASSERT_EQ(batch->size(), 1u);
  const Notification& n = (*batch)[0];
  EXPECT_EQ(n.key, "end Sensor::Report");
  EXPECT_EQ(n.class_name, "Sensor");
  EXPECT_EQ(n.method, "Report");
  EXPECT_EQ(n.oid, *oid);
  ASSERT_EQ(n.params.size(), 2u);
  EXPECT_EQ(n.params[0], Value(21.5));
  EXPECT_EQ(n.params[1], Value("lab"));
}

TEST_F(GatewayTest, ParkedFetchCompletesOnRaise) {
  auto consumer_conn = Dial();
  Subscriber consumer(consumer_conn.get());
  ASSERT_TRUE(consumer.Subscribe("end Sensor::Report").ok());

  std::thread producer_thread([this] {
    std::this_thread::sleep_for(milliseconds(100));
    auto conn = Dial();
    Publisher producer(conn.get());
    producer.Raise("Sensor", "Report", EventModifier::kEnd, {Value(1.0)})
        .ok();
  });

  auto start = std::chrono::steady_clock::now();
  auto batch = consumer.Fetch(4, 5000);  // Parks server-side.
  auto elapsed = std::chrono::steady_clock::now() - start;
  producer_thread.join();

  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 1u);
  // The long-poll returned on delivery, well before its 5 s deadline.
  EXPECT_LT(elapsed, milliseconds(4000));
}

TEST_F(GatewayTest, ParkedFetchExpiresEmpty) {
  auto conn = Dial();
  Subscriber consumer(conn.get());
  ASSERT_TRUE(consumer.Subscribe("end Sensor::Report").ok());
  auto start = std::chrono::steady_clock::now();
  auto batch = consumer.Fetch(4, 150);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_TRUE(batch->empty());
  EXPECT_GE(std::chrono::steady_clock::now() - start, milliseconds(100));
}

TEST_F(GatewayTest, RemoteRuleFiresAndNotifiesRuleSubscribers) {
  auto consumer_conn = Dial();
  Subscriber consumer(consumer_conn.get());
  auto producer_conn = Dial();
  Publisher producer(producer_conn.get());

  CreateRuleMsg rule;
  rule.name = "AnyReport";
  rule.event_signature = "end Sensor::Report";
  ASSERT_TRUE(producer_conn->CreateRule(rule).ok());

  ASSERT_TRUE(consumer.Subscribe("rule:AnyReport").ok());

  ASSERT_TRUE(producer
                  .Raise("Sensor", "Report", EventModifier::kEnd,
                         {Value(2.0)})
                  .ok());
  auto batch = consumer.Fetch(16, 2000);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), 1u);
  EXPECT_EQ((*batch)[0].key, "rule:AnyReport");
  EXPECT_EQ((*batch)[0].method, "Report");

  // Disable stops the rule (and thus its notifications); enable restores.
  ASSERT_TRUE(producer_conn->DisableRule("AnyReport").ok());
  ASSERT_TRUE(producer
                  .Raise("Sensor", "Report", EventModifier::kEnd,
                         {Value(3.0)})
                  .ok());
  auto empty = consumer.Fetch(16, 0);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  ASSERT_TRUE(producer_conn->EnableRule("AnyReport").ok());
  ASSERT_TRUE(producer
                  .Raise("Sensor", "Report", EventModifier::kEnd,
                         {Value(4.0)})
                  .ok());
  auto again = consumer.Fetch(16, 2000);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->size(), 1u);
  ASSERT_EQ((*again)[0].params.size(), 1u);
  EXPECT_EQ((*again)[0].params[0], Value(4.0));
}

TEST_F(GatewayTest, UnknownRuleToggleFailsNotFound) {
  auto conn = Dial();
  Status s = conn->EnableRule("NoSuchRule");
  EXPECT_TRUE(s.IsNotFound()) << s.ToString();
}

TEST_F(GatewayTest, AutoRegistersUnknownClassOnRaise) {
  auto conn = Dial();
  Publisher producer(conn.get());
  auto oid = producer.Raise("Turbine", "SpinUp", EventModifier::kEnd,
                            {Value(int64_t{9000})});
  ASSERT_TRUE(oid.ok()) << oid.status().ToString();
  // Raising again addresses the same relay object.
  auto oid2 = producer.Raise("Turbine", "SpinUp", EventModifier::kEnd,
                             {Value(int64_t{9001})});
  ASSERT_TRUE(oid2.ok());
  EXPECT_EQ(*oid, *oid2);
}

TEST_F(GatewayTest, PipelinedRaisesAllSucceedOrReportBackpressure) {
  auto consumer_conn = Dial();
  Subscriber consumer(consumer_conn.get());
  ASSERT_TRUE(consumer.Subscribe("end Sensor::Report").ok());

  auto producer_conn = Dial();
  Publisher producer(producer_conn.get());
  std::vector<RaiseEventMsg> msgs(100);
  for (size_t i = 0; i < msgs.size(); ++i) {
    msgs[i].class_name = "Sensor";
    msgs[i].method = "Report";
    msgs[i].modifier = EventModifier::kEnd;
    msgs[i].params = {Value(static_cast<int64_t>(i))};
  }
  uint64_t rejected = 0;
  Status s = producer.RaisePipelined(msgs, &rejected);
  // With a large default ingress queue nothing should bounce, but a loaded
  // CI machine may still see ResourceExhausted — both are valid protocol
  // outcomes; crashes/misorders are not.
  EXPECT_TRUE(s.ok() || s.IsResourceExhausted()) << s.ToString();

  // Everything that was accepted must arrive, in producer order.
  size_t expected = msgs.size() - static_cast<size_t>(rejected);
  std::vector<Notification> got;
  while (got.size() < expected) {
    auto batch = consumer.Fetch(64, 2000);
    ASSERT_TRUE(batch.ok());
    if (batch->empty()) break;
    got.insert(got.end(), batch->begin(), batch->end());
  }
  EXPECT_EQ(got.size(), expected);
}

TEST_F(GatewayTest, RaiseEventRetriesTransientRejection) {
  FailPoints::Instance().Reset();
  auto conn = Dial();
  Publisher producer(conn.get());
  RetryPolicy policy;
  policy.max_attempts = 4;
  producer.set_retry_policy(policy);

  // The first raise the server handles is rejected as transient
  // backpressure; the client must resend rather than surface it.
  ASSERT_TRUE(FailPoints::Instance()
                  .EnableFromSpec("gateway.raise=resource_exhausted@hit(1)")
                  .ok());
  auto oid = producer.Raise("Sensor", "Report", EventModifier::kEnd,
                            {Value(1.0)});
  FailPoints::Instance().Reset();
  ASSERT_TRUE(oid.ok()) << oid.status().ToString();
  EXPECT_EQ(producer.retries_total(), 1u);
}

TEST_F(GatewayTest, DefaultPolicySurfacesTransientRejection) {
  FailPoints::Instance().Reset();
  auto conn = Dial();
  Publisher producer(conn.get());  // Default policy: one attempt, no retry.
  ASSERT_TRUE(FailPoints::Instance()
                  .EnableFromSpec("gateway.raise=resource_exhausted@hit(1)")
                  .ok());
  auto oid = producer.Raise("Sensor", "Report", EventModifier::kEnd,
                            {Value(1.0)});
  FailPoints::Instance().Reset();
  EXPECT_TRUE(oid.status().IsResourceExhausted()) << oid.status().ToString();
  EXPECT_EQ(producer.retries_total(), 0u);
}

TEST_F(GatewayTest, PipelinedRetryResendsOnlyRejectedSubset) {
  auto conn = Dial();
  Publisher producer(conn.get());
  RetryPolicy policy;
  policy.max_attempts = 4;
  producer.set_retry_policy(policy);

  std::vector<RaiseEventMsg> msgs(6);
  for (size_t i = 0; i < msgs.size(); ++i) {
    msgs[i].class_name = "Sensor";
    msgs[i].method = "Report";
    msgs[i].modifier = EventModifier::kEnd;
    msgs[i].params = {Value(static_cast<int64_t>(i))};
  }

  // Every third inbound frame bounces at the ingress queue. Armed only
  // now, after setup, so the six raises are hits 1-6: the first attempt
  // rejects two of them (hits 3 and 6), the retry of those two (hits 7-8)
  // sails through.
  FailPoints::Instance().Reset();
  ASSERT_TRUE(FailPoints::Instance()
                  .EnableFromSpec("gateway.ingress=resource_exhausted@every(3)")
                  .ok());
  uint64_t rejected = 0;
  Status s = producer.RaisePipelined(msgs, &rejected);
  FailPoints::Instance().Reset();

  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(rejected, 0u);
  EXPECT_EQ(producer.retries_total(), 2u);
}

// Regression for the pipelined ResourceExhausted-handling bug: a transient
// rejection mid-window used to let the window keep advancing, so raises
// after the rejection were still sent (and applied server-side) even though
// the caller was told "rejected — retry". The fix stalls the window at the
// first transient ack: in-flight raises drain, the unsent tail is withheld
// and reported as rejected, and first_rejected_seq() records where the
// stall began so callers can resume precisely.
TEST_F(GatewayTest, PipelinedRejectionStallsWindowAndWithholdsTail) {
  auto conn = Dial();
  constexpr size_t kWindow = 8;
  Publisher producer(conn.get(), kWindow);  // Default policy: no retry.
  EXPECT_EQ(producer.first_rejected_seq(), Publisher::kNoRejectedSeq);

  std::vector<RaiseEventMsg> msgs(64);
  for (size_t i = 0; i < msgs.size(); ++i) {
    msgs[i].class_name = "Sensor";
    msgs[i].method = "Report";
    msgs[i].modifier = EventModifier::kEnd;
    msgs[i].params = {Value(static_cast<int64_t>(i))};
  }

  const uint64_t processed_before = server_->stats().requests_processed;
  FailPoints::Instance().Reset();
  // The very first raise the worker handles bounces as backpressure.
  ASSERT_TRUE(FailPoints::Instance()
                  .EnableFromSpec("gateway.raise=resource_exhausted@hit(1)")
                  .ok());
  uint64_t rejected = 0;
  Status s = producer.RaisePipelined(msgs, &rejected);
  FailPoints::Instance().Reset();

  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  // Rejected = the bounced raise itself plus the entire withheld tail that
  // was never sent: 64 total - 7 survivors of the first burst (seqs 1-7).
  EXPECT_EQ(rejected, 64u - (kWindow - 1));
  EXPECT_EQ(producer.first_rejected_seq(), 0u);
  EXPECT_EQ(producer.retries_total(), 0u);

  // The server only ever saw the first window's burst — the tail really was
  // withheld on the wire, not sent-and-ignored. (All acks were read before
  // RaisePipelined returned, so the worker-side count is settled.)
  const uint64_t processed_after = server_->stats().requests_processed;
  EXPECT_EQ(processed_after - processed_before, kWindow);
}

TEST_F(GatewayTest, DisconnectWhileParkedReapsFetchAndSubscriptions) {
  // Regression: a session that died while parked on a long-poll fetch used
  // to stay registered in the hub's parked set, and its subscriptions kept
  // receiving (and dropping) notifications forever. The kill-while-parked
  // sequence below must leave the server fully clean.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  auto send_frame = [&](FrameType type, const auto& msg) {
    Encoder enc;
    msg.Encode(&enc);
    std::string out;
    EncodeFrame(type, std::string(enc.buffer().begin(), enc.buffer().end()),
                &out);
    ASSERT_EQ(::send(fd, out.data(), out.size(), 0),
              static_cast<ssize_t>(out.size()));
  };

  // Subscribe, and wait for the OK so the subscription is registered.
  SubscribeMsg sub;
  sub.key = "end Sensor::Report";
  send_frame(FrameType::kSubscribe, sub);
  {
    std::string got;
    char buf[4096];
    Frame frame;
    size_t consumed = 0;
    Status error;
    while (TryDecodeFrame(got, kDefaultMaxFrameBody, &frame, &consumed,
                          &error) != DecodeProgress::kFrame) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      ASSERT_GT(n, 0);
      got.append(buf, static_cast<size_t>(n));
    }
    ASSERT_EQ(frame.type, FrameType::kStatusReply);
    auto reply = StatusReplyMsg::Decode(frame.body);
    ASSERT_TRUE(reply.ok());
    ASSERT_TRUE(reply->ToStatus().ok());
  }

  // Park a long fetch server-side (nothing pending, generous deadline),
  // then wait until a worker has actually processed the park.
  FetchMsg fetch;
  fetch.max = 4;
  fetch.wait_ms = 30000;
  send_frame(FrameType::kFetchNotifications, fetch);
  auto deadline = std::chrono::steady_clock::now() + milliseconds(5000);
  while (server_->stats().requests_processed < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(2));
  }
  ASSERT_GE(server_->stats().requests_processed, 2u);

  // Kill the socket mid-park and wait for the IO thread to reap the
  // session (poll sees the close; the hub must cancel the parked fetch
  // and drop the subscription with it).
  const uint64_t enqueued_before = server_->stats().notifications_enqueued;
  ::close(fd);
  while (server_->session_count() > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(milliseconds(2));
  }
  ASSERT_EQ(server_->session_count(), 0u);

  // A raise now must neither crash a worker completing the dead park nor
  // enqueue into the reaped subscription.
  auto conn = Dial();
  Publisher producer(conn.get());
  ASSERT_TRUE(producer
                  .Raise("Sensor", "Report", EventModifier::kEnd,
                         {Value(7.0)})
                  .ok());
  EXPECT_TRUE(conn->Ping().ok());
  EXPECT_EQ(server_->stats().notifications_enqueued, enqueued_before);
  EXPECT_EQ(server_->session_count(), 1u);  // Just the producer.
}

// The per-session byte cap binds when the count cap does not: a subscriber
// that never fetches keeps at most kMaxPendingNotifyBytes of large-param
// notifications pending, and the overflow is counted as dropped.
TEST_F(GatewayTest, PendingNotificationsStayUnderTheByteCap) {
  server_->Stop();
  options_.max_pending_notifications = 1 << 20;  // Out of the way.
  server_ = std::make_unique<GatewayServer>(db_.get(), options_);
  Status started = server_->Start();
  ASSERT_TRUE(started.ok()) << started.ToString();

  auto consumer_conn = Dial();
  Subscriber consumer(consumer_conn.get());
  ASSERT_TRUE(consumer.Subscribe("end Sensor::Report").ok());
  auto producer_conn = Dial();
  Publisher producer(producer_conn.get());
  const std::string blob(64 << 10, 'n');
  constexpr size_t kRaises = 100;  // 6.4 MiB of params.
  for (size_t i = 0; i < kRaises; ++i) {
    auto oid = producer.Raise("Sensor", "Report", EventModifier::kEnd,
                              {Value(static_cast<int64_t>(i)), Value(blob)});
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();
  }
  const uint64_t dropped = server_->stats().notifications_dropped;
  EXPECT_GT(dropped, 0u);

  // Drain what stayed pending, a few rows per reply: the newest ones, in
  // order, under the cap.
  size_t pending = 0;
  size_t bytes = 0;
  for (;;) {
    auto batch = consumer.Fetch(8, 0);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (batch->empty()) break;
    for (const Notification& n : *batch) {
      ASSERT_EQ(n.params.size(), 2u);
      EXPECT_EQ(n.params[0].AsInt(), static_cast<int64_t>(dropped + pending));
      bytes += n.params[1].AsString().size();
      ++pending;
    }
  }
  EXPECT_EQ(pending + dropped, kRaises);
  EXPECT_LE(bytes, kMaxPendingNotifyBytes);
}

TEST_F(GatewayTest, GarbageBytesGetErrorReplyThenDisconnect) {
  // An unknown frame type right in the header.
  Encoder unknown_type;
  unknown_type.PutU32(3 | (uint32_t{kProtocolV2} << 24));
  unknown_type.PutU8(200);
  unknown_type.PutRaw("abc", 3);
  // A well-formed Ping whose header carries version 0: the pre-versioning
  // framing, which no longer parses.
  std::string version_zero;
  Encoder ping;
  PingMsg{}.Encode(&ping);
  EncodeFrame(FrameType::kPing, ping.buffer(), &version_zero, 0);

  for (const std::string& bytes : {unknown_type.buffer(), version_zero}) {
    const uint64_t errors_before = server_->stats().protocol_errors;
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));

    // The server answers with a StatusReply frame, then closes.
    std::string got;
    char buf[4096];
    while (true) {
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      got.append(buf, static_cast<size_t>(n));
    }
    ::close(fd);

    Frame frame;
    size_t consumed = 0;
    Status error;
    ASSERT_EQ(TryDecodeFrame(got, kDefaultMaxFrameBody, &frame, &consumed,
                             &error),
              DecodeProgress::kFrame);
    ASSERT_EQ(frame.type, FrameType::kStatusReply);
    auto reply = StatusReplyMsg::Decode(frame.body);
    ASSERT_TRUE(reply.ok());
    EXPECT_TRUE(reply->ToStatus().IsInvalidArgument())
        << reply->ToStatus().ToString();
    EXPECT_EQ(server_->stats().protocol_errors, errors_before + 1);

    // The server survived: a fresh client still works.
    auto conn = Dial();
    EXPECT_TRUE(conn->Ping().ok());
  }
}

TEST_F(GatewayTest, OversizedFrameIsRejected) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  Encoder enc;
  enc.PutU32((kDefaultMaxFrameBody + 1) | (uint32_t{kProtocolV2} << 24));
  enc.PutU8(static_cast<uint8_t>(FrameType::kPing));
  ASSERT_EQ(::send(fd, enc.buffer().data(), enc.size(), 0),
            static_cast<ssize_t>(enc.size()));

  std::string got;
  char buf[4096];
  while (true) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    got.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  Frame frame;
  size_t consumed = 0;
  Status error;
  ASSERT_EQ(TryDecodeFrame(got, kDefaultMaxFrameBody, &frame, &consumed,
                           &error),
            DecodeProgress::kFrame);
  auto reply = StatusReplyMsg::Decode(frame.body);
  ASSERT_TRUE(reply.ok());
  EXPECT_TRUE(reply->ToStatus().IsResourceExhausted());
  EXPECT_GE(server_->stats().protocol_errors, 1u);
}

TEST_F(GatewayTest, StopIsIdempotentAndRejectsLateClients) {
  auto conn = Dial();
  ASSERT_TRUE(conn->Ping().ok());
  server_->Stop();
  server_->Stop();
  // The old connection is gone.
  EXPECT_FALSE(conn->Ping().ok());
}

}  // namespace
}  // namespace net
}  // namespace sentinel
