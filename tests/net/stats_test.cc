// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// StatsRequest/StatsReply: wire round trips (including truncated and
// oversized bodies rejected cleanly) and the end-to-end GetStats RPC — the
// JSON a client pulls must reflect the workload the gateway just ran.

#include "net/server.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/json.h"
#include "common/metrics.h"
#include "net/client.h"
#include "net/wire.h"
#include "test_util.h"

namespace sentinel {
namespace net {
namespace {

template <typename Msg>
std::string BodyOf(const Msg& msg) {
  Encoder enc;
  msg.Encode(&enc);
  return enc.buffer();
}

// --- Wire level --------------------------------------------------------------

TEST(StatsWireTest, RequestRoundTrips) {
  StatsRequestMsg msg;
  msg.sections = StatsRequestMsg::kDatabase;
  auto decoded = StatsRequestMsg::Decode(BodyOf(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->sections, StatsRequestMsg::kDatabase);
}

TEST(StatsWireTest, RequestRejectsTruncatedBody) {
  StatsRequestMsg msg;
  std::string body = BodyOf(msg);
  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(StatsRequestMsg::Decode(body.substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST(StatsWireTest, RequestRejectsOversizedBody) {
  StatsRequestMsg msg;
  std::string body = BodyOf(msg) + "extra";
  EXPECT_FALSE(StatsRequestMsg::Decode(body).ok());
}

TEST(StatsWireTest, RequestRejectsUnknownSectionBits) {
  StatsRequestMsg msg;
  msg.sections = 1u << 7;  // Not a defined section.
  EXPECT_FALSE(StatsRequestMsg::Decode(BodyOf(msg)).ok());
}

TEST(StatsWireTest, RequestRejectsEmptySections) {
  StatsRequestMsg msg;
  msg.sections = 0;
  EXPECT_FALSE(StatsRequestMsg::Decode(BodyOf(msg)).ok());
}

TEST(StatsWireTest, ReplyRoundTrips) {
  StatsReplyMsg msg;
  msg.json = R"({"db":{}})";
  auto decoded = StatsReplyMsg::Decode(BodyOf(msg));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->json, msg.json);
}

TEST(StatsWireTest, ReplyRejectsTruncatedAndOversizedBodies) {
  StatsReplyMsg msg;
  msg.json = R"({"db":{}})";
  std::string body = BodyOf(msg);
  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(StatsReplyMsg::Decode(body.substr(0, cut)).ok())
        << "cut at " << cut;
  }
  EXPECT_FALSE(StatsReplyMsg::Decode(body + "x").ok());
}

TEST(StatsWireTest, ReplyRejectsEmptyJson) {
  StatsReplyMsg msg;
  msg.json.clear();
  EXPECT_FALSE(StatsReplyMsg::Decode(BodyOf(msg)).ok());
}

TEST(StatsWireTest, NewFrameTypesAreKnown) {
  EXPECT_TRUE(IsKnownFrameType(static_cast<uint8_t>(FrameType::kGetStats)));
  EXPECT_TRUE(IsKnownFrameType(static_cast<uint8_t>(FrameType::kStatsReply)));
}

// --- End to end --------------------------------------------------------------

class GatewayStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tmp_ = std::make_unique<testing_util::TempDir>("gwstats");
    Database::Options db_options;
    db_options.dir = tmp_->path();
    db_options.metrics_sample_mask = 0;
    auto opened = Database::Open(db_options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db_ = std::move(opened).value();
    ASSERT_TRUE(db_->RegisterClass(ClassBuilder("Sensor")
                                       .Reactive()
                                       .Method("Report", {.end = true})
                                       .Build())
                    .ok());
    server_ = std::make_unique<GatewayServer>(db_.get(), ServerOptions{});
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

  std::unique_ptr<testing_util::TempDir> tmp_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<GatewayServer> server_;
};

TEST_F(GatewayStatsTest, GetStatsReturnsBothSectionsByDefault) {
  auto conn = Dial();
  auto stats = conn->GetStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  auto doc = JsonValue::Parse(*stats);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_NE(doc->Find("db"), nullptr);
  const JsonValue* gateway = doc->Find("gateway");
  ASSERT_NE(gateway, nullptr);
  EXPECT_NE(gateway->Find("sessions"), nullptr);
  EXPECT_NE(gateway->Find("ingress_capacity"), nullptr);
  EXPECT_NE(gateway->Find("frames_received"), nullptr);
}

TEST_F(GatewayStatsTest, SectionBitsSelectTheDocument) {
  auto conn = Dial();

  auto db_only = conn->GetStats(StatsRequestMsg::kDatabase);
  ASSERT_TRUE(db_only.ok());
  auto db_doc = JsonValue::Parse(*db_only);
  ASSERT_TRUE(db_doc.ok());
  EXPECT_NE(db_doc->Find("db"), nullptr);
  EXPECT_EQ(db_doc->Find("gateway"), nullptr);

  auto gw_only = conn->GetStats(StatsRequestMsg::kGateway);
  ASSERT_TRUE(gw_only.ok());
  auto gw_doc = JsonValue::Parse(*gw_only);
  ASSERT_TRUE(gw_doc.ok());
  EXPECT_EQ(gw_doc->Find("db"), nullptr);
  EXPECT_NE(gw_doc->Find("gateway"), nullptr);
}

TEST_F(GatewayStatsTest, InvalidSectionsGetErrorReplyNotDisconnect) {
  auto conn = Dial();
  EXPECT_FALSE(conn->GetStats(0).ok());
  EXPECT_FALSE(conn->GetStats(0xFF00).ok());
  // The connection survives the rejected requests.
  EXPECT_TRUE(conn->Ping().ok());
}

TEST_F(GatewayStatsTest, StatsReflectRemoteWorkload) {
  if (!metrics::kEnabled) GTEST_SKIP() << "metrics compiled out";
  auto conn = Dial();
  Publisher producer(conn.get());
  constexpr int kRaises = 5;
  for (int i = 0; i < kRaises; ++i) {
    auto raised = producer.Raise("Sensor", "Report", EventModifier::kEnd,
                                 {Value(static_cast<double>(i))});
    ASSERT_TRUE(raised.ok()) << raised.status().ToString();
  }

  auto stats = conn->GetStats();
  ASSERT_TRUE(stats.ok());
  auto doc = JsonValue::Parse(*stats);
  ASSERT_TRUE(doc.ok());

  const JsonValue* occurrences =
      doc->Find("db")->Find("counters")->Find("events.occurrences");
  ASSERT_NE(occurrences, nullptr);
  EXPECT_GE(occurrences->number_value, static_cast<double>(kRaises));

  const JsonValue* gateway = doc->Find("gateway");
  EXPECT_GE(gateway->Find("requests_processed")->number_value,
            static_cast<double>(kRaises));
  EXPECT_GE(gateway->Find("frames_received")->number_value,
            static_cast<double>(kRaises));
  EXPECT_GE(gateway->Find("sessions")->number_value, 1.0);
}

TEST_F(GatewayStatsTest, IngressAndNotificationMetricsFlowIntoDbRegistry) {
  if (!metrics::kEnabled) GTEST_SKIP() << "metrics compiled out";
  auto consumer_conn = Dial();
  Subscriber consumer(consumer_conn.get());
  ASSERT_TRUE(consumer.Subscribe("end Sensor::Report").ok());
  auto producer_conn = Dial();
  Publisher producer(producer_conn.get());
  ASSERT_TRUE(producer
                  .Raise("Sensor", "Report", EventModifier::kEnd,
                         {Value(1.0)})
                  .ok());
  auto batch = consumer.Fetch(8, 2000);
  ASSERT_TRUE(batch.ok());
  ASSERT_FALSE(batch->empty());

  MetricsSnapshot snapshot = db_->StatsSnapshot();
  auto enq = snapshot.counters.find("net.notifications.enqueued");
  ASSERT_NE(enq, snapshot.counters.end());
  EXPECT_GE(enq->second, 1u);
  EXPECT_TRUE(snapshot.histograms.count("net.session.backlog") > 0);
}

}  // namespace
}  // namespace net
}  // namespace sentinel
