// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// StatsRequest/StatsReply: wire round trips (including truncated and
// oversized bodies rejected cleanly) and the end-to-end GetStats RPC — the
// JSON a client pulls must reflect the workload the gateway just ran — and
// the GatewayStats view, which must read exactly the registry's counters.

#include "net/server.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>

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

// --- GatewayStats is a view of the registry ---------------------------------

// Every GatewayStats field, the registry counter it reads, and its GetStats
// key (inside the gateway section's "shm" object for the shm rows).
struct ViewRow {
  const char* key;
  const char* metric;
  uint64_t GatewayStats::*field;
  bool shm;
};

const ViewRow kViewRows[] = {
    {"frames_received", "net.frames_received",
     &GatewayStats::frames_received, false},
    {"requests_processed", "net.requests_processed",
     &GatewayStats::requests_processed, false},
    {"backpressure_rejections", "net.backpressure_rejections",
     &GatewayStats::backpressure_rejections, false},
    {"quota_rejections", "net.quota_rejections",
     &GatewayStats::quota_rejections, false},
    {"protocol_errors", "net.protocol_errors",
     &GatewayStats::protocol_errors, false},
    {"notifications_enqueued", "net.notifications.enqueued",
     &GatewayStats::notifications_enqueued, false},
    {"notifications_dropped", "net.notifications.dropped",
     &GatewayStats::notifications_dropped, false},
    {"sessions_accepted", "net.sessions_accepted",
     &GatewayStats::sessions_accepted, false},
    {"batched_acks", "net.batched_acks", &GatewayStats::batched_acks, false},
    {"inline_raises", "net.inline_raises", &GatewayStats::inline_raises,
     false},
    {"frames", "shm.frames", &GatewayStats::shm_frames, true},
    {"batches", "shm.batches", &GatewayStats::shm_batches, true},
    {"parks", "shm.parks", &GatewayStats::shm_parks, true},
    {"wakeups", "shm.wakeups", &GatewayStats::shm_wakeups, true},
    {"attaches", "shm.attaches", &GatewayStats::shm_attaches, true},
    {"reclaims", "shm.reclaims", &GatewayStats::shm_reclaims, true},
    {"protocol_errors", "shm.protocol_errors",
     &GatewayStats::shm_protocol_errors, true},
};

std::set<std::string> KeysOf(const JsonValue& object) {
  std::set<std::string> keys;
  for (const auto& [key, value] : object.object) keys.insert(key);
  return keys;
}

template <typename Pred>
bool PollUntil(std::chrono::milliseconds deadline, Pred pred) {
  auto until = std::chrono::steady_clock::now() + deadline;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

// One mixed workload touches every counter family: a pipelined raw burst
// (batched acks, and quota rejections past the in-flight cap), a malformed
// frame, a subscriber that never fetches (dropped notifications), and one
// raise over shared memory. Afterwards the GetStats gateway section keeps
// the key set clients read, its counters agree with the registry, and the
// GatewayStats view equals the registry exactly.
TEST(GatewayCounterViewTest, MixedWorkloadViewEqualsRegistry) {
  testing_util::TempDir tmp("gwview");
  Database::Options db_options;
  db_options.dir = tmp.path();
  auto opened = Database::Open(db_options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(opened).value();
  ASSERT_TRUE(db->RegisterClass(ClassBuilder("Sensor")
                                    .Reactive()
                                    .Method("Report", {.end = true})
                                    .Build())
                  .ok());
  ServerOptions options;
  options.max_inflight_raises = 16;
  options.max_pending_notifications = 4;
  options.shm_segment = "/sentinel-gwview-" + std::to_string(getpid());
  auto server = std::make_unique<GatewayServer>(db.get(), options);
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->port();
  auto dial = [port] {
    auto c = Connection::Dial("127.0.0.1", port);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return std::move(c).value();
  };

  auto sub_conn = dial();
  Subscriber subscriber(sub_conn.get());
  ASSERT_TRUE(subscriber.Subscribe("end Sensor::Report").ok());

  // 100 raises in one write: the IO shard admits up to the quota and
  // answers the rest ResourceExhausted; the worker acks the admitted run
  // with one BatchStatusReply.
  constexpr size_t kBurst = 100;
  auto burst_conn = dial();
  std::string burst;
  for (size_t i = 0; i < kBurst; ++i) {
    RaiseEventMsg msg;
    msg.class_name = "Sensor";
    msg.method = "Report";
    msg.params = {Value(static_cast<int64_t>(i))};
    Encoder enc;
    msg.Encode(&enc);
    burst_conn->EncodeFrameTo(FrameType::kRaiseEvent, enc.buffer(), &burst);
  }
  ASSERT_TRUE(burst_conn->SendRaw(burst).ok());
  size_t acked = 0;
  while (acked < kBurst) {
    Frame reply;
    ASSERT_TRUE(burst_conn->ReadFrame(&reply).ok());
    if (reply.type == FrameType::kBatchStatusReply) {
      auto batch = BatchStatusReplyMsg::Decode(reply.body);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      acked += batch->TotalAcks();
    } else {
      ASSERT_EQ(reply.type, FrameType::kStatusReply);
      ++acked;
    }
  }

  // A frame with a foreign version byte: one error reply, then the server
  // drops the connection.
  auto bad_conn = dial();
  std::string bad;
  EncodeFrame(FrameType::kPing, BodyOf(PingMsg{}), &bad,
              /*version=*/kProtocolV2 + 1);
  ASSERT_TRUE(bad_conn->SendRaw(bad).ok());
  Frame bad_reply;
  ASSERT_TRUE(bad_conn->ReadFrame(&bad_reply).ok());
  EXPECT_EQ(bad_reply.type, FrameType::kStatusReply);

  LocalPublisher::Options pub_options;
  pub_options.segment = options.shm_segment;
  pub_options.port = port;
  auto pub = LocalPublisher::Open(pub_options);
  ASSERT_TRUE(pub.ok()) << pub.status().ToString();
  ASSERT_TRUE((*pub)->via_shm());
  ASSERT_TRUE(
      (*pub)->Raise("Sensor", "Report", EventModifier::kEnd, {Value(1.0)})
          .ok());
  // The intake thread counts an admitted batch after handing it over, so
  // the ack can overtake the count.
  ASSERT_TRUE(PollUntil(std::chrono::milliseconds(5000), [&] {
    return server->stats().shm_frames >= 1;
  }));

  // Every counter family moved.
  const GatewayStats moved = server->stats();
  EXPECT_GE(moved.batched_acks, 2u);
  EXPECT_GE(moved.quota_rejections, 1u);
  EXPECT_GE(moved.backpressure_rejections, moved.quota_rejections);
  EXPECT_EQ(moved.protocol_errors, 1u);
  EXPECT_GE(moved.notifications_enqueued, 1u);
  EXPECT_GE(moved.notifications_dropped, 1u);
  EXPECT_EQ(moved.shm_attaches, 1u);

  // GetStats: the published key set, and each counter between the registry
  // readings taken just before and just after the request (the request is
  // itself a frame, and the idle shm host keeps parking).
  const MetricsSnapshot before = db->StatsSnapshot();
  auto json = burst_conn->GetStats(StatsRequestMsg::kGateway);
  const MetricsSnapshot after = db->StatsSnapshot();
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  auto doc = JsonValue::Parse(*json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* gateway = doc->Find("gateway");
  ASSERT_NE(gateway, nullptr);
  EXPECT_EQ(KeysOf(*gateway),
            (std::set<std::string>{
                "sessions", "shards", "io_threads", "tenants",
                "ingress_depth", "ingress_capacity", "frames_received",
                "requests_processed", "backpressure_rejections",
                "quota_rejections", "protocol_errors",
                "notifications_enqueued", "notifications_dropped",
                "sessions_accepted", "batched_acks", "inline_raises",
                "shm"}));
  const JsonValue* shm = gateway->Find("shm");
  ASSERT_NE(shm, nullptr);
  EXPECT_EQ(KeysOf(*shm),
            (std::set<std::string>{"frames", "batches", "parks", "wakeups",
                                   "attaches", "reclaims",
                                   "protocol_errors"}));
  for (const ViewRow& row : kViewRows) {
    SCOPED_TRACE(row.metric);
    const JsonValue* value = (row.shm ? shm : gateway)->Find(row.key);
    ASSERT_NE(value, nullptr);
    ASSERT_EQ(before.counters.count(row.metric), 1u);
    EXPECT_GE(value->number_value,
              static_cast<double>(before.counters.at(row.metric)));
    EXPECT_LE(value->number_value,
              static_cast<double>(after.counters.at(row.metric)));
  }

  // Once stopped nothing moves: the view equals the registry exactly.
  pub->reset();
  server->Stop();
  const GatewayStats view = server->stats();
  const MetricsSnapshot snapshot = db->StatsSnapshot();
  for (const ViewRow& row : kViewRows) {
    SCOPED_TRACE(row.metric);
    ASSERT_EQ(snapshot.counters.count(row.metric), 1u);
    EXPECT_EQ(view.*row.field, snapshot.counters.at(row.metric));
  }
  EXPECT_EQ(sizeof(GatewayStats), std::size(kViewRows) * sizeof(uint64_t));

  // No name is registered as two kinds of metric.
  for (const auto& [name, value] : snapshot.counters) {
    EXPECT_EQ(snapshot.gauges.count(name), 0u) << name;
    EXPECT_EQ(snapshot.histograms.count(name), 0u) << name;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    EXPECT_EQ(snapshot.histograms.count(name), 0u) << name;
  }

  server.reset();
  ASSERT_TRUE(db->Close().ok());
}

}  // namespace
}  // namespace net
}  // namespace sentinel
