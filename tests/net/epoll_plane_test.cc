// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// The epoll IO plane end to end: many sessions spread over several IO
// shards mixing raises, long-poll fetches, and disconnect-while-parked;
// admission quotas answering ResourceExhausted instead of hanging; and the
// Hello exchange with its batched acks. Runs under TSan in CI — every
// assertion here is also a data-race probe across IO shards, workers, and
// client threads.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "test_util.h"

namespace sentinel {
namespace net {
namespace {

using std::chrono::milliseconds;

class EpollPlaneTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options) {
    tmp_ = std::make_unique<testing_util::TempDir>("epoll_plane");
    auto opened = Database::Open({.dir = tmp_->path()});
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db_ = std::move(opened).value();
    ASSERT_TRUE(db_->RegisterClass(ClassBuilder("Sensor")
                                       .Reactive()
                                       .Method("Report", {.begin = true,
                                                          .end = true})
                                       .Build())
                    .ok());
    server_ = std::make_unique<GatewayServer>(db_.get(), options);
    Status s = server_->Start();
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    if (db_ != nullptr) db_->Close().ok();
    db_.reset();
    tmp_.reset();
  }

  std::unique_ptr<Connection> Dial(ClientOptions options = {}) {
    auto c = Connection::Dial("127.0.0.1", server_->port(), options);
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return std::move(c).value();
  }

  std::unique_ptr<testing_util::TempDir> tmp_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<GatewayServer> server_;
};

// Sessions land on every IO shard (fd hash) while client threads hammer
// raises and pings concurrently; every request must be answered correctly.
TEST_F(EpollPlaneTest, MultiShardSessionsServeConcurrentTraffic) {
  ServerOptions options;
  options.io_threads = 4;
  StartServer(options);

  constexpr int kThreads = 8;
  constexpr int kRaisesEach = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto conn = Connection::Dial("127.0.0.1", server_->port());
      if (!conn.ok()) {
        ++failures;
        return;
      }
      Publisher pub(conn->get(), /*window=*/32);
      RetryPolicy retry;
      retry.max_attempts = 50;
      pub.set_retry_policy(retry);
      std::vector<RaiseEventMsg> burst(kRaisesEach);
      for (RaiseEventMsg& msg : burst) {
        msg.class_name = "Sensor";
        msg.method = "Report";
        msg.params = {Value(1.0)};
      }
      if (!pub.RaisePipelined(burst).ok()) ++failures;
      if (!(*conn)->Ping().ok()) ++failures;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  GatewayStats stats = server_->stats();
  EXPECT_GE(stats.requests_processed,
            static_cast<uint64_t>(kThreads) * kRaisesEach);
  EXPECT_EQ(server_->io_thread_count(), 4u);
}

// The 1K-session shape the plane is built for: park a long-poll on every
// session, kill half of them while parked, then broadcast — the survivors
// all complete, the dead ones are reaped, and the server stays healthy.
TEST_F(EpollPlaneTest, ThousandParkedSessionsBroadcastAndDisconnect) {
  ServerOptions options;
  options.io_threads = 2;
  StartServer(options);

  // TSan slows every socket op by an order of magnitude; keep its run
  // inside the test timeout without losing the multi-shard shape.
#if defined(__SANITIZE_THREAD__)
  constexpr size_t kSessions = 256;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  constexpr size_t kSessions = 256;
#else
  constexpr size_t kSessions = 1024;
#endif
#else
  constexpr size_t kSessions = 1024;
#endif

  std::vector<std::unique_ptr<Connection>> parked;
  parked.reserve(kSessions);
  for (size_t i = 0; i < kSessions; ++i) {
    auto conn = Connection::Dial("127.0.0.1", server_->port());
    ASSERT_TRUE(conn.ok()) << i << ": " << conn.status().ToString();
    Subscriber sub(conn->get());
    ASSERT_TRUE(sub.Subscribe("end Sensor::Report").ok());
    // Long-poll without reading the reply: the session parks server-side
    // and this test thread stays free to park the next one.
    FetchMsg fetch;
    fetch.max = 16;
    fetch.wait_ms = 60000;
    Encoder enc;
    fetch.Encode(&enc);
    ASSERT_TRUE(
        (*conn)->SendFrame(FrameType::kFetchNotifications, enc.buffer())
            .ok());
    parked.push_back(std::move(*conn));
  }

  // Disconnect half of them while parked.
  for (size_t i = 0; i < kSessions; i += 2) parked[i].reset();

  // One raise fans out to every surviving parked session.
  auto producer = Dial();
  Publisher pub(producer.get());
  auto raised = pub.Raise("Sensor", "Report", EventModifier::kEnd,
                          {Value(42.0)});
  ASSERT_TRUE(raised.ok()) << raised.status().ToString();

  size_t delivered = 0;
  for (size_t i = 1; i < kSessions; i += 2) {
    Frame frame;
    ASSERT_TRUE(parked[i]->ReadFrame(&frame).ok()) << "session " << i;
    ASSERT_EQ(frame.type, FrameType::kNotificationBatch);
    auto batch = NotificationBatchMsg::Decode(frame.body);
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->items.size(), 1u);
    EXPECT_EQ(batch->items[0].key, "end Sensor::Report");
    ++delivered;
  }
  EXPECT_EQ(delivered, kSessions / 2);

  // The dead half must be reaped (EPOLLRDHUP / read-0), not leaked. Give
  // the IO shards a moment to observe the closes.
  for (int spin = 0; spin < 200 && server_->session_count() > kSessions / 2 + 1;
       ++spin) {
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_LE(server_->session_count(), kSessions / 2 + 1);
  EXPECT_TRUE(producer->Ping().ok());
}

// A producer ramming past its in-flight window gets ResourceExhausted
// acks immediately — never a hang, and the connection stays usable.
// A synchronous one-at-a-time producer hits the IO-thread inline fast
// path (idle shard, lone raise frame per drain) and still gets correct
// acks; the counter proves the path actually ran.
TEST_F(EpollPlaneTest, SyncRaisesTakeInlineFastPathWithCorrectAcks) {
  StartServer(ServerOptions{});
  auto conn = Dial();
  Publisher pub(conn.get());
  for (int i = 0; i < 100; ++i) {
    auto r = pub.Raise("Sensor", "Report", EventModifier::kEnd,
                       {Value(static_cast<double>(i))});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  // A sync producer leaves the shard idle between raises, so at least the
  // steady-state majority must have been executed inline. (The first few
  // can race the worker's drain cycle.)
  EXPECT_GT(server_->stats().inline_raises, 50u);
  EXPECT_GE(server_->stats().requests_processed, 100u);

  // Notifications produced by inline raises reach subscribers like any
  // other: the fan-out path is shared.
  auto sub_conn = Dial();
  Subscriber sub(sub_conn.get());
  ASSERT_TRUE(sub.Subscribe("end Sensor::Report").ok());
  ASSERT_TRUE(pub.Raise("Sensor", "Report", EventModifier::kEnd,
                        {Value(1.0)})
                  .ok());
  auto batch = sub.Fetch(4, 2000);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_FALSE(batch->empty());
}

TEST_F(EpollPlaneTest, SessionQuotaRejectsInsteadOfHanging) {
  ServerOptions options;
  options.max_inflight_raises = 1;
  StartServer(options);

  auto conn = Dial();
  Publisher pub(conn.get(), /*window=*/128);
  std::vector<RaiseEventMsg> burst(128);
  for (RaiseEventMsg& msg : burst) {
    msg.class_name = "Sensor";
    msg.method = "Report";
    msg.params = {Value(1.0)};
  }
  uint64_t rejected = 0;
  Status s = pub.RaisePipelined(burst, &rejected);
  // One whole 256-frame burst against a 1-raise window: the IO shard must
  // have bounced some of it at admission.
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  EXPECT_GE(rejected, 1u);
  EXPECT_GE(server_->stats().quota_rejections, rejected);

  // The rejection is an answer, not a connection state: everything still
  // works, and with retries the same burst eventually drains.
  EXPECT_TRUE(conn->Ping().ok());
  RetryPolicy retry;
  retry.max_attempts = 1000;
  retry.max_backoff_ms = 2;  // Quota retries converge fast; keep CI quick.
  pub.set_retry_policy(retry);
  Status retried = pub.RaisePipelined(burst, &rejected);
  EXPECT_TRUE(retried.ok()) << retried.ToString();
  EXPECT_EQ(rejected, 0u);
}

// Two back-to-back raises from one session race the worker's drain cycle
// against the IO thread's inline fast path; the second must never be
// executed (or acked) before the first. Regression: the fast path used to
// check only "queue empty", which is true the instant the worker pops a
// batch it has not yet executed — letting a later raise's ack overtake an
// earlier one (misattributing positionally-correlated acks) and inverting
// same-key order into the database.
TEST_F(EpollPlaneTest, SameSessionAcksAreNeverReordered) {
  StartServer(ServerOptions{});
  auto conn = Dial();

  RaiseEventMsg first;
  first.oid = 111;
  first.class_name = "Sensor";
  first.method = "Report";
  RaiseEventMsg second = first;
  second.oid = 222;
  Encoder e1;
  Encoder e2;
  first.Encode(&e1);
  second.Encode(&e2);

  for (int i = 0; i < 300; ++i) {
    // Two writes, no read in between: depending on timing the IO thread
    // sees them as one drain (queue handoff) or two (the second becomes a
    // lone frame, the inline fast path's trigger shape) — both must keep
    // the acks in request order.
    ASSERT_TRUE(conn->SendFrame(FrameType::kRaiseEvent, e1.buffer()).ok());
    ASSERT_TRUE(conn->SendFrame(FrameType::kRaiseEvent, e2.buffer()).ok());
    // The two acks arrive as two StatusReplies or as one ranged
    // BatchStatusReply whose runs carry them in order.
    std::vector<uint64_t> oids;
    while (oids.size() < 2) {
      Frame frame;
      ASSERT_TRUE(conn->ReadFrame(&frame).ok());
      if (frame.type == FrameType::kBatchStatusReply) {
        auto batch = BatchStatusReplyMsg::Decode(frame.body);
        ASSERT_TRUE(batch.ok()) << batch.status().ToString();
        for (const BatchStatusReplyMsg::Run& run : batch->runs) {
          ASSERT_EQ(run.code, 0) << run.message;
          oids.insert(oids.end(), run.count, run.payload);
        }
      } else {
        uint64_t oid = 0;
        Status s = Connection::ExpectStatusReply(frame, &oid);
        ASSERT_TRUE(s.ok()) << s.ToString();
        oids.push_back(oid);
      }
    }
    ASSERT_EQ(oids.size(), 2u) << "iteration " << i;
    ASSERT_EQ(oids[0], 111u) << "iteration " << i;
    ASSERT_EQ(oids[1], 222u) << "iteration " << i;
  }
}

// tenants_ lives for the whole server (sessions hold raw pointers into
// it), so Hello must not let a hostile peer grow it without bound: past
// ServerOptions::max_tenants, new names share the default quota domain
// instead of allocating.
TEST_F(EpollPlaneTest, TenantCapMapsOverflowToDefaultTenant) {
  ServerOptions options;
  options.max_tenants = 2;
  StartServer(options);

  std::vector<std::unique_ptr<Connection>> conns;
  for (int i = 0; i < 5; ++i) {
    ClientOptions tenant;
    tenant.tenant = "tenant-" + std::to_string(i);
    conns.push_back(Dial(tenant));
  }
  // The default tenant plus the first two names; the other three Hellos
  // were mapped to the default domain, not materialized.
  EXPECT_EQ(server_->tenant_count(), 3u);

  // An overflow-tenant session still works normally.
  Publisher pub(conns.back().get());
  auto r = pub.Raise("Sensor", "Report", EventModifier::kEnd, {Value(1.0)});
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

// Subscribe racing Remove: the loser must clean up after itself. A
// subscription landing after the session was reaped used to leave the
// key in the session's set without any index entry ever being reclaimed,
// permanently inflating sub_count_ (disabling the no-subscriber broadcast
// fast path) one dead session at a time.
TEST(NotificationHubTest, SubscribeAfterRemoveRollsBack) {
  MetricsRegistry metrics;
  NotificationHub hub(metrics);
  auto session = std::make_shared<Session>(1, /*fd=*/-1);
  hub.Add(session);
  hub.Remove(session->id());
  hub.Subscribe(session, "end Sensor::Report");
  std::lock_guard<std::mutex> note(session->note_mu);
  EXPECT_TRUE(session->subscriptions.empty());
}

// Tenant quotas pool every session that said Hello with the same tenant
// name; two sessions hammering one tenant trip it.
TEST_F(EpollPlaneTest, TenantQuotaPoolsSessions) {
  ServerOptions options;
  options.tenant_max_inflight_raises = 1;
  StartServer(options);

  ClientOptions tenant;
  tenant.tenant = "acme";
  auto a = Dial(tenant);
  auto b = Dial(tenant);
  std::vector<RaiseEventMsg> burst(128);
  for (RaiseEventMsg& msg : burst) {
    msg.class_name = "Sensor";
    msg.method = "Report";
  }
  std::atomic<uint64_t> rejected_total{0};
  std::thread ta([&] {
    Publisher pub(a.get(), 128);
    uint64_t rejected = 0;
    pub.RaisePipelined(burst, &rejected).ok();
    rejected_total += rejected;
  });
  std::thread tb([&] {
    Publisher pub(b.get(), 128);
    uint64_t rejected = 0;
    pub.RaisePipelined(burst, &rejected).ok();
    rejected_total += rejected;
  });
  ta.join();
  tb.join();
  EXPECT_GE(rejected_total.load(), 1u);
  EXPECT_GE(server_->stats().quota_rejections, rejected_total.load());
}

// --- Hello and batched acks --------------------------------------------------

TEST_F(EpollPlaneTest, NewClientNegotiatesV2AndGetsBatchedAcks) {
  StartServer({});
  auto conn = Dial();
  EXPECT_FALSE(conn->server_banner().empty());

  // Pipelined bursts come back as coalesced ranged acks. Coalescing is
  // opportunistic — it needs >1 raise ack in one worker drain — so a
  // worker that happens to keep perfect pace with the IO shard can answer
  // a whole burst singly; send bursts until one batches (in practice the
  // first or second).
  Publisher pub(conn.get(), 64);
  std::vector<RaiseEventMsg> burst(64);
  for (RaiseEventMsg& msg : burst) {
    msg.class_name = "Sensor";
    msg.method = "Report";
  }
  RetryPolicy retry;
  retry.max_attempts = 100;
  pub.set_retry_policy(retry);
  for (int i = 0; i < 50 && server_->stats().batched_acks == 0; ++i) {
    ASSERT_TRUE(pub.RaisePipelined(burst).ok());
  }
  EXPECT_GT(server_->stats().batched_acks, 0u);
}

}  // namespace
}  // namespace net
}  // namespace sentinel
