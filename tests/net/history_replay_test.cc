// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Remote history replay end to end: raises flow through the gateway, the
// detector's bounded log trims into the history segment store, and a
// Subscriber retrieves the spilled occurrences over the wire — including
// paging with the `complete` flag, and the FailedPrecondition surface when
// the server runs without history spill.

#include <gtest/gtest.h>

#include <memory>

#include "common/clock.h"
#include "core/database.h"
#include "net/client.h"
#include "net/server.h"
#include "test_util.h"

namespace sentinel {
namespace net {
namespace {

class HistoryReplayTest : public ::testing::Test {
 protected:
  void StartServer(bool history_spill) {
    tmp_ = std::make_unique<testing_util::TempDir>("history_replay");
    OpenAndServe(history_spill);
    ASSERT_TRUE(db_->RegisterClass(ClassBuilder("Sensor")
                                       .Reactive()
                                       .Method("Report", {.begin = false,
                                                          .end = true})
                                       .Build())
                    .ok());
  }

  void OpenAndServe(bool history_spill) {
    Database::Options opts;
    opts.dir = tmp_->path();
    opts.occurrence_log_capacity = 8;  // Trim (and spill) early.
    opts.history_spill = history_spill;
    auto opened = Database::Open(opts);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db_ = std::move(opened).value();
    server_ = std::make_unique<GatewayServer>(db_.get(), ServerOptions{});
    Status s = server_->Start();
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  /// Stops the gateway and the database as a process exit would, then
  /// brings both back on the same directory with a fresh logical clock.
  void RestartServer() {
    server_->Stop();
    server_.reset();
    ASSERT_TRUE(db_->Close().ok());
    db_.reset();
    Clock::ResetSequenceForTest(1);
    OpenAndServe(/*history_spill=*/true);
  }

  /// Raises Report(base + i) for i in [0, count) on one relay object.
  void RaiseReports(int count, double base) {
    auto conn = Dial();
    Publisher producer(conn.get());
    uint64_t relay_oid = 0;
    for (int i = 0; i < count; ++i) {
      auto oid = producer.Raise("Sensor", "Report", EventModifier::kEnd,
                                {Value(base + i)}, relay_oid);
      ASSERT_TRUE(oid.ok()) << oid.status().ToString();
      relay_oid = *oid;
    }
  }

  void TearDown() override {
    if (server_) server_->Stop();
    server_.reset();
    if (db_) db_->Close().ok();
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

TEST_F(HistoryReplayTest, SpilledRaisesAreReplayedOverTheWire) {
  StartServer(/*history_spill=*/true);
  auto producer_conn = Dial();
  Publisher producer(producer_conn.get());

  constexpr int kRaises = 40;
  uint64_t relay_oid = 0;
  for (int i = 0; i < kRaises; ++i) {
    auto oid = producer.Raise("Sensor", "Report", EventModifier::kEnd,
                              {Value(static_cast<double>(i))}, relay_oid);
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();
    relay_oid = *oid;
  }

  // Everything past the in-memory window (capacity 8) spilled to disk.
  auto consumer_conn = Dial();
  Subscriber consumer(consumer_conn.get());
  bool complete = false;
  auto replay = consumer.HistoryScan({}, &complete);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_TRUE(complete);
  ASSERT_EQ(replay->size(), static_cast<size_t>(kRaises) - 8);
  for (size_t i = 0; i < replay->size(); ++i) {
    const Notification& n = (*replay)[i];
    EXPECT_TRUE(n.key.empty());  // History rows carry no subscription key.
    EXPECT_EQ(n.class_name, "Sensor");
    EXPECT_EQ(n.method, "Report");
    EXPECT_EQ(n.oid, relay_oid);
    ASSERT_EQ(n.params.size(), 1u);
    EXPECT_EQ(n.params[0], Value(static_cast<double>(i)));
    if (i > 0) {
      EXPECT_GT(n.timestamp.seq, (*replay)[i - 1].timestamp.seq);
    }
  }
}

TEST_F(HistoryReplayTest, ClientPagesWithLimitAndCompleteFlag) {
  StartServer(/*history_spill=*/true);
  auto producer_conn = Dial();
  Publisher producer(producer_conn.get());
  uint64_t relay_oid = 0;
  for (int i = 0; i < 30; ++i) {
    auto oid = producer.Raise("Sensor", "Report", EventModifier::kEnd,
                              {Value(static_cast<double>(i))}, relay_oid);
    ASSERT_TRUE(oid.ok());
    relay_oid = *oid;
  }

  auto conn = Dial();
  Subscriber consumer(conn.get());
  // 22 spilled rows, page size 10: two clamped pages and a final short one,
  // chained through the after_seq resume cursor.
  HistoryScanMsg page;
  page.limit = 10;
  std::vector<Notification> all;
  for (int pages = 0; pages < 10; ++pages) {
    bool complete = false;
    auto batch = consumer.HistoryScan(page, &complete, &page);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    all.insert(all.end(), batch->begin(), batch->end());
    if (complete) break;
    ASSERT_FALSE(batch->empty());
  }
  ASSERT_EQ(all.size(), 22u);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].params[0], Value(static_cast<double>(i)));
  }
}

TEST_F(HistoryReplayTest, ResumeCursorNeverDuplicatesRows) {
  StartServer(/*history_spill=*/true);
  auto producer_conn = Dial();
  Publisher producer(producer_conn.get());
  uint64_t relay_oid = 0;
  for (int i = 0; i < 30; ++i) {
    auto oid = producer.Raise("Sensor", "Report", EventModifier::kEnd,
                              {Value(static_cast<double>(i))}, relay_oid);
    ASSERT_TRUE(oid.ok());
    relay_oid = *oid;
  }

  auto conn = Dial();
  Subscriber consumer(conn.get());

  // The original bug: a clamped scan said complete=false but offered no
  // cursor, so a naive retry of the same query re-delivered page one. The
  // reply now carries next_seq; resuming from it yields strictly later
  // rows.
  HistoryScanMsg query;
  query.limit = 10;
  bool complete = true;
  HistoryScanMsg resume;
  auto first = consumer.HistoryScan(query, &complete, &resume);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_FALSE(complete);
  ASSERT_EQ(first->size(), 10u);
  EXPECT_EQ(resume.after_seq, first->back().timestamp.seq);

  auto second = consumer.HistoryScan(resume, &complete);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_FALSE(second->empty());
  EXPECT_GT(second->front().timestamp.seq, first->back().timestamp.seq);

  // And the one-call convenience loop sees each spilled row exactly once.
  auto all = consumer.HistoryScanAll({}, /*page_limit=*/7);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), 22u);
  for (size_t i = 1; i < all->size(); ++i) {
    EXPECT_GT((*all)[i].timestamp.seq, (*all)[i - 1].timestamp.seq);
  }
}

TEST_F(HistoryReplayTest, OidFilterSelectsOneObjectsHistory) {
  StartServer(/*history_spill=*/true);
  auto producer_conn = Dial();
  Publisher producer(producer_conn.get());
  // Two relay instances of the same class (explicit distinct oids — the
  // class-default relay for oid 0 is shared), interleaved raises.
  const uint64_t oid_a = 501;
  const uint64_t oid_b = 502;
  for (int i = 0; i < 24; ++i) {
    uint64_t oid = (i % 2 == 0) ? oid_a : oid_b;
    auto r = producer.Raise("Sensor", "Report", EventModifier::kEnd,
                            {Value(static_cast<double>(i))}, oid);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(*r, oid);
  }

  auto conn = Dial();
  Subscriber consumer(conn.get());
  HistoryScanMsg query;
  query.oid = oid_a;
  auto replay = consumer.HistoryScan(query);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_FALSE(replay->empty());
  for (const Notification& n : *replay) EXPECT_EQ(n.oid, oid_a);
}

TEST_F(HistoryReplayTest, HistoryScanAllAcrossRestartSeesEachRowOnce) {
  StartServer(/*history_spill=*/true);
  RaiseReports(20, 0);  // 0..11 spill; the 8-row window dies at the stop.
  RestartServer();
  RaiseReports(20, 100);  // 100..111 spill.

  auto conn = Dial();
  Subscriber consumer(conn.get());
  auto all = consumer.HistoryScanAll({}, /*page_limit=*/5);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), 24u);
  for (size_t i = 0; i < all->size(); ++i) {
    const double expected = i < 12 ? i : 88.0 + i;  // 0..11, 100..111.
    EXPECT_EQ((*all)[i].params[0].AsDouble(), expected) << "row " << i;
    if (i > 0) {
      EXPECT_GT((*all)[i].timestamp.seq, (*all)[i - 1].timestamp.seq);
    }
  }
}

// 120 spilled rows of ~50 KiB (~6 MiB) cannot ride one HistoryBatch under
// the 4 MiB frame cap clients read with: the server pages by bytes, and
// HistoryScanAll follows the cursor to the end.
TEST_F(HistoryReplayTest, HistoryScanAllPagesLargeRowsUnderTheFrameCap) {
  StartServer(/*history_spill=*/true);
  const std::string blob(50 << 10, 'h');
  {
    auto conn = Dial();
    Publisher producer(conn.get());
    uint64_t relay_oid = 0;
    for (int i = 0; i < 128; ++i) {
      auto oid = producer.Raise("Sensor", "Report", EventModifier::kEnd,
                                {Value(static_cast<double>(i)), Value(blob)},
                                relay_oid);
      ASSERT_TRUE(oid.ok()) << oid.status().ToString();
      relay_oid = *oid;
    }
  }
  auto conn = Dial();
  Subscriber consumer(conn.get());
  auto all = consumer.HistoryScanAll({});
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), 120u);  // 128 raises less the in-memory window.
  for (size_t i = 0; i < all->size(); ++i) {
    ASSERT_EQ((*all)[i].params.size(), 2u);
    EXPECT_EQ((*all)[i].params[0].AsDouble(), static_cast<double>(i));
    EXPECT_EQ((*all)[i].params[1].AsString().size(), blob.size());
  }
}

// A row that no reply can carry is an error naming it, and the connection
// survives. The row is raised in-process: a raise frame that large would
// itself exceed the gateway's frame cap.
TEST_F(HistoryReplayTest, RowOverTheFrameCapIsAnErrorNamingIt) {
  StartServer(/*history_spill=*/true);
  server_->Stop();  // The raises below run on this thread.
  ReactiveObject sensor("Sensor");
  ASSERT_TRUE(db_->RegisterLiveObject(&sensor).ok());
  for (int i = 0; i < 9; ++i) {  // The first one spills (capacity 8).
    const std::string param = i == 0 ? std::string(5 << 20, 'x') : "";
    ASSERT_TRUE(db_->WithTransaction([&](Transaction*) {
                     sensor.RaiseEvent("Report", EventModifier::kEnd,
                                       {Value(param)});
                     return Status::OK();
                   })
                    .ok());
  }
  ASSERT_TRUE(db_->UnregisterLiveObject(&sensor).ok());
  server_ = std::make_unique<GatewayServer>(db_.get(), ServerOptions{});
  Status s = server_->Start();
  ASSERT_TRUE(s.ok()) << s.ToString();

  auto conn = Dial();
  Subscriber consumer(conn.get());
  auto replay = consumer.HistoryScan({});
  EXPECT_TRUE(replay.status().IsResourceExhausted())
      << replay.status().ToString();
  EXPECT_NE(replay.status().ToString().find("history row seq"),
            std::string::npos)
      << replay.status().ToString();
  EXPECT_TRUE(conn->Ping().ok());
}

TEST_F(HistoryReplayTest, ServerWithoutSpillReportsFailedPrecondition) {
  StartServer(/*history_spill=*/false);
  auto conn = Dial();
  Subscriber consumer(conn.get());
  auto replay = consumer.HistoryScan({});
  EXPECT_TRUE(replay.status().IsFailedPrecondition())
      << replay.status().ToString();
  // The connection survives the rejection.
  EXPECT_TRUE(conn->Ping().ok());
}

TEST_F(HistoryReplayTest, InvalidRangeIsRejected) {
  StartServer(/*history_spill=*/true);
  auto conn = Dial();
  Subscriber consumer(conn.get());
  HistoryScanMsg bad;
  bad.min_seq = 10;
  bad.max_seq = 5;
  auto replay = consumer.HistoryScan(bad);
  EXPECT_TRUE(replay.status().IsInvalidArgument());
  EXPECT_TRUE(conn->Ping().ok());
}

}  // namespace
}  // namespace net
}  // namespace sentinel
