// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Log-shipping replication end to end: a follower bootstraps from a fuzzy
// snapshot, tails the primary's WAL and occurrence mirror over the gateway
// protocol, and after promotion serves byte-identical history plus new
// writes. Covers the read-only fence on replicas, epoch fencing of a
// deposed primary, checkpoint-truncation fallback to re-snapshot, ship- and
// promote-boundary fault injection, cursor-durable follower restart, and
// seq order across a primary restart.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/codec.h"
#include "common/failpoint.h"
#include "core/database.h"
#include "net/client.h"
#include "net/server.h"
#include "repl/follower.h"
#include "repl/replicator.h"
#include "test_util.h"

namespace sentinel {
namespace repl {
namespace {

/// One gateway-fronted database with a Replicator attached — a "node" in a
/// two-node primary/standby pair.
struct Node {
  std::unique_ptr<testing_util::TempDir> tmp;
  std::unique_ptr<Database> db;
  std::unique_ptr<Replicator> replicator;
  std::unique_ptr<net::GatewayServer> server;

  uint16_t port() const { return server->port(); }

  void Shutdown() {
    if (server) server->Stop();
    server.reset();
    replicator.reset();  // Stops (closes the mirror) in the destructor.
    if (db) db->Close().ok();
    db.reset();
    tmp.reset();
  }
};

class ReplicationTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FailPoints::Instance().Reset();
    for (auto* node : {&follower_node_, &primary_}) node->Shutdown();
  }

  /// Brings up a node. The occurrence-log capacity is small so raises trim
  /// (and spill) early — history equivalence then covers the spill path.
  void StartNode(Node* node, const std::string& tag, bool replica,
                 size_t raise_shards = 1) {
    node->tmp = std::make_unique<testing_util::TempDir>(tag);
    Database::Options opts;
    opts.dir = node->tmp->path();
    opts.raise_shards = raise_shards;
    opts.occurrence_log_capacity = 8;
    opts.history_spill = true;
    opts.replica = replica;
    auto opened = Database::Open(opts);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    node->db = std::move(opened).value();
    if (!replica) {
      ASSERT_TRUE(node->db
                      ->RegisterClass(ClassBuilder("Sensor")
                                          .Reactive()
                                          .Method("Report", {.begin = false,
                                                             .end = true})
                                          .Build())
                      .ok());
    }
    ReplicatorOptions ropts;
    ropts.mirror_dir = node->tmp->path() + "/repllog";
    Status rs = (node->replicator =
                     std::make_unique<Replicator>(node->db.get(), ropts))
                    ->Start();
    ASSERT_TRUE(rs.ok()) << rs.ToString();
    node->server = std::make_unique<net::GatewayServer>(node->db.get(),
                                                        net::ServerOptions{});
    node->server->SetReplication(node->replicator.get());
    Status ss = node->server->Start();
    ASSERT_TRUE(ss.ok()) << ss.ToString();
  }

  /// Stops a node as a process would: gateway and replicator go down with
  /// the database. The data directory stays.
  void StopNode(Node* node) {
    node->server->Stop();
    node->server.reset();
    node->replicator.reset();
    ASSERT_TRUE(node->db->Close().ok());
    node->db.reset();
  }

  /// Reopens a node from its existing directory — database, replicator
  /// (mirror resumes in place), and gateway all come back.
  void ReopenNode(Node* node, bool replica) {
    Database::Options opts;
    opts.dir = node->tmp->path();
    opts.occurrence_log_capacity = 8;
    opts.history_spill = true;
    opts.replica = replica;
    auto opened = Database::Open(opts);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    node->db = std::move(opened).value();
    ReplicatorOptions ropts;
    ropts.mirror_dir = node->tmp->path() + "/repllog";
    Status rs = (node->replicator =
                     std::make_unique<Replicator>(node->db.get(), ropts))
                    ->Start();
    ASSERT_TRUE(rs.ok()) << rs.ToString();
    node->server = std::make_unique<net::GatewayServer>(node->db.get(),
                                                        net::ServerOptions{});
    node->server->SetReplication(node->replicator.get());
    Status ss = node->server->Start();
    ASSERT_TRUE(ss.ok()) << ss.ToString();
  }

  /// Raises `count` Sensor.Report events through the primary's gateway,
  /// all on one relay object. Values are `base + i`.
  void RaiseThroughGateway(Node* node, int count, double base = 0) {
    auto conn = net::Connection::Dial("127.0.0.1", node->port());
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    net::Publisher producer(conn->get());
    uint64_t relay = 0;
    for (int i = 0; i < count; ++i) {
      auto oid = producer.Raise("Sensor", "Report", EventModifier::kEnd,
                                {Value(base + i)}, relay);
      ASSERT_TRUE(oid.ok()) << oid.status().ToString();
      relay = *oid;
    }
  }

  /// Persists `count` Sensor objects on `node` inside WAL-logged
  /// transactions — the write traffic checkpoints truncate and the
  /// snapshot/tail paths have to ship. `blob_bytes` > 0 adds a string
  /// attribute of that size to each.
  void PersistSensors(Node* node, int count, double base = 0,
                      size_t blob_bytes = 0) {
    for (int i = 0; i < count; ++i) {
      ReactiveObject obj("Sensor");
      ASSERT_TRUE(node->db->RegisterLiveObject(&obj).ok());
      obj.SetAttrRaw("reading", Value(base + i));
      if (blob_bytes > 0) {
        obj.SetAttrRaw("blob", Value(std::string(blob_bytes, 'b')));
      }
      ASSERT_TRUE(node->db
                      ->WithTransaction([&](Transaction* txn) {
                        return node->db->Persist(txn, &obj);
                      })
                      .ok());
      ASSERT_TRUE(node->db->UnregisterLiveObject(&obj).ok());
    }
  }

  /// Drives `f` until it reports caught up (bounded retries).
  void CatchUp(Follower* f) {
    bool caught_up = false;
    for (int i = 0; i < 50 && !caught_up; ++i) {
      Status s = f->CatchUpOnce(&caught_up);
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    ASSERT_TRUE(caught_up);
  }

  static std::vector<EventOccurrence> History(Database* db,
                                              bool include_memory) {
    std::vector<EventOccurrence> out;
    EXPECT_TRUE(db->HistoryScan({}, &out, include_memory).ok());
    return out;
  }

  static void ExpectSameHistory(const std::vector<EventOccurrence>& a,
                                const std::vector<EventOccurrence>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].timestamp.seq, b[i].timestamp.seq) << "row " << i;
      EXPECT_EQ(a[i].timestamp.micros, b[i].timestamp.micros) << "row " << i;
      EXPECT_EQ(a[i].oid, b[i].oid) << "row " << i;
      EXPECT_EQ(a[i].class_name, b[i].class_name) << "row " << i;
      EXPECT_EQ(a[i].method, b[i].method) << "row " << i;
      EXPECT_EQ(a[i].params, b[i].params) << "row " << i;
    }
  }

  /// Every committed object (oid, class, state) — minus the follower's own
  /// progress record — for cross-node equality checks.
  static std::set<std::tuple<Oid, std::string, std::string>> Objects(
      Database* db) {
    std::set<std::tuple<Oid, std::string, std::string>> out;
    for (Oid oid : db->store()->AllOids()) {
      if (oid == kReplStateOid) continue;
      std::string class_name, state;
      Status s = db->store()->Get(nullptr, oid, &class_name, &state);
      EXPECT_TRUE(s.ok()) << s.ToString();
      // A clean Close persists the detector's name index; a still-running
      // peer hasn't. Local bookkeeping, not replicated state.
      if (class_name == "__event_index__") continue;
      out.emplace(oid, std::move(class_name), std::move(state));
    }
    return out;
  }

  FollowerOptions FollowTo(const Node& node) {
    FollowerOptions opts;
    opts.port = node.port();
    opts.max_items = 16;  // Small batches: exercise chunking/cursors.
    return opts;
  }

  Node primary_;
  Node follower_node_;
};

TEST_F(ReplicationTest, FollowerCatchesUpObjectsAndHistoryByteForByte) {
  StartNode(&primary_, "repl_primary", /*replica=*/false);
  RaiseThroughGateway(&primary_, 40);
  PersistSensors(&primary_, 3);  // Ships via the snapshot walk.
  StartNode(&follower_node_, "repl_follower", /*replica=*/true);

  Follower f(follower_node_.db.get(), FollowTo(primary_));
  CatchUp(&f);

  // Post-catch-up writes arrive through the WAL tail, not the snapshot.
  PersistSensors(&primary_, 2, /*base=*/100);
  CatchUp(&f);

  EXPECT_EQ(Objects(primary_.db.get()), Objects(follower_node_.db.get()));
  // Spilled history is byte-identical; so is the in-memory window (the
  // replayed occurrences land in the same bounded deque with the same
  // trim order — both sides are idle here, so include_memory is safe).
  ExpectSameHistory(History(primary_.db.get(), false),
                    History(follower_node_.db.get(), false));
  ExpectSameHistory(History(primary_.db.get(), true),
                    History(follower_node_.db.get(), true));
  EXPECT_GT(f.max_replayed_seq(), 0u);
  EXPECT_EQ(f.applied_ordinal(), primary_.replicator->mirror()->TotalRecords());
}

TEST_F(ReplicationTest, ReplicaRejectsWritesUntilPromoted) {
  StartNode(&primary_, "fence_primary", /*replica=*/false);
  RaiseThroughGateway(&primary_, 12);
  StartNode(&follower_node_, "fence_follower", /*replica=*/true);

  Follower f(follower_node_.db.get(), FollowTo(primary_));
  CatchUp(&f);

  // Producers pointed at the replica are refused — and with a
  // non-transient status, so client retry policies fail fast.
  auto conn = net::Connection::Dial("127.0.0.1", follower_node_.port());
  ASSERT_TRUE(conn.ok());
  net::Publisher producer(conn->get());
  auto rejected =
      producer.Raise("Sensor", "Report", EventModifier::kEnd, {Value(1.0)});
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsFailedPrecondition())
      << rejected.status().ToString();
  net::CreateRuleMsg rule;
  rule.name = "r1";
  rule.event_signature = "end Sensor::Report(float)";
  Status rule_status = conn->get()->CreateRule(rule);
  EXPECT_TRUE(rule_status.IsFailedPrecondition()) << rule_status.ToString();

  const uint64_t replayed = f.max_replayed_seq();
  auto epoch = f.Promote();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_GT(*epoch, 1u);
  EXPECT_FALSE(follower_node_.db->is_replica());

  // The promoted node accepts raises, and new occurrences extend — never
  // collide with — the replayed history.
  RaiseThroughGateway(&follower_node_, 3, /*base=*/100);
  auto rows = History(follower_node_.db.get(), true);
  ASSERT_GE(rows.size(), 3u);
  EXPECT_GT(rows.back().timestamp.seq, replayed);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GT(rows[i].timestamp.seq, rows[i - 1].timestamp.seq);
  }
}

TEST_F(ReplicationTest, FailoverLosesNoAckedRaiseAndServesPagedHistory) {
  StartNode(&primary_, "failover_primary", /*replica=*/false);
  RaiseThroughGateway(&primary_, 40);
  const auto primary_spill = History(primary_.db.get(), false);
  const auto primary_full = History(primary_.db.get(), true);
  ASSERT_EQ(primary_full.size(), 40u);

  StartNode(&follower_node_, "failover_follower", /*replica=*/true);
  Follower f(follower_node_.db.get(), FollowTo(primary_));
  CatchUp(&f);

  // Primary dies. Promote the standby and point producers at it.
  primary_.server->Stop();
  auto epoch = f.Promote();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  RaiseThroughGateway(&follower_node_, 10, /*base=*/100);

  // Every acked raise survives: the 40 replicated plus the 10 new ones.
  auto rows = History(follower_node_.db.get(), true);
  ASSERT_EQ(rows.size(), 50u);
  ExpectSameHistory(primary_full,
                    {rows.begin(), rows.begin() + primary_full.size()});
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GT(rows[i].timestamp.seq, rows[i - 1].timestamp.seq);
  }

  // The promoted node serves paged history over the wire: the replicated
  // spill is its prefix, cursors resume without duplicates or gaps.
  auto conn = net::Connection::Dial("127.0.0.1", follower_node_.port());
  ASSERT_TRUE(conn.ok());
  net::Subscriber consumer(conn->get());
  auto paged = consumer.HistoryScanAll({}, /*page_limit=*/7);
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  ASSERT_GE(paged->size(), primary_spill.size());
  for (size_t i = 0; i < primary_spill.size(); ++i) {
    EXPECT_EQ((*paged)[i].timestamp.seq, primary_spill[i].timestamp.seq);
  }
  for (size_t i = 1; i < paged->size(); ++i) {
    EXPECT_GT((*paged)[i].timestamp.seq, (*paged)[i - 1].timestamp.seq);
  }
}

TEST_F(ReplicationTest, EpochFencingDemotesDeposedPrimary) {
  StartNode(&primary_, "epoch_primary", /*replica=*/false);
  RaiseThroughGateway(&primary_, 8);
  StartNode(&follower_node_, "epoch_follower", /*replica=*/true);
  Follower f(follower_node_.db.get(), FollowTo(primary_));
  CatchUp(&f);
  EXPECT_TRUE(f.primary_claims_lead());

  auto epoch = f.Promote();
  ASSERT_TRUE(epoch.ok());

  // The old primary is still up (a network partition healed, say). Fencing
  // it with the new epoch turns it into a replica: stale producers get
  // rejected instead of acked into an orphaned timeline.
  ASSERT_TRUE(Follower::Fence("127.0.0.1", primary_.port(), *epoch).ok());
  EXPECT_EQ(primary_.replicator->epoch(), *epoch);
  EXPECT_TRUE(primary_.db->is_replica());
  auto conn = net::Connection::Dial("127.0.0.1", primary_.port());
  ASSERT_TRUE(conn.ok());
  net::Publisher stale(conn->get());
  auto refused =
      stale.Raise("Sensor", "Report", EventModifier::kEnd, {Value(9.0)});
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsFailedPrecondition());

  // A fence with a stale epoch changes nothing.
  ASSERT_TRUE(Follower::Fence("127.0.0.1", primary_.port(), 1).ok());
  EXPECT_EQ(primary_.replicator->epoch(), *epoch);
}

TEST_F(ReplicationTest, CheckpointTruncationForcesResnapshot) {
  StartNode(&primary_, "ckpt_primary", /*replica=*/false);
  RaiseThroughGateway(&primary_, 10);
  StartNode(&follower_node_, "ckpt_follower", /*replica=*/true);
  Follower f(follower_node_.db.get(), FollowTo(primary_));
  CatchUp(&f);

  // The primary moves on — committed object writes advance the WAL — and
  // checkpoints: the suffix the follower's cursor points into is
  // truncated away.
  RaiseThroughGateway(&primary_, 10, /*base=*/50);
  PersistSensors(&primary_, 3, /*base=*/200);
  ASSERT_TRUE(primary_.db->CheckpointNow().ok());
  RaiseThroughGateway(&primary_, 5, /*base=*/80);

  // Arm a never-firing failpoint so hit counters record the snapshot path.
  ASSERT_TRUE(FailPoints::Instance()
                  .EnableFromSpec("repl.ship.snapshot=ioerror@hit(1000000)")
                  .ok());
  const uint64_t snapshot_polls_before =
      FailPoints::Instance().hits("repl.ship.snapshot");
  CatchUp(&f);
  EXPECT_GT(FailPoints::Instance().hits("repl.ship.snapshot"),
            snapshot_polls_before)
      << "expected the truncated WAL cursor to force a re-snapshot";
  FailPoints::Instance().Reset();

  EXPECT_EQ(Objects(primary_.db.get()), Objects(follower_node_.db.get()));
  // The occurrence mirror never truncates, so history stays gapless even
  // across the object re-snapshot.
  ExpectSameHistory(History(primary_.db.get(), true),
                    History(follower_node_.db.get(), true));
}

TEST_F(ReplicationTest, ShipAndPromoteFaultsFailCleanlyAndRetry) {
  StartNode(&primary_, "fault_primary", /*replica=*/false);
  RaiseThroughGateway(&primary_, 20);
  StartNode(&follower_node_, "fault_follower", /*replica=*/true);
  Follower f(follower_node_.db.get(), FollowTo(primary_));

  // An injected ship failure surfaces to the follower as a plain error on
  // that pass — nothing applied out of order, and the next pass succeeds.
  ASSERT_TRUE(
      FailPoints::Instance().EnableFromSpec("repl.ship.tail=ioerror@once")
          .ok());
  bool caught_up = false;
  Status s = f.CatchUpOnce(&caught_up);
  ASSERT_FALSE(s.ok());
  EXPECT_FALSE(caught_up);
  FailPoints::Instance().Reset();
  CatchUp(&f);
  ExpectSameHistory(History(primary_.db.get(), true),
                    History(follower_node_.db.get(), true));

  // Promotion interrupted at its failpoint boundary retries to success.
  ASSERT_TRUE(
      FailPoints::Instance().EnableFromSpec("repl.promote=ioerror@once").ok());
  auto failed = f.Promote();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(follower_node_.db->is_replica());
  FailPoints::Instance().Reset();
  auto epoch = f.Promote();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_FALSE(follower_node_.db->is_replica());
  RaiseThroughGateway(&follower_node_, 2, /*base=*/200);
}

TEST_F(ReplicationTest, FollowerRestartResumesFromPersistedCursors) {
  StartNode(&primary_, "restart_primary", /*replica=*/false);
  RaiseThroughGateway(&primary_, 40);
  StartNode(&follower_node_, "restart_follower", /*replica=*/true);
  {
    Follower f(follower_node_.db.get(), FollowTo(primary_));
    CatchUp(&f);
    EXPECT_EQ(f.applied_ordinal(), 40u);
  }
  // Clean follower restart. Like a restarted primary, it loses the
  // in-memory occurrence window (history keeps flush-level durability) —
  // but never duplicates or reorders what was durably applied.
  StopNode(&follower_node_);
  RaiseThroughGateway(&primary_, 20, /*base=*/100);
  ReopenNode(&follower_node_, /*replica=*/true);

  Follower f2(follower_node_.db.get(), FollowTo(primary_));
  CatchUp(&f2);
  EXPECT_TRUE(f2.snapshot_done());
  EXPECT_EQ(f2.applied_ordinal(), 60u);

  EXPECT_EQ(Objects(primary_.db.get()), Objects(follower_node_.db.get()));
  const auto rows = History(follower_node_.db.get(), true);
  std::set<uint64_t> seqs;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) {
      EXPECT_GT(rows[i].timestamp.seq, rows[i - 1].timestamp.seq);
    }
    EXPECT_TRUE(seqs.insert(rows[i].timestamp.seq).second)
        << "duplicate seq " << rows[i].timestamp.seq;
  }
  // 32 spilled before the restart, plus the 20 post-restart rows (12
  // spill, 8 in memory); the 8-row in-memory window at shutdown is the
  // documented loss.
  EXPECT_EQ(rows.size(), 52u);
}

TEST_F(ReplicationTest,
       HistoryScanStaysInSeqOrderAcrossAPrimaryRestart) {
  StartNode(&primary_, "seq_primary", /*replica=*/false);
  RaiseThroughGateway(&primary_, 20);
  StartNode(&follower_node_, "seq_follower", /*replica=*/true);
  {
    Follower f(follower_node_.db.get(), FollowTo(primary_));
    CatchUp(&f);
  }
  // The primary restarts as a new process would: its logical clock starts
  // over, and it drops its 8-row in-memory window (rows 12..19).
  StopNode(&primary_);
  Clock::ResetSequenceForTest(1);
  ReopenNode(&primary_, /*replica=*/false);
  RaiseThroughGateway(&primary_, 20, /*base=*/100);

  Follower f2(follower_node_.db.get(), FollowTo(primary_));
  CatchUp(&f2);
  EXPECT_EQ(f2.applied_ordinal(), 40u);

  // The follower holds every occurrence in raise order, exactly as the
  // primary's mirror ships it.
  const auto rows = History(follower_node_.db.get(), true);
  ASSERT_EQ(rows.size(), 40u);
  for (size_t i = 0; i < rows.size(); ++i) {
    const double expected = i < 20 ? i : 80.0 + i;  // 0..19, 100..119.
    EXPECT_EQ(rows[i].params[0].AsDouble(), expected) << "row " << i;
  }
  std::vector<EventOccurrence> mirrored;
  ASSERT_TRUE(primary_.replicator->mirror()->Scan({}, &mirrored).ok());
  ExpectSameHistory(mirrored, rows);

  // The primary's own history is the follower's minus the window it lost.
  std::vector<EventOccurrence> expected;
  for (const EventOccurrence& occ : rows) {
    const double v = occ.params[0].AsDouble();
    if (v < 12 || v >= 20) expected.push_back(occ);
  }
  ExpectSameHistory(expected, History(primary_.db.get(), true));
}

// Pins a known limit of the seq invariant (DESIGN.md §12.5): rows a
// primary raised but never shipped keep seqs that the promoted follower
// issues again, so a deposed primary must be wiped before it follows.
TEST_F(ReplicationTest,
       HistoryScanOfADeposedPrimaryOverlapsTheNewPrimarysSeqs) {
  StartNode(&primary_, "overlap_primary", /*replica=*/false);
  RaiseThroughGateway(&primary_, 12);
  StartNode(&follower_node_, "overlap_follower", /*replica=*/true);
  Follower f(follower_node_.db.get(), FollowTo(primary_));
  CatchUp(&f);
  RaiseThroughGateway(&primary_, 4, /*base=*/100);  // Never shipped.

  // The follower runs in its own process, whose clock only knows what it
  // replayed.
  Clock::ResetSequenceForTest(1);
  auto epoch = f.Promote();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  ASSERT_TRUE(Follower::Fence("127.0.0.1", primary_.port(), *epoch).ok());
  RaiseThroughGateway(&follower_node_, 4, /*base=*/200);

  auto tail_seqs = [](Database* db) {
    const auto rows = History(db, true);
    std::vector<uint64_t> seqs;
    for (size_t i = rows.size() - 4; i < rows.size(); ++i) {
      seqs.push_back(rows[i].timestamp.seq);
    }
    return seqs;
  };
  EXPECT_EQ(tail_seqs(primary_.db.get()), tail_seqs(follower_node_.db.get()));
}

TEST(ReplSnapshotChunkTest, ChunksShipEachObjectOnceInOidOrderUnderChurn) {
  testing_util::TempDir dir("snapchunk");
  auto opened = Database::Open({.dir = dir.path()});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(opened).value();
  ASSERT_TRUE(db->RegisterClass(ClassBuilder("Doc").Build()).ok());
  auto put = [&](Oid oid) {
    return db->WithTransaction([&](Transaction* txn) {
      return db->store()->Put(txn, oid, "Doc", "state" + OidToString(oid));
    });
  };
  auto erase = [&](Oid oid) {
    return db->WithTransaction(
        [&](Transaction* txn) { return db->store()->Delete(txn, oid); });
  };
  for (Oid oid = 10000; oid < 10100; oid += 2) ASSERT_TRUE(put(oid).ok());

  ReplicatorOptions ropts;
  ropts.mirror_dir = dir.path() + "/repllog";
  Replicator replicator(db.get(), ropts);
  ASSERT_TRUE(replicator.Start().ok());

  net::ReplSubscribeMsg msg;
  msg.epoch = 1;
  msg.mode = net::ReplSubscribeMsg::kSnapshot;
  msg.max_items = 7;
  std::vector<Oid> shipped;
  std::set<Oid> added_behind;
  bool churned = false;
  for (int chunk = 0; chunk < 100; ++chunk) {
    net::ReplBatchMsg reply;
    ASSERT_TRUE(replicator.HandleReplSubscribe(msg, &reply).ok());
    for (const auto& image : reply.objects) {
      shipped.push_back(image.oid);
      std::string cls, state;
      ASSERT_TRUE(db->store()->Get(nullptr, image.oid, &cls, &state).ok());
      EXPECT_EQ(image.state, state);
    }
    if (reply.snapshot_done) break;
    msg.after_oid = reply.next_oid;
    if (!churned && msg.after_oid > 10030) {
      // Between chunks: one object ahead of the cursor and one behind it
      // appear, and one ahead of it disappears.
      ASSERT_TRUE(put(10051).ok());
      ASSERT_TRUE(put(10031 - 20).ok());
      added_behind.insert(10031 - 20);
      ASSERT_TRUE(erase(10090).ok());
      churned = true;
    }
  }
  ASSERT_TRUE(churned);

  // Strictly ascending: oid order, nothing shipped twice.
  EXPECT_TRUE(std::adjacent_find(shipped.begin(), shipped.end(),
                                 std::greater_equal<Oid>()) == shipped.end());
  // Exactly the objects that exist now, except the one that appeared
  // behind the cursor (the WAL tail replays it).
  std::vector<Oid> expected;
  for (Oid oid : db->store()->AllOids()) {
    if (added_behind.count(oid) == 0) expected.push_back(oid);
  }
  EXPECT_EQ(shipped, expected);
  EXPECT_TRUE(std::count(shipped.begin(), shipped.end(), 10051) == 1);
  EXPECT_TRUE(std::count(shipped.begin(), shipped.end(), 10090) == 0);

  ASSERT_TRUE(replicator.Stop().ok());
  ASSERT_TRUE(db->Close().ok());
}

// A mirror append that fails must not fail the raise that produced it; it
// is counted, and the lost occurrence takes no ordinal.
// 300 objects of 20 KiB (~6 MiB) cannot ship in one reply under the 4 MiB
// frame cap clients read with; the snapshot pages by bytes instead of
// failing every poll at the default 256 rows per reply.
TEST_F(ReplicationTest, LargeSnapshotShipsInRepliesUnderTheFrameCap) {
  StartNode(&primary_, "repl_primary", /*replica=*/false);
  PersistSensors(&primary_, 300, /*base=*/0, /*blob_bytes=*/20 << 10);
  StartNode(&follower_node_, "repl_follower", /*replica=*/true);

  FollowerOptions opts;  // Default max_items: the row cap alone is not enough.
  opts.port = primary_.port();
  Follower f(follower_node_.db.get(), opts);
  CatchUp(&f);
  EXPECT_EQ(Objects(primary_.db.get()), Objects(follower_node_.db.get()));
}

// The same bound on the WAL tail: 100 commits of 64 KiB objects made after
// the bootstrap ship as several tail replies.
TEST_F(ReplicationTest, LargeWalTailShipsInRepliesUnderTheFrameCap) {
  StartNode(&primary_, "repl_primary", /*replica=*/false);
  StartNode(&follower_node_, "repl_follower", /*replica=*/true);
  FollowerOptions opts;
  opts.port = primary_.port();
  Follower f(follower_node_.db.get(), opts);
  CatchUp(&f);

  PersistSensors(&primary_, 100, /*base=*/0, /*blob_bytes=*/64 << 10);
  CatchUp(&f);
  EXPECT_EQ(Objects(primary_.db.get()), Objects(follower_node_.db.get()));
}

// A documented difference, pinned until one occurrence log replaces the
// per-shard spill: the primary records a class-default relay's (oid 0)
// occurrence on the shard its class name hashes to, while
// Database::ReplayOccurrence routes by the occurrence's oid. With two
// shards the merged history agrees row for row, but the rows split between
// the shards' spill stores differently. See DESIGN.md §13.
TEST_F(ReplicationTest, ShardedFollowerSplitsClassDefaultHistoryByOid) {
  StartNode(&primary_, "repl_primary", /*replica=*/false, /*raise_shards=*/2);
  {
    auto conn = net::Connection::Dial("127.0.0.1", primary_.port());
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    net::Publisher producer(conn->get());
    for (int i = 0; i < 60; ++i) {
      auto oid = producer.Raise("Split" + std::to_string(i % 5), "Ping",
                                EventModifier::kEnd, {Value(i)});
      ASSERT_TRUE(oid.ok()) << oid.status().ToString();
    }
  }
  StartNode(&follower_node_, "repl_follower", /*replica=*/true,
            /*raise_shards=*/2);
  Follower f(follower_node_.db.get(), FollowTo(primary_));
  CatchUp(&f);

  const auto merged = History(primary_.db.get(), /*include_memory=*/true);
  EXPECT_EQ(merged.size(), 60u);
  ExpectSameHistory(merged, History(follower_node_.db.get(), true));

  auto spilled_seqs = [](Database* db, size_t shard) {
    std::vector<uint64_t> seqs;
    std::vector<EventOccurrence> rows;
    EXPECT_TRUE(db->history_store(shard)->Scan({}, &rows).ok());
    for (const EventOccurrence& occ : rows) seqs.push_back(occ.timestamp.seq);
    return seqs;
  };
  const auto primary0 = spilled_seqs(primary_.db.get(), 0);
  const auto primary1 = spilled_seqs(primary_.db.get(), 1);
  const auto follower0 = spilled_seqs(follower_node_.db.get(), 0);
  const auto follower1 = spilled_seqs(follower_node_.db.get(), 1);
  EXPECT_EQ(primary0.size() + primary1.size(),
            follower0.size() + follower1.size());
  EXPECT_NE(primary0, follower0);
  EXPECT_NE(primary1, follower1);
}

TEST_F(ReplicationTest, FailedMirrorAppendIsCountedAndTheRaiseSucceeds) {
  StartNode(&primary_, "mirror-fail", /*replica=*/false);
  Counter* failures =
      primary_.db->metrics()->counter("repl.mirror.append_failures");
  HistorySegmentStore* mirror = primary_.replicator->mirror();
  auto wait_for = [](const std::function<bool()>& done) {
    for (int i = 0; i < 500 && !done(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return done();
  };
  RaiseThroughGateway(&primary_, 1);
  ASSERT_TRUE(wait_for([&] { return mirror->TotalRecords() == 1; }));
  ASSERT_TRUE(FailPoints::Instance()
                  .EnableFromSpec("histlog.append=ioerror@hit(1)")
                  .ok());
  RaiseThroughGateway(&primary_, 1, 1);  // Asserts the raise is OK.
  ASSERT_TRUE(wait_for([&] { return failures->Value() == 1; }));
  FailPoints::Instance().Reset();
  RaiseThroughGateway(&primary_, 1, 2);
  ASSERT_TRUE(wait_for([&] { return mirror->TotalRecords() == 2; }));
  EXPECT_EQ(failures->Value(), 1u);
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char c : bytes) {
    hex += kDigits[c >> 4];
    hex += kDigits[c & 15];
  }
  return hex;
}

// The kReplBatch tail reply, byte for byte: WAL entries of every record
// type and three occurrence records, from a fixed store. LSNs are taken
// relative to where the fixed records start (what Open logs before them
// is not the point).
TEST(ReplWireTest, TailReplyMatchesGoldenBytes) {
  testing_util::TempDir dir("repl-golden");
  auto opened = Database::Open({.dir = dir.path()});
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(opened).value();
  ReplicatorOptions ropts;
  ropts.mirror_dir = dir.path() + "/repllog";
  Replicator replicator(db.get(), ropts);
  ASSERT_TRUE(replicator.Start().ok());

  WalManager* wal = db->store()->wal();
  const uint64_t from = *wal->CurrentLsn();
  ASSERT_TRUE(wal->Append(WalRecordType::kBegin, 901, 0, "").ok());
  ASSERT_TRUE(wal->Append(WalRecordType::kPut, 901, 0x1122334455667788ull,
                          "image-a")
                  .ok());
  ASSERT_TRUE(wal->Append(WalRecordType::kDelete, 901, 77, "").ok());
  ASSERT_TRUE(wal->Append(WalRecordType::kCommit, 901, 0, "").ok());
  ASSERT_TRUE(wal->Append(WalRecordType::kAbort, 902, 0, "").ok());
  ASSERT_TRUE(wal->Append(WalRecordType::kCheckpoint, 0, 0,
                          std::string("\x10\x20\0\0\0\0\0\0", 8))
                  .ok());
  ASSERT_TRUE(wal->Sync().ok());
  for (int i = 0; i < 3; ++i) {
    EventOccurrence occ;
    occ.oid = 40 + i;
    occ.class_name = "Sensor";
    occ.method = "Report";
    occ.modifier = EventModifier::kEnd;
    occ.params = {Value(int64_t{i}), Value(std::string("v")), Value(0.5)};
    occ.timestamp.micros = 1000000 + i;
    occ.timestamp.seq = 7 + i;
    ASSERT_TRUE(replicator.mirror()->Append(occ).ok());
  }

  net::ReplSubscribeMsg msg;
  msg.epoch = 1;
  msg.mode = net::ReplSubscribeMsg::kTail;
  msg.next_lsn = from;
  net::ReplBatchMsg reply;
  ASSERT_TRUE(replicator.HandleReplSubscribe(msg, &reply).ok());
  reply.wal_base_lsn = 0;
  reply.wal_end_lsn -= from;
  reply.next_lsn -= from;
  Encoder enc;
  reply.Encode(&enc);
  const std::string kGolden =
      "010000000000000001020000000000000000bd00000000000000030000000000"
      "0000000000000000000000000000000000000000000000060000000185030000"
      "0000000000000000000000000000000004850300000000000088776655443322"
      "1107000000696d6167652d610585030000000000004d00000000000000000000"
      "0002850300000000000000000000000000000000000003860300000000000000"
      "0000000000000000000000060000000000000000000000000000000008000000"
      "1020000000000000bd0000000000000000030000004900000028000000000000"
      "000600000053656e736f72060000005265706f72740103000000020000000000"
      "00000004010000007603000000000000e03f40420f0000000000070000000000"
      "00004900000029000000000000000600000053656e736f72060000005265706f"
      "7274010300000002010000000000000004010000007603000000000000e03f41"
      "420f00000000000800000000000000490000002a000000000000000600000053"
      "656e736f72060000005265706f72740103000000020200000000000000040100"
      "00007603000000000000e03f42420f0000000000090000000000000003000000"
      "00000000";
  EXPECT_EQ(Hex(enc.buffer()), kGolden);

  ASSERT_TRUE(replicator.Stop().ok());
  ASSERT_TRUE(db->Close().ok());
}

}  // namespace
}  // namespace repl
}  // namespace sentinel
