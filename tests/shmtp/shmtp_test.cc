// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Shared-memory local transport, end to end: a LocalPublisher raises
// through the host's shm rings into the same gateway shards TCP uses, and
// the acks come back as ordinary wire frames. The heavyweight test forks a
// real producer process and kills it mid-push to prove the host truncates
// the torn tail, reclaims the ring, and never applies a frame twice.

#include "shmtp/handle.h"

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "shmtp/layout.h"
#include "test_util.h"

namespace sentinel {
namespace shmtp {
namespace {

using net::Connection;
using net::Frame;
using net::FrameType;
using net::LocalPublisher;
using net::Notification;
using net::RaiseEventMsg;
using net::StatusReplyMsg;
using net::Subscriber;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

// ctest runs tests from this binary concurrently, and a segment name is a
// host-global resource: every test gets its own.
std::string UniqueSegment() {
  static std::atomic<uint32_t> counter{0};
  return "/sentinel-shmtest-" + std::to_string(getpid()) + "-" +
         std::to_string(counter.fetch_add(1));
}

// Polls `pred` until it holds or `deadline` elapses.
template <typename Pred>
bool PollUntil(milliseconds deadline, Pred pred) {
  auto until = steady_clock::now() + deadline;
  while (!pred()) {
    if (steady_clock::now() > until) return false;
    std::this_thread::sleep_for(milliseconds(5));
  }
  return true;
}

// A complete kRaiseEvent wire frame for "end Sensor::Report(v)" — the
// exact bytes a handle pushes (and TCP clients write).
std::string RaiseFrame(int64_t v) {
  RaiseEventMsg msg;
  msg.class_name = "Sensor";
  msg.method = "Report";
  msg.modifier = EventModifier::kEnd;
  msg.params = {Value(v)};
  Encoder enc;
  msg.Encode(&enc);
  std::string wire;
  net::EncodeFrame(FrameType::kRaiseEvent, enc.buffer(), &wire,
                   net::kProtocolV2);
  return wire;
}

class ShmtpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tmp_ = std::make_unique<testing_util::TempDir>("shmtp");
    auto opened = Database::Open({.dir = tmp_->path()});
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db_ = std::move(opened).value();
    ASSERT_TRUE(db_->RegisterClass(ClassBuilder("Sensor")
                                       .Reactive()
                                       .Method("Report", {.begin = true,
                                                          .end = true})
                                       .Build())
                    .ok());
    options_.shm_segment = UniqueSegment();
  }

  // Separate from SetUp so tests can adjust options_ (ring count, sizes)
  // before the listener and the shm host come up.
  void StartServer() {
    server_ = std::make_unique<net::GatewayServer>(db_.get(), options_);
    Status s = server_->Start();
    ASSERT_TRUE(s.ok()) << s.ToString();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    db_->Close().ok();
    db_.reset();
    tmp_.reset();
  }

  LocalPublisher::Options PubOptions() {
    LocalPublisher::Options o;
    o.segment = options_.shm_segment;
    o.port = server_->port();
    return o;
  }

  std::unique_ptr<Subscriber> Subscribe() {
    auto c = Connection::Dial("127.0.0.1", server_->port());
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    sub_conn_ = std::move(c).value();
    auto sub = std::make_unique<Subscriber>(sub_conn_.get());
    EXPECT_TRUE(sub->Subscribe("end Sensor::Report").ok());
    return sub;
  }

  // Pushes one committed hostile record through a fresh handle. The host
  // must either kill that ring (a protocol error, reclaimed) or answer the
  // record on the completion stream — never crash or hang — and leave the
  // slot usable: a new producer then round-trips a raise over shm. Returns
  // true when the ring was reclaimed.
  bool PushHostileRecord(const std::string& record) {
    const net::GatewayStats before = server_->stats();
    bool reclaimed = false;
    {
      auto attached = ShmHandle::Attach(options_.shm_segment);
      EXPECT_TRUE(attached.ok()) << attached.status().ToString();
      if (!attached.ok()) return false;
      auto handle = std::move(attached).value();
      EXPECT_TRUE(handle->PushFrame(record).ok());
      bool answered = false;
      EXPECT_TRUE(PollUntil(milliseconds(5000), [&] {
        if (server_->stats().shm_reclaims > before.shm_reclaims) {
          reclaimed = true;
          return true;
        }
        // Safe to read while the host may reclaim: the fresh ring's
        // completion cursors are 0 before and after the reset.
        Frame reply;
        Status s = handle->ReadAckFrame(&reply, milliseconds(5));
        if (s.IsBusy()) return false;
        EXPECT_TRUE(s.ok()) << s.ToString();
        EXPECT_TRUE(reply.type == FrameType::kStatusReply ||
                    reply.type == FrameType::kBatchStatusReply)
            << "reply frame type " << static_cast<int>(reply.type);
        answered = true;
        return true;
      }));
      // A reclaimed slot is free again, no longer this handle's to close.
      if (reclaimed) handle->AbandonForTest();
      if (!reclaimed && !answered) return false;
    }
    if (!reclaimed) {
      // The clean detach frees the slot once the host observes it.
      EXPECT_TRUE(PollUntil(milliseconds(5000), [&] {
        return server_->stats().shm_reclaims > before.shm_reclaims;
      }));
    }
    const net::GatewayStats after = server_->stats();
    EXPECT_EQ(after.shm_protocol_errors,
              before.shm_protocol_errors + (reclaimed ? 1 : 0));
    EXPECT_EQ(after.shm_reclaims, before.shm_reclaims + 1);

    auto opened = LocalPublisher::Open(PubOptions());
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    if (!opened.ok()) return reclaimed;
    EXPECT_TRUE((*opened)->via_shm());
    auto oid = (*opened)->Raise("Sensor", "Report", EventModifier::kEnd,
                                {Value(1.0)});
    EXPECT_TRUE(oid.ok()) << oid.status().ToString();
    // Hand the slot back before the next hostile record claims it.
    opened->reset();
    EXPECT_TRUE(PollUntil(milliseconds(5000), [&] {
      return server_->stats().shm_reclaims > after.shm_reclaims;
    }));
    return reclaimed;
  }

  void ExpectGarbageRecordReclaimsRing(const std::string& record) {
    EXPECT_TRUE(PushHostileRecord(record));
  }

  // Drains notifications until `expected` arrive or a fetch comes back
  // empty after the deadline-sized wait.
  std::vector<Notification> Collect(Subscriber* sub, size_t expected,
                                    uint32_t wait_ms = 2000) {
    std::vector<Notification> got;
    while (got.size() < expected) {
      auto batch = sub->Fetch(64, wait_ms);
      EXPECT_TRUE(batch.ok()) << batch.status().ToString();
      if (!batch.ok() || batch->empty()) break;
      got.insert(got.end(), batch->begin(), batch->end());
    }
    return got;
  }

  net::ServerOptions options_;
  std::unique_ptr<testing_util::TempDir> tmp_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<net::GatewayServer> server_;
  std::unique_ptr<Connection> sub_conn_;
};

TEST_F(ShmtpTest, LocalRaiseRoundTripsThroughSharedMemory) {
  StartServer();
  auto sub = Subscribe();

  auto opened = LocalPublisher::Open(PubOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto pub = std::move(opened).value();
  ASSERT_TRUE(pub->via_shm());

  auto oid = pub->Raise("Sensor", "Report", EventModifier::kEnd,
                        {Value(21.5), Value("lab")});
  ASSERT_TRUE(oid.ok()) << oid.status().ToString();
  EXPECT_NE(*oid, 0u);

  auto got = Collect(sub.get(), 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].key, "end Sensor::Report");
  EXPECT_EQ(got[0].oid, *oid);
  ASSERT_EQ(got[0].params.size(), 2u);
  EXPECT_EQ(got[0].params[0], Value(21.5));
  EXPECT_EQ(got[0].params[1], Value("lab"));

  // Stats lag admission by a few instructions in the intake thread, and on
  // a single core the worker's ack can overtake them — poll, don't assert
  // a snapshot.
  EXPECT_TRUE(PollUntil(milliseconds(2000), [&] {
    net::GatewayStats stats = server_->stats();
    return stats.shm_attaches >= 1 && stats.shm_frames >= 1 &&
           stats.shm_batches >= 1;
  }));
}

TEST_F(ShmtpTest, FallsBackToTcpWhenSegmentIsMissing) {
  StartServer();
  LocalPublisher::Options o = PubOptions();
  o.segment = UniqueSegment();  // Never created by anyone.
  auto opened = LocalPublisher::Open(o);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto pub = std::move(opened).value();
  EXPECT_FALSE(pub->via_shm());

  auto sub = Subscribe();
  auto oid = pub->Raise("Sensor", "Report", EventModifier::kEnd,
                        {Value(int64_t{7})});
  ASSERT_TRUE(oid.ok()) << oid.status().ToString();
  EXPECT_EQ(Collect(sub.get(), 1).size(), 1u);
}

TEST_F(ShmtpTest, PipelinedShmRaisesKeepProducerOrder) {
  StartServer();
  auto sub = Subscribe();
  auto opened = LocalPublisher::Open(PubOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto pub = std::move(opened).value();
  ASSERT_TRUE(pub->via_shm());

  constexpr size_t kCount = 300;
  std::vector<RaiseEventMsg> msgs(kCount);
  for (size_t i = 0; i < kCount; ++i) {
    msgs[i].class_name = "Sensor";
    msgs[i].method = "Report";
    msgs[i].modifier = EventModifier::kEnd;
    msgs[i].params = {Value(static_cast<int64_t>(i))};
  }
  uint64_t rejected = 0;
  Status s = pub->RaisePipelined(msgs, &rejected);
  ASSERT_TRUE(s.ok()) << s.ToString();
  // The host defers instead of bouncing on a full shard queue, so nothing
  // short of a quota cap (unset here) rejects.
  EXPECT_EQ(rejected, 0u);

  auto got = Collect(sub.get(), kCount);
  ASSERT_EQ(got.size(), kCount);
  for (size_t i = 0; i < kCount; ++i) {
    ASSERT_EQ(got[i].params.size(), 1u);
    EXPECT_EQ(got[i].params[0], Value(static_cast<int64_t>(i)))
        << "reordered at " << i;
  }
}

TEST_F(ShmtpTest, HostParksAndProducerWakesIt) {
  StartServer();
  auto opened = LocalPublisher::Open(PubOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto pub = std::move(opened).value();
  ASSERT_TRUE(pub->via_shm());

  // Idle host: the intake loop must fall back to parking, not spin.
  ASSERT_TRUE(PollUntil(milliseconds(2000), [&] {
    return server_->stats().shm_parks >= 1;
  }));

  // Each raise waits for a park armed after the previous one, so it lands
  // on a parked host (a park lasts up to 20 ms; this polls every 5 ms). The
  // empty->non-empty doorbell must wake it: each raise's ack proves
  // delivery, and at least one wake must be a futex wake rather than a park
  // timeout.
  for (int i = 0; i < 10; ++i) {
    const uint64_t parks = server_->stats().shm_parks;
    ASSERT_TRUE(PollUntil(milliseconds(2000), [&] {
      return server_->stats().shm_parks > parks;
    }));
    auto oid = pub->Raise("Sensor", "Report", EventModifier::kEnd,
                          {Value(static_cast<int64_t>(i))});
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();
  }
  EXPECT_GE(server_->stats().shm_wakeups, 1u);
}

TEST_F(ShmtpTest, NonRaiseFrameIsAckedInvalidArgument) {
  StartServer();
  auto attached = ShmHandle::Attach(options_.shm_segment);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  auto handle = std::move(attached).value();

  net::PingMsg ping;
  Encoder enc;
  ping.Encode(&enc);
  std::string wire;
  net::EncodeFrame(FrameType::kPing, enc.buffer(), &wire, net::kProtocolV2);
  ASSERT_TRUE(handle->PushFrame(wire).ok());

  Frame reply;
  Status s = handle->ReadAckFrame(&reply, milliseconds(5000));
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(reply.type, FrameType::kStatusReply);
  auto decoded = StatusReplyMsg::Decode(reply.body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->ToStatus().IsInvalidArgument())
      << decoded->ToStatus().ToString();
}

TEST_F(ShmtpTest, TornWriteIsInvisibleUntilCommit) {
  StartServer();
  auto sub = Subscribe();
  auto attached = ShmHandle::Attach(options_.shm_segment);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  auto handle = std::move(attached).value();

  // Half a poison frame sits past the committed tail; the host must never
  // see it, and the next full push overwrites it harmlessly.
  handle->TearFrameForTest(RaiseFrame(-1));
  ASSERT_TRUE(handle->PushFrame(RaiseFrame(42)).ok());

  Frame reply;
  Status s = handle->ReadAckFrame(&reply, milliseconds(5000));
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(reply.type, FrameType::kStatusReply);
  auto decoded = StatusReplyMsg::Decode(reply.body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->ToStatus().ok()) << decoded->ToStatus().ToString();

  auto got = Collect(sub.get(), 1);
  ASSERT_EQ(got.size(), 1u);
  ASSERT_EQ(got[0].params.size(), 1u);
  EXPECT_EQ(got[0].params[0], Value(int64_t{42}));
}

TEST_F(ShmtpTest, RecordShorterThanFrameHeaderReclaimsRing) {
  options_.shm_rings = 1;
  StartServer();
  ExpectGarbageRecordReclaimsRing(
      std::string(net::kFrameHeaderSize - 1, '\x02'));
}

TEST_F(ShmtpTest, RecordWithBadVersionByteReclaimsRing) {
  options_.shm_rings = 1;
  StartServer();
  RaiseEventMsg msg;
  msg.class_name = "Sensor";
  msg.method = "Report";
  Encoder enc;
  msg.Encode(&enc);
  std::string wire;
  net::EncodeFrame(FrameType::kRaiseEvent, enc.buffer(), &wire,
                   /*version=*/net::kProtocolV2 + 1);
  ExpectGarbageRecordReclaimsRing(wire);
}

// Seeded hostile records: mutations of a valid raise frame, each pushed as
// one committed job-ring record. Each run takes the next seed from a
// per-process counter, so --gtest_repeat covers more of them.
TEST_F(ShmtpTest, MutatedRaiseRecordsAreReclaimedOrAnswered) {
  static uint32_t iteration = 0;
  const uint32_t seed = iteration++;
  SCOPED_TRACE(std::string("seed ").append(std::to_string(seed)));
  std::mt19937 rng(seed);
  auto below = [&](size_t n) {
    return static_cast<size_t>(std::uniform_int_distribution<size_t>(
        0, n - 1)(rng));
  };
  auto byte = [&] { return static_cast<char>(below(256)); };
  options_.shm_rings = 1;
  StartServer();
  const std::string valid = RaiseFrame(static_cast<int64_t>(seed));
  const size_t body = valid.size() - net::kFrameHeaderSize;
  for (int kind = 0; kind < 5; ++kind) {
    for (int round = 0; round < 3; ++round) {
      std::string record = valid;
      switch (kind) {
        case 0:  // Truncation.
          record.resize(below(valid.size()));
          break;
        case 1:  // A rewritten u24 length.
          for (size_t i = 0; i < 3; ++i) record[i] = byte();
          break;
        case 2:  // The version byte.
          record[3] = byte();
          break;
        case 3:  // The type byte.
          record[4] = byte();
          break;
        default:  // Flipped body bytes.
          for (size_t n = 1 + below(4); n > 0; --n) {
            record[net::kFrameHeaderSize + below(body)] ^=
                static_cast<char>(1 + below(255));
          }
          break;
      }
      SCOPED_TRACE(std::string("mutation kind ")
                       .append(std::to_string(kind))
                       .append(" round ")
                       .append(std::to_string(round)));
      PushHostileRecord(record);
      if (HasFailure()) return;
    }
  }
}

TEST_F(ShmtpTest, AttachFailsWhenRingsExhaustedAndPublisherFallsBack) {
  options_.shm_rings = 1;
  StartServer();

  auto first = ShmHandle::Attach(options_.shm_segment);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ((*first)->ring_index(), 0u);

  auto second = ShmHandle::Attach(options_.shm_segment);
  ASSERT_TRUE(second.status().IsResourceExhausted())
      << second.status().ToString();

  // LocalPublisher treats the full house as "use TCP" and still works.
  auto opened = LocalPublisher::Open(PubOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_FALSE((*opened)->via_shm());
  auto oid = (*opened)->Raise("Sensor", "Report", EventModifier::kEnd,
                              {Value(1.0)});
  EXPECT_TRUE(oid.ok()) << oid.status().ToString();
}

TEST_F(ShmtpTest, CleanDetachReclaimsTheRingForReuse) {
  options_.shm_rings = 1;
  StartServer();
  {
    auto attached = ShmHandle::Attach(options_.shm_segment);
    ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  }  // Destructor marks the ring closed.
  ASSERT_TRUE(PollUntil(milliseconds(5000), [&] {
    return server_->stats().shm_reclaims >= 1;
  }));

  auto again = ShmHandle::Attach(options_.shm_segment);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->ring_index(), 0u);
  // The host counts an attach when its scan observes the claimed ring,
  // which may lag this thread (and the first, instantly-closed tenancy may
  // never have been observed at all) — poll for the re-attach.
  EXPECT_TRUE(PollUntil(milliseconds(2000), [&] {
    return server_->stats().shm_attaches >= 1;
  }));
}

// The ISSUE's crash drill: a real producer process dies mid-PushFrame with
// a torn record past its committed tail. The host must (a) never surface
// the torn bytes, (b) reclaim the ring by pid-liveness without wedging,
// (c) let a fresh handle claim the same slot, and (d) apply no admitted
// frame twice across the generations.
TEST_F(ShmtpTest, CrashedProducerIsReclaimedWithoutDoubleApply) {
  options_.shm_rings = 1;
  StartServer();
  auto sub = Subscribe();

  constexpr int kChildFrames = 8;
  constexpr int kParentFrames = 8;

  pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // Child: attach AFTER fork so the ring pid is really this process.
    // No gtest, no exceptions — exit codes report progress.
    auto attached = ShmHandle::Attach(options_.shm_segment);
    if (!attached.ok()) _exit(3);
    auto handle = std::move(attached).value();
    for (int i = 0; i < kChildFrames; ++i) {
      if (!handle->PushFrame(RaiseFrame(1000 + i)).ok()) _exit(4);
    }
    // Let the host drain and apply the committed frames (their acks pile
    // up unread in the completion region — this child never acks).
    std::this_thread::sleep_for(milliseconds(150));
    // Die mid-push: length prefix + half the payload, no commit.
    handle->TearFrameForTest(RaiseFrame(-1));
    _exit(2);  // Skips destructors: no clean detach, just a vanished pid.
  }

  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 2) << "child aborted early";

  // The pid-liveness sweep reclaims the dead producer's ring.
  ASSERT_TRUE(PollUntil(milliseconds(10000), [&] {
    return server_->stats().shm_reclaims >= 1;
  }));

  // A new producer claims the same (only) slot and raises on.
  auto opened = LocalPublisher::Open(PubOptions());
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto pub = std::move(opened).value();
  ASSERT_TRUE(pub->via_shm());
  std::vector<RaiseEventMsg> msgs(kParentFrames);
  for (int i = 0; i < kParentFrames; ++i) {
    msgs[i].class_name = "Sensor";
    msgs[i].method = "Report";
    msgs[i].modifier = EventModifier::kEnd;
    msgs[i].params = {Value(static_cast<int64_t>(2000 + i))};
  }
  ASSERT_TRUE(pub->RaisePipelined(msgs).ok());

  // Everything the parent raised arrives; whatever subset of the child's
  // committed frames was admitted before the reclaim arrives at most once;
  // the torn poison frame never arrives.
  std::vector<Notification> got = Collect(sub.get(), kParentFrames, 500);
  for (auto more = sub->Fetch(64, 500); more.ok() && !more->empty();
       more = sub->Fetch(64, 500)) {
    got.insert(got.end(), more->begin(), more->end());
  }

  std::map<int64_t, int> counts;
  for (const Notification& n : got) {
    ASSERT_EQ(n.params.size(), 1u);
    ASSERT_TRUE(n.params[0].is_int()) << "unexpected param type";
    counts[n.params[0].AsInt()]++;
  }
  EXPECT_EQ(counts.count(-1), 0u) << "torn frame surfaced";
  for (const auto& [value, count] : counts) {
    EXPECT_EQ(count, 1) << "value " << value << " applied " << count
                        << " times";
  }
  for (int i = 0; i < kParentFrames; ++i) {
    EXPECT_EQ(counts[2000 + i], 1) << "parent raise " << i << " lost";
  }

  net::GatewayStats stats = server_->stats();
  EXPECT_GE(stats.shm_reclaims, 1u);
  EXPECT_GE(stats.shm_attaches, 2u);
}

// What one raise sequence produced through one carrier: a line per
// Raise / RaisePipelined call (its status, and the relay oid or the
// rejected count), the subscriber's notifications in order, and the
// merged occurrence log in logical-clock order.
struct CarrierRun {
  std::vector<std::string> acks;
  std::vector<std::string> notifications;
  std::vector<std::string> history;
};

std::string Describe(const std::string& key, uint64_t oid,
                     const ValueList& params) {
  return key + ToString(params) + " by " + std::to_string(oid);
}

// Runs `steps` (one-message steps as single Raise calls, the rest as
// RaisePipelined bursts) through a LocalPublisher against a fresh database
// and gateway — over shm, or forced onto TCP by naming a segment nobody
// created.
CarrierRun RunThroughCarrier(const std::vector<std::vector<RaiseEventMsg>>&
                                 steps,
                             bool via_shm) {
  CarrierRun run;
  testing_util::TempDir tmp(via_shm ? "carrier_shm" : "carrier_tcp");
  // A small in-memory log spills most occurrences, so the merged log
  // covers both the spilled segments and the in-memory tail.
  auto opened = Database::Open({.dir = tmp.path(),
                                .occurrence_log_capacity = 8,
                                .history_spill = true});
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  if (!opened.ok()) return run;
  std::unique_ptr<Database> db = std::move(opened).value();
  for (const char* cls : {"Sensor", "Valve"}) {
    EXPECT_TRUE(db->RegisterClass(ClassBuilder(cls)
                                      .Reactive()
                                      .Method(cls == std::string("Sensor")
                                                  ? "Report"
                                                  : "Set",
                                              {.begin = true, .end = true})
                                      .Build())
                    .ok());
  }
  net::ServerOptions options;
  options.shm_segment = UniqueSegment();
  net::GatewayServer server(db.get(), options);
  EXPECT_TRUE(server.Start().ok());

  auto sub_conn = Connection::Dial("127.0.0.1", server.port());
  EXPECT_TRUE(sub_conn.ok()) << sub_conn.status().ToString();
  if (!sub_conn.ok()) return run;
  Subscriber sub(sub_conn->get());
  EXPECT_TRUE(sub.Subscribe("end Sensor::Report").ok());
  EXPECT_TRUE(sub.Subscribe("end Valve::Set").ok());

  LocalPublisher::Options o;
  o.segment = via_shm ? options.shm_segment : UniqueSegment();
  o.port = server.port();
  o.window = 4;  // Bursts run past it, so the window loop cycles.
  auto pub = LocalPublisher::Open(o);
  EXPECT_TRUE(pub.ok()) << pub.status().ToString();
  if (!pub.ok()) return run;
  EXPECT_EQ((*pub)->via_shm(), via_shm);
  for (const std::vector<RaiseEventMsg>& step : steps) {
    if (step.size() == 1) {
      const RaiseEventMsg& m = step[0];
      auto got = (*pub)->Raise(m.class_name, m.method, m.modifier, m.params,
                               m.oid);
      run.acks.push_back(std::string("raise ")
                             .append(got.status().ToString())
                             .append(" oid ")
                             .append(std::to_string(got.ok() ? *got : 0)));
    } else {
      uint64_t rejected = 0;
      Status s = (*pub)->RaisePipelined(step, &rejected);
      run.acks.push_back(std::string("burst ")
                             .append(s.ToString())
                             .append(" rejected ")
                             .append(std::to_string(rejected)));
    }
  }
  for (auto batch = sub.Fetch(64, 500); batch.ok() && !batch->empty();
       batch = sub.Fetch(64, 500)) {
    for (const Notification& n : *batch) {
      run.notifications.push_back(Describe(n.key, n.oid, n.params));
    }
  }
  pub->reset();
  server.Stop();
  std::vector<EventOccurrence> log;
  EXPECT_TRUE(db->HistoryScan({}, &log, /*include_memory=*/true).ok());
  for (const EventOccurrence& occ : log) {
    run.history.push_back(Describe(occ.Key(), occ.oid, occ.params));
  }
  EXPECT_TRUE(db->Close().ok());
  return run;
}

// The carrier must not change the producer role: one seeded sequence —
// oid-0 relays and explicit oids (one of them the wrong class for its
// object, so some acks are errors), two classes, single raises and
// pipelined bursts — gives the same acks, notifications and merged
// occurrence log over shm as over TCP.
TEST(ShmtpCarrierTest, TcpAndShmGiveIdenticalResults) {
  std::mt19937 rng(20260517);
  auto below = [&](uint32_t n) {
    return std::uniform_int_distribution<uint32_t>(0, n - 1)(rng);
  };
  const uint64_t oids[] = {0, 0, 7001, 7002};
  std::vector<std::vector<RaiseEventMsg>> steps;
  for (int i = 0; i < 40; ++i) {
    std::vector<RaiseEventMsg> step(below(3) == 0 ? 1 : 2 + below(12));
    for (RaiseEventMsg& m : step) {
      const bool sensor = below(2) == 0;
      m.class_name = sensor ? "Sensor" : "Valve";
      m.method = sensor ? "Report" : "Set";
      m.modifier = EventModifier::kEnd;
      m.oid = oids[below(4)];
      m.params = {Value(static_cast<int64_t>(below(1000))),
                  Value(std::string("p").append(std::to_string(below(10))))};
    }
    steps.push_back(std::move(step));
  }

  const CarrierRun shm = RunThroughCarrier(steps, /*via_shm=*/true);
  const CarrierRun tcp = RunThroughCarrier(steps, /*via_shm=*/false);
  ASSERT_EQ(shm.acks.size(), steps.size());
  EXPECT_EQ(shm.acks, tcp.acks);
  EXPECT_FALSE(shm.notifications.empty());
  EXPECT_EQ(shm.notifications, tcp.notifications);
  EXPECT_EQ(shm.history.size(), shm.notifications.size());
  EXPECT_EQ(shm.history, tcp.history);
  // The sequence exercised both outcomes.
  auto has = [&](const char* text) {
    return std::any_of(shm.acks.begin(), shm.acks.end(),
                       [&](const std::string& a) {
                         return a.find(text) != std::string::npos;
                       });
  };
  EXPECT_TRUE(has("InvalidArgument"));
  EXPECT_TRUE(has("raise OK"));
  EXPECT_TRUE(has("burst OK"));
}

}  // namespace
}  // namespace shmtp
}  // namespace sentinel
