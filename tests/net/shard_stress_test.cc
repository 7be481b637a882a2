// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Multi-threaded raise stress over the gateway, sharded vs. unsharded.
// The correctness bar for the sharded raise path is exact equivalence:
// for the same workload, raise_shards = 4 must log exactly the occurrence
// count and execute exactly the rule-dispatch count that raise_shards = 1
// does — under concurrent producers on disjoint oids (each object owned
// by one shard) and on overlapping oids (every producer hammering the
// same objects, serialized by the owning workers). Runs under the TSan CI
// job, so sizes are modest and every data race is a failure.

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/database.h"
#include "net/client.h"
#include "net/server.h"
#include "test_util.h"

namespace sentinel {
namespace net {
namespace {

constexpr int kProducers = 4;
constexpr int kRaisesPerProducer = 48;

struct WorkloadCounts {
  uint64_t occurrences = 0;
  uint64_t rules_executed = 0;
  uint64_t rule_fired = 0;
};

/// Runs the stress workload against a fresh database + gateway with
/// `shards` raise shards. Producers run in parallel client threads;
/// `overlapping` selects whether they share oids or each own one.
WorkloadCounts RunWorkload(size_t shards, bool overlapping) {
  testing_util::TempDir tmp("shard_stress");
  Database::Options db_options;
  db_options.dir = tmp.path();
  db_options.raise_shards = shards;
  auto opened = Database::Open(db_options);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  auto db = std::move(opened).value();
  EXPECT_TRUE(db->RegisterClass(ClassBuilder("Sensor")
                                    .Reactive()
                                    .Method("Report", {.end = true})
                                    .Build())
                  .ok());

  // A class rule covering every relay the raises materialize. Its counter
  // is the ground truth the gateway stats are checked against.
  std::atomic<uint64_t> fired{0};
  auto event = db->CreatePrimitiveEvent("end Sensor::Report");
  EXPECT_TRUE(event.ok());
  RuleSpec spec;
  spec.name = "CountReports";
  spec.event = event.value();
  spec.action = [&fired](RuleContext&) {
    fired.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  };
  EXPECT_TRUE(db->DeclareClassRule("Sensor", spec).ok());

  ServerOptions options;
  options.ingress_capacity = 4096;  // Nothing should bounce at this size.
  GatewayServer server(db.get(), options);
  EXPECT_TRUE(server.Start().ok());

  std::vector<std::thread> producers;
  std::atomic<int> failures{0};
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([p, overlapping, &server, &failures] {
      auto connected = Connection::Dial("127.0.0.1", server.port());
      if (!connected.ok()) {
        failures.fetch_add(1);
        return;
      }
      auto conn = std::move(connected).value();
      Publisher publisher(conn.get());
      RetryPolicy policy;
      policy.max_attempts = 8;  // Absorb transient backpressure fully:
      publisher.set_retry_policy(policy);  // every raise must land.

      std::vector<RaiseEventMsg> msgs(kRaisesPerProducer);
      for (int i = 0; i < kRaisesPerProducer; ++i) {
        // Disjoint: producer p owns oid 1000+p outright. Overlapping:
        // everyone cycles the same four oids, so each object sees all
        // producers and the owning worker serializes them.
        msgs[i].oid = overlapping
                          ? 1000 + static_cast<uint64_t>(i % kProducers)
                          : 1000 + static_cast<uint64_t>(p);
        msgs[i].class_name = "Sensor";
        msgs[i].method = "Report";
        msgs[i].modifier = EventModifier::kEnd;
        msgs[i].params = {Value(static_cast<int64_t>(i))};
      }
      uint64_t rejected = 0;
      Status s = publisher.RaisePipelined(msgs, &rejected);
      if (!s.ok() || rejected != 0) failures.fetch_add(1);
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Stop drains in-flight requests and every forwarded-trigger inbox, so
  // the counters below are final.
  server.Stop();

  WorkloadCounts counts;
  counts.occurrences = db->metrics()->counter("events.occurrences")->Value();
  counts.rules_executed =
      db->metrics()->histogram("rules.dispatch_ns")->Count();
  counts.rule_fired = fired.load();
  EXPECT_TRUE(db->Close().ok());
  return counts;
}

class ShardStressTest : public ::testing::TestWithParam<bool> {};

TEST_P(ShardStressTest, ShardedCountsMatchSingleShardExactly) {
  const bool overlapping = GetParam();
  WorkloadCounts base = RunWorkload(1, overlapping);
  WorkloadCounts sharded = RunWorkload(4, overlapping);

  const uint64_t expected =
      static_cast<uint64_t>(kProducers) * kRaisesPerProducer;
  EXPECT_EQ(base.occurrences, expected);
  EXPECT_EQ(base.rule_fired, expected);
  EXPECT_EQ(base.rules_executed, expected);

  EXPECT_EQ(sharded.occurrences, base.occurrences);
  EXPECT_EQ(sharded.rule_fired, base.rule_fired);
  EXPECT_EQ(sharded.rules_executed, base.rules_executed);
}

INSTANTIATE_TEST_SUITE_P(DisjointAndOverlapping, ShardStressTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "overlapping" : "disjoint";
                         });

}  // namespace
}  // namespace net
}  // namespace sentinel
