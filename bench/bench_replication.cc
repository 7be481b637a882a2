// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Replication cost model: how long does a failover take? The primary's
// gateway stops; the clock runs from Promote() until the promoted node acks
// its first producer raise. Repeated over fresh primary/standby pairs and
// reported as mean/max. Follower catch-up throughput is perfbench's
// repl.catchup_eps.
//
// Plain main() (bench_three_way.cc precedent): the interesting numbers are
// a table, not a google-benchmark timing loop.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_cli.h"
#include "common/bench_report.h"
#include "common/clock.h"
#include "core/database.h"
#include "net/client.h"
#include "net/server.h"
#include "repl/follower.h"
#include "repl/replicator.h"

namespace sentinel {
namespace {

using net::Connection;
using net::GatewayServer;
using net::Publisher;

int g_failover_rounds = 5;

struct BenchNode {
  std::filesystem::path dir;
  std::unique_ptr<Database> db;
  std::unique_ptr<repl::Replicator> replicator;
  std::unique_ptr<GatewayServer> server;

  void Stop() {
    if (server) server->Stop();
    server.reset();
    replicator.reset();
    if (db) db->Close().ok();
    db.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

BenchNode OpenNode(const std::string& tag, bool replica) {
  BenchNode node;
  node.dir = std::filesystem::temp_directory_path() /
             ("sentinel_bench_repl_" + tag);
  std::filesystem::remove_all(node.dir);
  std::filesystem::create_directories(node.dir);
  Database::Options options;
  options.dir = node.dir.string();
  options.occurrence_log_capacity = 64;  // Most occurrences spill.
  options.history_spill = true;
  options.replica = replica;
  node.db = std::move(Database::Open(options)).value();
  if (!replica) {
    node.db
        ->RegisterClass(ClassBuilder("Sensor")
                            .Reactive()
                            .Method("Report", {.begin = false, .end = true})
                            .Build())
        .ok();
  }
  repl::ReplicatorOptions ropts;
  ropts.mirror_dir = node.dir.string() + "/repllog";
  node.replicator =
      std::make_unique<repl::Replicator>(node.db.get(), ropts);
  if (Status s = node.replicator->Start(); !s.ok()) {
    std::fprintf(stderr, "replicator: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  node.server = std::make_unique<GatewayServer>(node.db.get(),
                                                net::ServerOptions{});
  node.server->SetReplication(node.replicator.get());
  if (Status s = node.server->Start(); !s.ok()) {
    std::fprintf(stderr, "gateway: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  return node;
}

void RaiseMany(BenchNode* node, int count) {
  auto conn =
      std::move(Connection::Dial("127.0.0.1", node->server->port())).value();
  Publisher producer(conn.get(), /*window=*/256);
  std::vector<net::RaiseEventMsg> batch(256);
  for (auto& msg : batch) {
    msg.oid = 0;
    msg.class_name = "Sensor";
    msg.method = "Report";
    msg.modifier = EventModifier::kEnd;
    msg.params = {Value(static_cast<int64_t>(1))};
  }
  // First raise creates the relay; reuse its oid for the rest.
  uint64_t relay =
      producer.Raise("Sensor", "Report", EventModifier::kEnd, {Value(1.0)})
          .value();
  for (auto& msg : batch) msg.oid = relay;
  for (int done = 1; done < count; done += static_cast<int>(batch.size())) {
    const size_t n = std::min(batch.size(),
                              static_cast<size_t>(count - done));
    std::vector<net::RaiseEventMsg> slice(batch.begin(),
                                          batch.begin() + n);
    producer.RaisePipelined(slice, nullptr);
  }
}

int RunFailover(BenchReport* report) {
  std::printf("failover (promote + first acked raise, %d rounds)\n",
              g_failover_rounds);
  std::vector<int64_t> latencies;
  for (int round = 0; round < g_failover_rounds; ++round) {
    BenchNode primary = OpenNode("primary_failover", false);
    RaiseMany(&primary, 512);
    BenchNode standby = OpenNode("standby_failover", true);
    repl::FollowerOptions fopts;
    fopts.port = primary.server->port();
    fopts.max_items = 512;
    repl::Follower follower(standby.db.get(), fopts);
    bool caught_up = false;
    while (!caught_up) {
      if (Status s = follower.CatchUpOnce(&caught_up); !s.ok()) {
        std::fprintf(stderr, "catch-up: %s\n", s.ToString().c_str());
        return 1;
      }
    }

    primary.server->Stop();  // The primary "dies".
    const int64_t t0 = SteadyNowNs();
    if (!follower.Promote().ok()) {
      std::fprintf(stderr, "promote failed\n");
      return 1;
    }
    auto conn =
        std::move(Connection::Dial("127.0.0.1", standby.server->port()))
            .value();
    Publisher producer(conn.get());
    if (!producer
             .Raise("Sensor", "Report", EventModifier::kEnd, {Value(1.0)})
             .ok()) {
      std::fprintf(stderr, "post-promotion raise failed\n");
      return 1;
    }
    const int64_t t1 = SteadyNowNs();
    latencies.push_back(t1 - t0);
    std::printf("  round %d: %.2f ms\n", round,
                static_cast<double>(t1 - t0) / 1e6);
    standby.Stop();
    primary.Stop();
  }

  int64_t total = 0, max_ns = 0;
  for (int64_t ns : latencies) {
    total += ns;
    max_ns = std::max(max_ns, ns);
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(latencies.size());
  std::printf("  %-28s %10.2f ms mean, %10.2f ms max\n",
              "failover-to-first-ack", mean / 1e6,
              static_cast<double>(max_ns) / 1e6);

  BenchResult result;
  result.name = "replication/failover";
  result.iterations = static_cast<int64_t>(latencies.size());
  result.real_ns_per_iter = mean;
  result.counters["mean_ns"] = mean;
  result.counters["max_ns"] = static_cast<double>(max_ns);
  report->Add(result);
  return 0;
}

int RunBench(const bench_main::BenchCli& cli) {
  BenchReport report("bench_replication");
  if (int rc = RunFailover(&report); rc != 0) return rc;
  return cli.WriteReport(report);
}

}  // namespace
}  // namespace sentinel

int main(int argc, char** argv) {
  sentinel::bench_main::BenchCli cli =
      sentinel::bench_main::BenchCli::Parse(argc, argv);
  if (cli.quick) sentinel::g_failover_rounds = 3;
  return sentinel::RunBench(cli);
}
