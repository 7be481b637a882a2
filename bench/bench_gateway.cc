// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Gateway cost model: what does putting the event interface behind a
// gateway cost, and what do the local transport and the raise shards buy?
//
//   1. rpc          — one connection, one synchronous raise RPC at a time,
//                     with the frame pre-encoded OUTSIDE the timed loop so
//                     the number measures the wire round-trip, not
//                     client-side encoding or per-op clock reads; rpc_x8
//                     runs eight such connections at once
//   2. pipelined xN — N producers streaming windowed raises through the
//                     bounded ingress queues, swept across raise-shard
//                     counts (--shards 1,2,4), over TCP (gateway/pipelined,
//                     gateway/pipelined_shards<k>) and over the
//                     zero-syscall shared-memory transport
//                     (gateway/shm_pipelined, 1 shard). Every point runs
//                     the same server options, window and batch against a
//                     fresh database; only the producers' link differs, so
//                     shm_pipelined / pipelined is the transport alone
//   3. soak         — raise→notify p50/p90/p99 with a sweep of parked
//                     background sessions (--soak 64,256,1024); the epoll
//                     plane's claim is that tail latency stays flat as
//                     parked sessions scale, and --assert-flat enforces it
//                     (gating on p90, which survives isolated scheduler
//                     stalls that a small-sample p99 cannot)
//
// The in-process raise is bench_metrics' BM_RaisePath; raise→notify with
// no parked sessions is perfbench's notify_p50_us.
//
// Producers in the pipelined sweep raise on distinct oids so the OID-hash
// routing actually spreads them across shards; the scaling curve is the
// whole point of the sweep.
//
// Plain main() (bench_three_way.cc precedent): the interesting numbers are
// a table, not a google-benchmark timing loop.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bench_cli.h"
#include "common/bench_report.h"
#include "common/clock.h"
#include "core/database.h"
#include "net/client.h"
#include "net/server.h"

namespace sentinel {
namespace {

using net::Connection;
using net::GatewayServer;
using net::LocalPublisher;
using net::Publisher;
using net::Subscriber;

// Timed work per section; --quick shrinks them for CI smoke runs.
int g_rpc_ops = 5000;
int g_pipelined_batches = 12;  ///< Per producer, of kPipelineBatch raises.
int g_soak_samples = 500;
constexpr int kWarmup = 200;  ///< Untimed RPCs before each timed section.
constexpr int kSoakWarmup = 50;
/// Raises per RaisePipelined call: four windows, so the window binds.
constexpr size_t kPipelineBatch = 4096;
constexpr size_t kPipelineWindow = 1024;

std::unique_ptr<Connection> Dial(uint16_t port) {
  return std::move(Connection::Dial("127.0.0.1", port)).value();
}

double Quantile(std::vector<int64_t>& samples, double q) {
  std::sort(samples.begin(), samples.end());
  size_t idx = static_cast<size_t>(q * (samples.size() - 1));
  return static_cast<double>(samples[idx]);
}

/// A gateway in front of a fresh `raise_shards`-sharded database with the
/// Sensor class; tearing it down removes the directory.
struct Gateway {
  Gateway(std::filesystem::path path, size_t raise_shards,
          const net::ServerOptions& options)
      : dir(std::move(path)) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    Database::Options db_options;
    db_options.dir = dir.string();
    db_options.raise_shards = raise_shards;
    db = std::move(Database::Open(db_options)).value();
    db->RegisterClass(ClassBuilder("Sensor")
                          .Reactive()
                          .Method("Report", {.begin = true, .end = true})
                          .Build())
        .ok();
    server = std::make_unique<GatewayServer>(db.get(), options);
    if (Status s = server->Start(); !s.ok()) {
      std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  ~Gateway() {
    server->Stop();
    db->Close().ok();
    std::filesystem::remove_all(dir);
  }
  uint16_t port() const { return server->port(); }

  std::filesystem::path dir;
  std::unique_ptr<Database> db;
  std::unique_ptr<GatewayServer> server;
};

/// Prints one throughput row and returns its result.
BenchResult Throughput(const std::string& mode, const std::string& slug,
                       double ops, int64_t elapsed_ns) {
  const double ns = static_cast<double>(elapsed_ns) / ops;
  std::printf("  %-30s %14.0f %14.0f\n", mode.c_str(), 1e9 / ns, ns);
  BenchResult result;
  result.name = "gateway/" + slug;
  result.iterations = static_cast<int64_t>(ops);
  result.real_ns_per_iter = ns;
  result.counters["events_per_sec"] = 1e9 / ns;
  return result;
}

/// Synchronous RPC per raise over `conns` connections at once. Each
/// connection is strictly one-at-a-time: send a raise, wait for its ack,
/// repeat. x1 is bounded below by the kernel's TCP round-trip (two context
/// switches per op: latency physics, not plane cost); x8 is the plane's
/// sync-RPC capacity.
BenchResult RunRpc(const std::filesystem::path& dir, int conns) {
  net::ServerOptions options;
  options.ingress_capacity = 4096;
  Gateway gw(dir, 1, options);
  std::vector<std::unique_ptr<Connection>> rpc_conns;
  std::vector<std::string> frames;
  for (int c = 0; c < conns; ++c) {
    rpc_conns.push_back(Dial(gw.port()));
    net::RaiseEventMsg msg;
    msg.class_name = "Sensor";
    msg.method = "Report";
    msg.modifier = EventModifier::kEnd;
    msg.params = {Value(static_cast<double>(c))};
    Encoder enc;
    msg.Encode(&enc);
    std::string frame;
    rpc_conns.back()->EncodeFrameTo(net::FrameType::kRaiseEvent, enc.buffer(),
                                    &frame);
    frames.push_back(std::move(frame));
  }
  auto rpc_loop = [&](int c, int ops) {
    Connection* conn = rpc_conns[static_cast<size_t>(c)].get();
    const std::string& frame = frames[static_cast<size_t>(c)];
    for (int i = 0; i < ops; ++i) {
      conn->SendRaw(frame).ok();
      net::Frame reply;
      conn->ReadFrame(&reply).ok();
    }
  };
  auto run_all = [&](int ops) {
    std::vector<std::thread> threads;
    for (int c = 0; c < conns; ++c) threads.emplace_back(rpc_loop, c, ops);
    for (std::thread& t : threads) t.join();
  };
  run_all(kWarmup);  // Also proves the exchange is well-formed.
  const int per_conn = std::max(1, g_rpc_ops / conns);
  int64_t t0 = SteadyNowNs();
  run_all(per_conn);
  int64_t t1 = SteadyNowNs();
  return Throughput("gateway rpc x" + std::to_string(conns),
                    conns == 1 ? "rpc" : "rpc_x" + std::to_string(conns),
                    static_cast<double>(conns) * per_conn, t1 - t0);
}

/// One pipelined-throughput point: `producers` LocalPublishers stream
/// windowed batches at a gateway over a `raise_shards`-sharded database,
/// each raising on its own oid so routing spreads the load. With `shm` they
/// attach to the gateway's shared-memory rings, else they dial TCP; the
/// server (which hosts the segment either way), the window and the batch
/// are the same for every point.
BenchResult RunPipelined(const std::filesystem::path& dir,
                         size_t raise_shards, int producers, bool shm) {
  net::ServerOptions options;
  options.ingress_capacity = 8192;
  options.shm_segment = "/sentinel-bench-gw-" + std::to_string(getpid());
  options.shm_rings = static_cast<uint32_t>(producers);
  Gateway gw(dir, raise_shards, options);

  // Producers and one untimed warmup batch each come before the clock
  // starts, so the timed region covers steady-state streaming.
  std::vector<std::unique_ptr<LocalPublisher>> pubs;
  std::vector<std::vector<net::RaiseEventMsg>> batches(
      static_cast<size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    auto& batch = batches[static_cast<size_t>(p)];
    batch.resize(kPipelineBatch);
    for (auto& msg : batch) {
      msg.oid = 1000 + static_cast<uint64_t>(p);
      msg.class_name = "Sensor";
      msg.method = "Report";
      msg.modifier = EventModifier::kEnd;
      msg.params = {Value(static_cast<int64_t>(0))};
    }
    LocalPublisher::Options lp;
    if (shm) lp.segment = options.shm_segment;
    lp.port = gw.port();
    lp.window = kPipelineWindow;
    pubs.push_back(std::move(LocalPublisher::Open(lp)).value());
    if (pubs.back()->via_shm() != shm) {
      std::fprintf(stderr, "shm attach fell back to TCP; not benching that\n");
      std::exit(1);
    }
    pubs.back()->RaisePipelined(batch, nullptr).ok();
  }
  std::vector<std::thread> threads;
  std::vector<uint64_t> rejected(static_cast<size_t>(producers), 0);
  int64_t t0 = SteadyNowNs();
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (int b = 0; b < g_pipelined_batches; ++b) {
        uint64_t r = 0;
        pubs[static_cast<size_t>(p)]
            ->RaisePipelined(batches[static_cast<size_t>(p)], &r)
            .ok();
        rejected[static_cast<size_t>(p)] += r;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  int64_t t1 = SteadyNowNs();
  pubs.clear();  // Detach before the host goes away.

  const std::string shards = std::to_string(raise_shards);
  // Shard count 1 keeps the historical result name so the scaling curve
  // has its committed baseline to compare against.
  const std::string slug = shm                ? "shm_pipelined"
                           : raise_shards == 1 ? "pipelined"
                                               : "pipelined_shards" + shards;
  BenchResult result = Throughput(
      std::string("gateway ") + (shm ? "shm" : "tcp") + " pipelined x" +
          std::to_string(producers) + " shards=" + shards,
      slug,
      static_cast<double>(producers) * g_pipelined_batches * kPipelineBatch,
      t1 - t0);
  result.counters["producers"] = producers;
  result.counters["shards"] = static_cast<double>(raise_shards);
  uint64_t total_rejected = 0;
  for (uint64_t r : rejected) total_rejected += r;
  result.counters["backpressure_rejections"] =
      static_cast<double>(total_rejected);
  return result;
}

struct SoakPoint {
  int sessions;
  size_t samples;
  double p50_ns;
  double p90_ns;
  double p99_ns;
};

/// One soak point: `sessions` background connections subscribe to a key
/// the producer never raises and park in a long-poll Fetch, then one
/// producer/consumer pair measures raise→notify latency through the
/// loaded plane. Under the old poll() loop every parked session was
/// rescanned per wakeup, so p99 grew with the session count; the epoll
/// plane must keep it flat.
SoakPoint RunSoakPoint(const std::filesystem::path& dir, int sessions) {
  net::ServerOptions options;
  options.io_threads = 2;
  options.ingress_capacity = 4096;
  Gateway gw(dir, 1, options);

  // Parked sessions subscribe to the `begin` occurrence, which the kEnd
  // raises below never trigger: they sit parked for the whole run.
  std::vector<std::unique_ptr<Connection>> parked;
  parked.reserve(static_cast<size_t>(sessions));
  net::FetchMsg park;
  park.max = 4;
  park.wait_ms = 120000;
  Encoder park_enc;
  park.Encode(&park_enc);
  for (int i = 0; i < sessions; ++i) {
    auto conn = Dial(gw.port());
    Subscriber sub(conn.get());
    if (!sub.Subscribe("begin Sensor::Report").ok()) std::exit(1);
    // Written but never read: the worker parks the fetch server-side.
    conn->SendFrame(net::FrameType::kFetchNotifications, park_enc.buffer())
        .ok();
    parked.push_back(std::move(conn));
  }

  auto consumer_conn = Dial(gw.port());
  Subscriber consumer(consumer_conn.get());
  consumer.Subscribe("end Sensor::Report").ok();
  auto producer_conn = Dial(gw.port());
  Publisher producer(producer_conn.get());

  auto sample_one = [&](int i) -> int64_t {
    int64_t t0 = SteadyNowNs();
    producer.Raise("Sensor", "Report", EventModifier::kEnd,
                   {Value(static_cast<double>(i))})
        .ok();
    auto batch = consumer.Fetch(4, 1000);
    int64_t t1 = SteadyNowNs();
    return (batch.ok() && !batch->empty()) ? t1 - t0 : -1;
  };
  for (int i = 0; i < kSoakWarmup; ++i) sample_one(i);
  std::vector<int64_t> latencies;
  latencies.reserve(static_cast<size_t>(g_soak_samples));
  for (int i = 0; i < g_soak_samples; ++i) {
    int64_t ns = sample_one(i);
    if (ns >= 0) latencies.push_back(ns);
  }
  parked.clear();

  SoakPoint point;
  point.sessions = sessions;
  point.samples = latencies.size();
  point.p50_ns = latencies.empty() ? 0 : Quantile(latencies, 0.50);
  point.p90_ns = latencies.empty() ? 0 : Quantile(latencies, 0.90);
  point.p99_ns = latencies.empty() ? 0 : Quantile(latencies, 0.99);
  return point;
}

int RunSoak(const std::filesystem::path& dir,
            const std::vector<int>& session_sweep, bool assert_flat,
            BenchReport* report) {
  // A loaded CI box can land one multi-millisecond scheduler stall inside
  // any single point's p99, so the flatness gate re-runs the whole sweep
  // on a violation: noise lands on random points across attempts, a fetch
  // path that really scans parked sessions fails every time.
  const int max_attempts = assert_flat ? 3 : 1;
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    std::printf(
        "multi-session soak (raise-to-notify with parked sessions)%s\n",
        attempt > 1 ? " [retry after noisy sweep]" : "");
    std::printf("  %-10s %12s %12s %12s\n", "sessions", "p50 us",
                "p90 us", "p99 us");
    std::vector<SoakPoint> points;
    for (int sessions : session_sweep) {
      points.push_back(RunSoakPoint(dir, sessions));
      const SoakPoint& point = points.back();
      std::printf("  %-10d %12.1f %12.1f %12.1f\n", point.sessions,
                  point.p50_ns / 1e3, point.p90_ns / 1e3,
                  point.p99_ns / 1e3);
    }

    // Flat within ±25% of the smallest point: parked sessions must not
    // tax the fetch path. Compared against the sweep minimum so a noisy
    // first point doesn't mask real growth. The gate reads p90, not p99:
    // at CI sample counts a p99 is one or two samples, and a single
    // foreign-tenant stall anywhere in the sweep would fail it, while the
    // regression this defends against — a fetch path that rescans every
    // parked session per wakeup — shifts the whole distribution and fails
    // p90 at 1024 sessions on every attempt.
    const SoakPoint* violator = nullptr;
    double min_p90 = points.empty() ? 0 : points[0].p90_ns;
    for (const SoakPoint& point : points)
      min_p90 = std::min(min_p90, point.p90_ns);
    for (const SoakPoint& point : points) {
      if (point.p90_ns > 1.25 * min_p90) violator = &point;
    }

    if (assert_flat && points.size() > 1 && violator != nullptr) {
      std::fprintf(stderr,
                   "FLATNESS VIOLATION (attempt %d/%d): p90 at %d sessions "
                   "= %.1fus, more than 1.25x the sweep minimum %.1fus\n",
                   attempt, max_attempts, violator->sessions,
                   violator->p90_ns / 1e3, min_p90 / 1e3);
      if (attempt == max_attempts) return 1;
      continue;  // Noise until proven otherwise: re-run the sweep.
    }

    for (const SoakPoint& point : points) {
      BenchResult result;
      result.name = "gateway/soak_sessions" + std::to_string(point.sessions);
      result.iterations = static_cast<int64_t>(point.samples);
      result.real_ns_per_iter = point.p50_ns;
      result.counters["sessions"] = static_cast<double>(point.sessions);
      result.counters["p50_ns"] = point.p50_ns;
      result.counters["p90_ns"] = point.p90_ns;
      result.counters["p99_ns"] = point.p99_ns;
      report->Add(result);
    }
    if (assert_flat && points.size() > 1)
      std::printf("  p90 flat within 25%% across the sweep\n");
    return 0;
  }
  return 1;
}

}  // namespace

int RunBench(int producers, const std::vector<size_t>& shard_sweep,
             const std::vector<int>& session_sweep, bool soak_only,
             bool assert_flat, const bench_main::BenchCli& cli) {
  auto dir = std::filesystem::temp_directory_path() / "sentinel_bench_gw";
  BenchReport report("bench_gateway");

  if (!soak_only) {
    std::printf("gateway throughput (%d producers)\n", producers);
    std::printf("  %-30s %14s %14s\n", "mode", "events/sec", "ns/event");
    for (int conns : {1, 8}) report.Add(RunRpc(dir, conns));
    for (size_t shards : shard_sweep) {
      report.Add(RunPipelined(dir, shards, producers, /*shm=*/false));
    }
    report.Add(RunPipelined(dir, 1, producers, /*shm=*/true));
  }

  int rc = RunSoak(dir, session_sweep, assert_flat, &report);
  if (rc != 0) return rc;
  return cli.WriteReport(report);
}

}  // namespace sentinel

int main(int argc, char** argv) {
  sentinel::bench_main::BenchCli cli =
      sentinel::bench_main::BenchCli::Parse(argc, argv);
  if (cli.quick) {
    sentinel::g_rpc_ops = 500;
    sentinel::g_pipelined_batches = 1;
    sentinel::g_soak_samples = 200;
  }
  // --shards 1,2,4 picks the raise-shard counts the pipelined section
  // sweeps; --soak 64,256,1024 picks the parked-session counts the soak
  // sweeps; --soak-only skips the rpc and pipelined sections;
  // --assert-flat exits nonzero when soak p90 is not flat within 25%;
  // remaining positional arg = producer count.
  std::vector<size_t> shard_sweep = {1, 2, 4};
  std::vector<int> session_sweep = {64, 256, 1024};
  bool soak_only = false;
  bool assert_flat = false;
  int producers = 4;
  auto parse_list = [](const std::string& list, auto* out) {
    out->clear();
    for (size_t start = 0; start < list.size();) {
      size_t comma = list.find(',', start);
      if (comma == std::string::npos) comma = list.size();
      int n = std::atoi(list.substr(start, comma - start).c_str());
      if (n > 0) out->push_back(n);
      start = comma + 1;
    }
  };
  for (size_t i = 0; i < cli.positional.size(); ++i) {
    if (cli.positional[i] == "--shards" && i + 1 < cli.positional.size()) {
      parse_list(cli.positional[++i], &shard_sweep);
      if (shard_sweep.empty()) shard_sweep = {1};
    } else if (cli.positional[i] == "--soak" &&
               i + 1 < cli.positional.size()) {
      parse_list(cli.positional[++i], &session_sweep);
      if (session_sweep.empty()) session_sweep = {64};
    } else if (cli.positional[i] == "--soak-only") {
      soak_only = true;
    } else if (cli.positional[i] == "--assert-flat") {
      assert_flat = true;
    } else {
      producers = std::max(1, std::atoi(cli.positional[i].c_str()));
    }
  }
  return sentinel::RunBench(producers, shard_sweep, session_sweep,
                            soak_only, assert_flat, cli);
}
