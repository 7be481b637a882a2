// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Gateway demo: a Sentinel database serving remote event producers and
// notifiable consumers over TCP (paper §4 — external applications as
// reactive/notifiable objects).
//
// Flow: a monitor Connection installs a rule and a Subscriber on it
// subscribes and long-polls; a Publisher on a separate producer
// Connection raises events; the monitor's fetch returns both the raw
// event occurrences and the rule firings they triggered. The two roles
// deliberately use separate connections so the consumer's long-poll
// never blocks the producer's raises.

#include <cstdio>
#include <filesystem>
#include <thread>

#include "core/database.h"
#include "net/client.h"
#include "net/server.h"

using namespace sentinel;
using net::Connection;
using net::GatewayServer;
using net::Notification;
using net::Publisher;
using net::Subscriber;

namespace {

void PrintNotification(const Notification& n) {
  std::printf("    [%s] %s::%s oid=%llu params=(", n.key.c_str(),
              n.class_name.c_str(), n.method.c_str(),
              static_cast<unsigned long long>(n.oid));
  for (size_t i = 0; i < n.params.size(); ++i) {
    std::printf("%s%s", i ? ", " : "", n.params[i].ToString().c_str());
  }
  std::printf(")\n");
}

}  // namespace

int main() {
  auto dir = std::filesystem::temp_directory_path() / "sentinel_gateway_demo";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  auto opened = Database::Open({.dir = dir.string()});
  if (!opened.ok()) {
    std::fprintf(stderr, "open: %s\n", opened.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(opened).value();

  // The embedding application may pre-register its schema; unknown classes
  // raised by remote producers are auto-registered by the gateway.
  db->RegisterClass(ClassBuilder("Sensor")
                        .Reactive()
                        .Method("Report", {.begin = true, .end = true})
                        .Build())
      .ok();

  GatewayServer server(db.get());  // Default ServerOptions; port 0: OS picks.
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("gateway listening on 127.0.0.1:%u\n", server.port());

  // --- Monitor process: installs a rule, subscribes, long-polls. ----------
  auto monitor = std::move(
      Connection::Dial("127.0.0.1", server.port())).value();
  std::printf("monitor: connected to %s\n", monitor->server_banner().c_str());
  monitor->Ping().ok();

  net::CreateRuleMsg rule;
  rule.name = "ReportSpike";
  rule.event_signature = "end Sensor::Report";
  // Empty condition: always true. Empty action: the built-in
  // "gateway.notify" broadcast to "rule:<name>" subscribers.
  if (Status s = monitor->CreateRule(rule); !s.ok()) {
    std::fprintf(stderr, "create rule: %s\n", s.ToString().c_str());
    return 1;
  }
  Subscriber consumer(monitor.get());
  consumer.Subscribe("end Sensor::Report").ok();
  consumer.Subscribe("rule:ReportSpike").ok();
  std::printf("monitor: rule ReportSpike installed, subscriptions armed\n");

  // --- Producer process: raises events from its own connection. -----------
  std::thread producer_thread([port = server.port()] {
    auto conn = std::move(Connection::Dial("127.0.0.1", port)).value();
    Publisher producer(conn.get());
    const double readings[] = {19.5, 21.0, 47.25};
    for (double reading : readings) {
      auto oid = producer.Raise("Sensor", "Report", EventModifier::kEnd,
                                {Value(reading), Value("hall-3")});
      std::printf("producer: raised Report(%.2f) via relay oid=%llu\n",
                  reading,
                  static_cast<unsigned long long>(oid.ok() ? *oid : 0));
    }
  });

  // Each raise produces one raw occurrence and one rule firing: 6 total.
  size_t got = 0;
  while (got < 6) {
    auto batch = consumer.Fetch(16, 2000);  // Long-poll: parks server-side.
    if (!batch.ok()) {
      std::fprintf(stderr, "fetch: %s\n", batch.status().ToString().c_str());
      producer_thread.join();  // Never return past a joinable thread.
      return 1;
    }
    if (batch->empty()) break;
    std::printf("monitor: fetched %zu notification(s)\n", batch->size());
    for (const Notification& n : *batch) PrintNotification(n);
    got += batch->size();
  }

  producer_thread.join();

  const net::GatewayStats stats = server.stats();
  std::printf(
      "stats: frames_in=%llu requests=%llu notifications_enqueued=%llu "
      "protocol_errors=%llu\n",
      static_cast<unsigned long long>(stats.frames_received),
      static_cast<unsigned long long>(stats.requests_processed),
      static_cast<unsigned long long>(stats.notifications_enqueued),
      static_cast<unsigned long long>(stats.protocol_errors));

  monitor.reset();
  server.Stop();
  db->Close().ok();
  db.reset();
  std::filesystem::remove_all(dir);
  return got == 6 ? 0 : 1;
}
