// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// E6 — Subscription vs. centralized rule checking (paper §3.5, advantage 1):
//
//   "runtime rule checking overhead is reduced since only those rules which
//    have subscribed to a reactive object are checked when the reactive
//    object generates events. This is in contrast to adopting a centralized
//    approach where all rules defined in the system are checked."
//
// Setup: R rules exist in the system; only S of them monitor the hot
// object. Sentinel delivers an update's event to the S subscribers; the
// ADAM-style engine scans all R rules per event. Expected shape: Sentinel
// cost grows with S and stays flat in R; ADAM-style cost grows with R even
// when S = 1.

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "baselines/adam_engine.h"
#include "core/reactive.h"
#include "events/primitive_event.h"
#include "rules/rule.h"

namespace sentinel {
namespace {

using baselines::AdamEngine;
using baselines::AdamEventId;
using baselines::AdamObject;
using baselines::AdamRule;
using baselines::AdamWhen;

/// Sentinel: R rules exist, S subscribe to the hot object. The event graph
/// and scheduler-free inline execution isolate pure dispatch cost.
void BM_SentinelSubscription(benchmark::State& state) {
  const int total_rules = static_cast<int>(state.range(0));
  const int subscribed = static_cast<int>(state.range(1));

  ReactiveObject hot("Stock", 1);
  std::vector<ReactiveObject> cold;  // Hosts for unsubscribed rules.
  cold.reserve(total_rules);
  std::vector<std::unique_ptr<Rule>> rules;
  int64_t fired = 0;
  for (int i = 0; i < total_rules; ++i) {
    auto event = PrimitiveEvent::Create("end Stock::SetPrice").value();
    auto rule = std::make_unique<Rule>(
        std::string("r").append(std::to_string(i)), event, nullptr,
        [&fired](RuleContext&) {
          ++fired;
          return Status::OK();
        });
    if (i < subscribed) {
      hot.Subscribe(rule.get()).ok();
    } else {
      cold.emplace_back("Stock", static_cast<Oid>(100 + i));
      cold.back().Subscribe(rule.get()).ok();
    }
    rules.push_back(std::move(rule));
  }

  for (auto _ : state) {
    hot.RaiseEvent("SetPrice", EventModifier::kEnd, {Value(50.0)});
  }
  state.counters["rules_total"] = total_rules;
  state.counters["rules_subscribed"] = subscribed;
  state.counters["fired_per_event"] =
      benchmark::Counter(static_cast<double>(fired) /
                         static_cast<double>(state.iterations()));
}

/// ADAM-style: R rules in the central registry; every event scans them all.
void BM_AdamCentralized(benchmark::State& state) {
  const int total_rules = static_cast<int>(state.range(0));
  const int matching = static_cast<int>(state.range(1));

  AdamEngine adam;
  adam.DefineClass("Stock").ok();
  adam.DefineClass("Other").ok();
  AdamEventId event = adam.DefineEvent("SetPrice", AdamWhen::kAfter).value();
  int64_t fired = 0;
  for (int i = 0; i < total_rules; ++i) {
    AdamRule rule;
    rule.name = std::string("r").append(std::to_string(i));
    rule.event = event;
    // Non-matching rules watch a class the hot object is not.
    rule.active_class = i < matching ? "Stock" : "Other";
    rule.action = [&fired](AdamObject*, const ValueList&) {
      ++fired;
      return Status::OK();
    };
    adam.CreateRule(rule).ok();
  }
  AdamObject* hot = adam.NewObject("Stock").value();

  for (auto _ : state) {
    adam.Invoke(hot, "SetPrice", {Value(50.0)}, [](AdamObject*) {}).ok();
  }
  state.counters["rules_total"] = total_rules;
  state.counters["rules_matching"] = matching;
  state.counters["scanned_per_event"] = benchmark::Counter(
      static_cast<double>(adam.rules_scanned()) /
      static_cast<double>(state.iterations()));
}

// Sweep: total rules 16..4096, one interested rule. The paper's claim shows
// as Sentinel flat, ADAM linear.
BENCHMARK(BM_SentinelSubscription)
    ->Args({16, 1})
    ->Args({64, 1})
    ->Args({256, 1})
    ->Args({1024, 1})
    ->Args({4096, 1})
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_AdamCentralized)
    ->Args({16, 1})
    ->Args({64, 1})
    ->Args({256, 1})
    ->Args({1024, 1})
    ->Args({4096, 1})
    ->Unit(benchmark::kNanosecond);

// Secondary sweep: both systems with growing interested sets (cost must
// grow for both — the win is only about *uninterested* rules).
BENCHMARK(BM_SentinelSubscription)
    ->Args({256, 1})
    ->Args({256, 16})
    ->Args({256, 64})
    ->Args({256, 256})
    ->Unit(benchmark::kNanosecond);
BENCHMARK(BM_AdamCentralized)
    ->Args({256, 1})
    ->Args({256, 16})
    ->Args({256, 64})
    ->Args({256, 256})
    ->Unit(benchmark::kNanosecond);

}  // namespace
}  // namespace sentinel

SENTINEL_BENCHMARK_MAIN();
