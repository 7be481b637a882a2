// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// E10 — Runtime rule evolution (paper §1, performance issue 1): the cost of
// adding/removing rules at runtime, versus the compile-time model where
// "changing the rules defined for objects requires the modification of
// class definitions and thus recompiling the system."
//
// Sentinel: create/enable/disable/delete are ordinary object operations.
// Ode-style: the same change costs a RecompileClass that revalidates the
// whole extent — cost grows with the number of stored instances.

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "baselines/ode_engine.h"
#include "core/reactive.h"
#include "events/detector.h"
#include "events/primitive_event.h"
#include "rules/rule_manager.h"
#include "rules/scheduler.h"

namespace sentinel {
namespace {

using baselines::OdeConstraint;
using baselines::OdeEngine;
using baselines::OdeObject;

void BM_SentinelCreateDeleteRule(benchmark::State& state) {
  MetricsRegistry metrics;
  RuleScheduler scheduler(metrics);
  EventDetector detector(metrics);
  FunctionRegistry functions;
  RuleManager manager(&scheduler, &detector, &functions);
  EventPtr event = PrimitiveEvent::Create("end Stock::SetPrice").value();
  int i = 0;
  for (auto _ : state) {
    RuleSpec spec;
    spec.name = std::string("r").append(std::to_string(i++));
    spec.event = event;
    auto rule = manager.CreateRule(spec);
    benchmark::DoNotOptimize(rule);
    manager.DeleteRule(spec.name).ok();
  }
}

void BM_SentinelEnableDisable(benchmark::State& state) {
  EventPtr event = PrimitiveEvent::Create("end Stock::SetPrice").value();
  Rule rule("r", event, nullptr, nullptr);
  for (auto _ : state) {
    rule.Disable();
    rule.Enable();
  }
}

void BM_SentinelSubscribeUnsubscribe(benchmark::State& state) {
  // Attaching an existing rule to an existing object at runtime — the
  // operation Ode cannot express without recompilation.
  EventPtr event = PrimitiveEvent::Create("end Stock::SetPrice").value();
  Rule rule("r", event, nullptr, nullptr);
  ReactiveObject stock("Stock", 1);
  for (auto _ : state) {
    stock.Subscribe(&rule).ok();
    stock.Unsubscribe(&rule).ok();
  }
}

/// Adding one rule to a class with N live instances under the compile-time
/// model: a recompile + extent revalidation, cost O(N).
void BM_OdeRecompileForRuleChange(benchmark::State& state) {
  const int instances = static_cast<int>(state.range(0));
  OdeEngine ode;
  ode.DefineClass("Stock").ok();
  for (int i = 0; i < instances; ++i) {
    ode.NewObject("Stock").value();
  }
  int generation = 0;
  for (auto _ : state) {
    OdeConstraint c;
    c.name = "gen-" + std::to_string(generation++);
    c.predicate = [](const OdeObject&) { return true; };
    auto revalidated = ode.RecompileClass("Stock", {c}, {});
    benchmark::DoNotOptimize(revalidated);
  }
  state.counters["instances"] = instances;
}

/// Sentinel equivalent of the same change: create the rule and subscribe
/// the N live instances — no revalidation of stored state.
void BM_SentinelRuleChangeWithInstances(benchmark::State& state) {
  const int instances = static_cast<int>(state.range(0));
  std::vector<ReactiveObject> objects;
  objects.reserve(static_cast<size_t>(instances));
  for (int i = 0; i < instances; ++i) {
    objects.emplace_back("Stock", static_cast<Oid>(i + 1));
  }
  EventPtr event = PrimitiveEvent::Create("end Stock::SetPrice").value();
  std::vector<std::unique_ptr<Rule>> keep;
  int generation = 0;
  for (auto _ : state) {
    auto rule = std::make_unique<Rule>("gen-" + std::to_string(generation++),
                                       event, nullptr, nullptr);
    for (ReactiveObject& obj : objects) {
      obj.Subscribe(rule.get()).ok();
    }
    // Tear down so the subscriber lists do not grow across iterations.
    for (ReactiveObject& obj : objects) {
      obj.Unsubscribe(rule.get()).ok();
    }
    keep.clear();
    keep.push_back(std::move(rule));
  }
  state.counters["instances"] = instances;
}

BENCHMARK(BM_SentinelCreateDeleteRule);
BENCHMARK(BM_SentinelEnableDisable);
BENCHMARK(BM_SentinelSubscribeUnsubscribe);
// Few iterations: each recompile permanently grows the constraint set, so
// unbounded iteration counts would measure a quadratic artifact.
BENCHMARK(BM_OdeRecompileForRuleChange)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Iterations(20);
BENCHMARK(BM_SentinelRuleChangeWithInstances)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000);

}  // namespace
}  // namespace sentinel

SENTINEL_BENCHMARK_MAIN();
