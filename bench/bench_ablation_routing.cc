// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Ablation — occurrence routing inside event graphs.
//
// DESIGN.md calls out the choice of how Event::Notify finds the primitive
// leaves an occurrence can match:
//   * kScan    — walk the operator tree on every delivery (the naive
//                strategy, what a direct reading of the paper suggests),
//   * kIndexed — per-root (modifier, method) -> leaves index, rebuilt
//                lazily when graphs change (the default).
//
// The ablation quantifies the difference on wide disjunctions (the E9
// shared-rule workload) and on small graphs where the index cannot help.

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "core/reactive.h"
#include "events/operators.h"
#include "events/primitive_event.h"
#include "events/snoop_operators.h"
#include "rules/rule.h"

namespace sentinel {
namespace {

EventPtr Prim(const std::string& text) {
  return PrimitiveEvent::Create(text).value();
}

/// A k-wide disjunction over k distinct classes, subscribed to k objects —
/// the E9 shared-rule scenario.
void RunSharedRuleWorkload(benchmark::State& state, EventRouting routing) {
  const int k = static_cast<int>(state.range(0));
  Event::SetRouting(routing);
  EventPtr tree = Prim("end C0::Update");
  for (int i = 1; i < k; ++i) {
    tree = Or(tree, Prim("end C" + std::to_string(i) + "::Update"));
  }
  int64_t fired = 0;
  Rule rule("shared", tree, nullptr, [&fired](RuleContext&) {
    ++fired;
    return Status::OK();
  });
  std::vector<ReactiveObject> objects;
  objects.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    objects.emplace_back(std::string("C").append(std::to_string(i)),
                         static_cast<Oid>(i + 1));
    objects.back().Subscribe(&rule).ok();
  }
  for (auto _ : state) {
    for (ReactiveObject& obj : objects) {
      obj.RaiseEvent("Update", EventModifier::kEnd, {Value(1.0)});
    }
  }
  state.SetItemsProcessed(state.iterations() * k);
  state.counters["classes"] = k;
  Event::SetRouting(EventRouting::kIndexed);  // Restore the default.
}

void BM_SharedRuleScan(benchmark::State& state) {
  RunSharedRuleWorkload(state, EventRouting::kScan);
}

void BM_SharedRuleIndexed(benchmark::State& state) {
  RunSharedRuleWorkload(state, EventRouting::kIndexed);
}

/// Tiny graph: a single primitive. Measures the index's fixed overhead.
void RunTinyGraphWorkload(benchmark::State& state, EventRouting routing) {
  Event::SetRouting(routing);
  EventPtr event = Prim("end A::M");
  int64_t fired = 0;
  Rule rule("tiny", event, nullptr, [&fired](RuleContext&) {
    ++fired;
    return Status::OK();
  });
  ReactiveObject obj("A", 1);
  obj.Subscribe(&rule).ok();
  for (auto _ : state) {
    obj.RaiseEvent("M", EventModifier::kEnd, {});
  }
  Event::SetRouting(EventRouting::kIndexed);
}

void BM_TinyGraphScan(benchmark::State& state) {
  RunTinyGraphWorkload(state, EventRouting::kScan);
}

void BM_TinyGraphIndexed(benchmark::State& state) {
  RunTinyGraphWorkload(state, EventRouting::kIndexed);
}

/// Non-matching events against a wide graph: the case the index wins most.
void RunNonMatchingWorkload(benchmark::State& state, EventRouting routing) {
  const int k = static_cast<int>(state.range(0));
  Event::SetRouting(routing);
  std::vector<EventPtr> children;
  for (int i = 0; i < k; ++i) {
    children.push_back(Prim("end C" + std::to_string(i) + "::Update"));
  }
  EventPtr tree = Any(static_cast<size_t>(k), children);
  Rule rule("wide", tree, nullptr, nullptr);
  ReactiveObject noisy("Other", 1);
  noisy.Subscribe(&rule).ok();
  for (auto _ : state) {
    noisy.RaiseEvent("Unrelated", EventModifier::kEnd, {});
  }
  state.counters["leaves"] = k;
  Event::SetRouting(EventRouting::kIndexed);
}

void BM_NonMatchingScan(benchmark::State& state) {
  RunNonMatchingWorkload(state, EventRouting::kScan);
}

void BM_NonMatchingIndexed(benchmark::State& state) {
  RunNonMatchingWorkload(state, EventRouting::kIndexed);
}

BENCHMARK(BM_SharedRuleScan)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_SharedRuleIndexed)->Arg(4)->Arg(16)->Arg(64);
BENCHMARK(BM_TinyGraphScan);
BENCHMARK(BM_TinyGraphIndexed);
BENCHMARK(BM_NonMatchingScan)->Arg(16)->Arg(256);
BENCHMARK(BM_NonMatchingIndexed)->Arg(16)->Arg(256);

}  // namespace
}  // namespace sentinel

SENTINEL_BENCHMARK_MAIN();
