// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// E7 — Event-management cost (paper §1, performance issue 3): "cost
// incurred for event detection (both primitive and complex) as the number
// of events can be very large in contrast to the relational case."
//
// Measures occurrence-routing + detection cost for primitive events, each
// operator kind, and operator trees of growing depth and fan-in.

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "events/operators.h"
#include "events/primitive_event.h"
#include "events/snoop_operators.h"

namespace sentinel {
namespace {

EventPtr Prim(const std::string& text) {
  return PrimitiveEvent::Create(text).value();
}

EventOccurrence Occ(const std::string& cls, const std::string& method) {
  EventOccurrence occ;
  occ.oid = 1;
  occ.class_name = cls;
  occ.method = method;
  occ.modifier = EventModifier::kEnd;
  occ.timestamp = Clock::Now();
  return occ;
}

/// Sink listener so signaled detections are consumed like a rule would.
class Sink : public EventListener {
 public:
  void OnEvent(Event*, const EventDetection&) override { ++count; }
  uint64_t count = 0;
};

void BM_PrimitiveDetection(benchmark::State& state) {
  EventPtr event = Prim("end A::M");
  Sink sink;
  event->AddListener(&sink);
  for (auto _ : state) {
    event->Notify(Occ("A", "M"));
  }
  state.counters["detections"] = static_cast<double>(sink.count);
}

void BM_PrimitiveNonMatching(benchmark::State& state) {
  // Routing cost when the occurrence matches nothing.
  EventPtr event = Prim("end A::M");
  Sink sink;
  event->AddListener(&sink);
  for (auto _ : state) {
    event->Notify(Occ("B", "X"));
  }
}

void BM_ConjunctionDetection(benchmark::State& state) {
  EventPtr event = And(Prim("end A::M"), Prim("end B::N"));
  Sink sink;
  event->AddListener(&sink);
  for (auto _ : state) {
    event->Notify(Occ("A", "M"));
    event->Notify(Occ("B", "N"));
  }
}

void BM_DisjunctionDetection(benchmark::State& state) {
  EventPtr event = Or(Prim("end A::M"), Prim("end B::N"));
  Sink sink;
  event->AddListener(&sink);
  for (auto _ : state) {
    event->Notify(Occ("A", "M"));
    event->Notify(Occ("B", "N"));
  }
}

void BM_SequenceDetection(benchmark::State& state) {
  EventPtr event = Seq(Prim("end A::M"), Prim("end B::N"));
  Sink sink;
  event->AddListener(&sink);
  for (auto _ : state) {
    event->Notify(Occ("A", "M"));
    event->Notify(Occ("B", "N"));
  }
}

/// Left-deep Seq chain of depth d over distinct primitives; one full pass
/// of d+1 occurrences produces one detection at the root.
void BM_OperatorTreeDepth(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  std::vector<std::string> classes;
  EventPtr tree = Prim("end C0::M");
  classes.push_back("C0");
  for (int i = 1; i <= depth; ++i) {
    std::string cls = std::string("C").append(std::to_string(i));
    tree = Seq(tree, Prim("end " + cls + "::M"));
    classes.push_back(cls);
  }
  Sink sink;
  tree->AddListener(&sink);
  for (auto _ : state) {
    for (const std::string& cls : classes) {
      tree->Notify(Occ(cls, "M"));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(classes.size()));
  state.counters["depth"] = depth;
  state.counters["detections"] = static_cast<double>(sink.count);
}

/// Any(n, e1..en): fan-in sweep; one pass of n occurrences -> one detection.
void BM_OperatorFanIn(benchmark::State& state) {
  const int fan = static_cast<int>(state.range(0));
  std::vector<EventPtr> children;
  std::vector<std::string> classes;
  for (int i = 0; i < fan; ++i) {
    std::string cls = std::string("C").append(std::to_string(i));
    children.push_back(Prim("end " + cls + "::M"));
    classes.push_back(cls);
  }
  EventPtr tree = Any(static_cast<size_t>(fan), children);
  Sink sink;
  tree->AddListener(&sink);
  for (auto _ : state) {
    for (const std::string& cls : classes) {
      tree->Notify(Occ(cls, "M"));
    }
  }
  state.SetItemsProcessed(state.iterations() * fan);
  state.counters["fan_in"] = fan;
}

/// Cost of partial-detection buildup: feed only initiators, never complete.
void BM_PendingBufferGrowth(benchmark::State& state) {
  const int context_tag = static_cast<int>(state.range(0));
  EventPtr event = Seq(Prim("end A::M"), Prim("end B::N"),
                       static_cast<ParameterContext>(context_tag));
  for (auto _ : state) {
    event->Notify(Occ("A", "M"));
  }
  state.SetLabel(ToString(static_cast<ParameterContext>(context_tag)));
}

BENCHMARK(BM_PrimitiveDetection);
BENCHMARK(BM_PrimitiveNonMatching);
BENCHMARK(BM_ConjunctionDetection);
BENCHMARK(BM_DisjunctionDetection);
BENCHMARK(BM_SequenceDetection);
BENCHMARK(BM_OperatorTreeDepth)->Arg(1)->Arg(2)->Arg(4)->Arg(8);
BENCHMARK(BM_OperatorFanIn)->Arg(2)->Arg(4)->Arg(8)->Arg(16);
BENCHMARK(BM_PendingBufferGrowth)
    ->Arg(0)  // recent: O(1) buffer.
    ->Arg(1)  // chronicle: buffer grows with pending initiators.
    ->Iterations(100000);

}  // namespace
}  // namespace sentinel

SENTINEL_BENCHMARK_MAIN();
