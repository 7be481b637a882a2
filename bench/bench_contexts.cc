// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// E14 — Parameter-context cost (extension beyond the paper; the operators'
// pairing policy is the Snoop follow-on work). Measures composite detection
// throughput per context under two workloads: balanced (initiator and
// terminator alternate) and skewed (a burst of B initiators before each
// terminator — where the contexts genuinely differ in buffer behaviour and
// detections produced).

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include "events/operators.h"
#include "events/primitive_event.h"

namespace sentinel {
namespace {

EventPtr Prim(const std::string& text) {
  return PrimitiveEvent::Create(text).value();
}

EventOccurrence Occ(const std::string& cls) {
  EventOccurrence occ;
  occ.oid = 1;
  occ.class_name = cls;
  // Move-assigned: g++ 12 at -O3 misreports `= "M"` here as -Wrestrict.
  occ.method = std::string("M");
  occ.modifier = EventModifier::kEnd;
  occ.timestamp = Clock::Now();
  return occ;
}

class Sink : public EventListener {
 public:
  void OnEvent(Event*, const EventDetection&) override { ++count; }
  uint64_t count = 0;
};

void BM_SequenceBalanced(benchmark::State& state) {
  auto ctx = static_cast<ParameterContext>(state.range(0));
  EventPtr seq = Seq(Prim("end A::M"), Prim("end B::M"), ctx);
  Sink sink;
  seq->AddListener(&sink);
  for (auto _ : state) {
    seq->Notify(Occ("A"));
    seq->Notify(Occ("B"));
  }
  state.SetLabel(ToString(ctx));
  state.counters["detections_per_pair"] = benchmark::Counter(
      static_cast<double>(sink.count) /
      static_cast<double>(state.iterations()));
}

void BM_SequenceSkewed(benchmark::State& state) {
  auto ctx = static_cast<ParameterContext>(state.range(0));
  const int burst = static_cast<int>(state.range(1));
  EventPtr seq = Seq(Prim("end A::M"), Prim("end B::M"), ctx);
  Sink sink;
  seq->AddListener(&sink);
  for (auto _ : state) {
    for (int i = 0; i < burst; ++i) seq->Notify(Occ("A"));
    seq->Notify(Occ("B"));
    // Chronicle would otherwise accumulate across iterations (B consumes
    // only one initiator per terminator); reset keeps iterations uniform.
    if (ctx == ParameterContext::kChronicle) seq->ResetState();
  }
  state.SetLabel(std::string(ToString(ctx)) + "/burst=" +
                 std::to_string(burst));
  state.SetItemsProcessed(state.iterations() * (burst + 1));
  state.counters["detections"] = static_cast<double>(sink.count);
}

BENCHMARK(BM_SequenceBalanced)->Arg(0)->Arg(1)->Arg(2)->Arg(3);
BENCHMARK(BM_SequenceSkewed)
    ->Args({0, 16})   // recent
    ->Args({1, 16})   // chronicle
    ->Args({2, 16})   // continuous
    ->Args({3, 16})   // cumulative
    ->Args({2, 128})  // continuous, large burst
    ->Args({3, 128});  // cumulative, large burst

}  // namespace
}  // namespace sentinel

SENTINEL_BENCHMARK_MAIN();
