// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// E18 — Metrics primitive cost and raise-path overhead.
//
// The instrumentation budget (DESIGN.md §10) is "a handful of relaxed
// atomic ops per recorded event, ≤5% on the raise path". This bench pins
// both halves: the primitives in isolation (counter add, histogram record,
// registry snapshot) and a full Database raise loop. Metrics are always
// compiled in, so a change to the instrumentation is judged by running
// BM_RaisePath on the parent commit and on the change, alternately and
// pinned to one CPU, and comparing the medians (EXPERIMENTS.md E18 holds
// the numbers).

#include <benchmark/benchmark.h>

#include "bench_main.h"

#include <filesystem>

#include "common/metrics.h"
#include "core/database.h"

namespace sentinel {
namespace {

void BM_CounterAdd(benchmark::State& state) {
  MetricsRegistry registry;
  Counter* counter = registry.counter("bench.counter");
  for (auto _ : state) {
    counter->Add();
  }
  benchmark::DoNotOptimize(counter->Value());
}

void BM_CounterAddThreaded(benchmark::State& state) {
  static MetricsRegistry* registry = new MetricsRegistry();
  Counter* counter = registry->counter("bench.counter.mt");
  for (auto _ : state) {
    counter->Add();
  }
}

void BM_GaugeSet(benchmark::State& state) {
  MetricsRegistry registry;
  Gauge* gauge = registry.gauge("bench.gauge");
  int64_t v = 0;
  for (auto _ : state) {
    gauge->Set(++v);
  }
}

void BM_HistogramRecord(benchmark::State& state) {
  MetricsRegistry registry;
  Histogram* histogram = registry.histogram("bench.histogram");
  int64_t v = 0;
  for (auto _ : state) {
    histogram->Record(++v & 0xFFFFF);
  }
}

void BM_RegistrySnapshot(benchmark::State& state) {
  const int histograms = static_cast<int>(state.range(0));
  MetricsRegistry registry;
  for (int i = 0; i < histograms; ++i) {
    Histogram* h = registry.histogram("bench.h" + std::to_string(i));
    for (int64_t v = 1; v < 4096; v <<= 1) h->Record(v);
  }
  for (auto _ : state) {
    MetricsSnapshot snapshot = registry.Snapshot();
    benchmark::DoNotOptimize(snapshot);
  }
  state.counters["histograms"] = histograms;
}

/// The overhead yardstick: in-process raises through WithTransaction, the
/// floor under every gateway number in bench_gateway. Compare it between a
/// change and its parent commit to see what new instrumentation costs.
void BM_RaisePath(benchmark::State& state) {
  auto dir =
      std::filesystem::temp_directory_path() / "sentinel_bench_metrics";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    auto db = std::move(Database::Open({.dir = dir.string()})).value();
    db->RegisterClass(ClassBuilder("Sensor")
                          .Reactive()
                          .Method("Report", {.end = true})
                          .Build())
        .ok();
    ReactiveObject sensor("Sensor");
    db->RegisterLiveObject(&sensor).ok();
    double v = 0;
    for (auto _ : state) {
      db->WithTransaction([&](Transaction*) {
        sensor.RaiseEvent("Report", EventModifier::kEnd, {Value(v)});
        return Status::OK();
      }).ok();
      v += 1.0;
    }
    db->UnregisterLiveObject(&sensor).ok();
    db->Close().ok();
  }
  std::filesystem::remove_all(dir);
}

BENCHMARK(BM_CounterAdd);
BENCHMARK(BM_CounterAddThreaded)->Threads(4);
BENCHMARK(BM_GaugeSet);
BENCHMARK(BM_HistogramRecord);
BENCHMARK(BM_RegistrySnapshot)->Arg(1)->Arg(16);
BENCHMARK(BM_RaisePath);

}  // namespace
}  // namespace sentinel

SENTINEL_BENCHMARK_MAIN();
