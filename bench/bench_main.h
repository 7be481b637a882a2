// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Shared main() for the google-benchmark-based bench binaries, replacing
// BENCHMARK_MAIN() to add the two flags every Sentinel bench understands
// (bench_cli.h): --json <path> writes the results as a sentinel-bench-v1
// document (common/bench_report.h) after the normal console run, and
// --quick caps measuring time per case (tiny --benchmark_min_time) so CI
// and tests can smoke-run the suite in seconds. Every other argument goes
// to benchmark::Initialize, so every stock google-benchmark flag still
// works unchanged.

#ifndef SENTINEL_BENCH_BENCH_MAIN_H_
#define SENTINEL_BENCH_BENCH_MAIN_H_

#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "bench_cli.h"
#include "common/bench_report.h"

namespace sentinel {
namespace bench_main {

/// Console reporter that additionally captures per-iteration runs (skipping
/// aggregates and errored cases) for the JSON report.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      BenchResult result;
      result.name = run.benchmark_name();
      result.iterations = static_cast<int64_t>(run.iterations);
      if (run.iterations > 0) {
        result.real_ns_per_iter = run.real_accumulated_time /
                                  static_cast<double>(run.iterations) * 1e9;
      }
      for (const auto& [key, counter] : run.counters) {
        result.counters[key] = counter.value;
      }
      results_.push_back(std::move(result));
    }
  }

  const std::vector<BenchResult>& results() const { return results_; }

 private:
  std::vector<BenchResult> results_;
};

inline std::string BinaryBaseName(const char* argv0) {
  std::string_view name = argv0;
  size_t slash = name.find_last_of('/');
  if (slash != std::string_view::npos) name.remove_prefix(slash + 1);
  return std::string(name);
}

inline int BenchmarkMain(int argc, char** argv) {
  BenchCli cli = BenchCli::Parse(argc, argv);
  std::vector<char*> args = {argv[0]};
  // benchmark 1.7 takes min_time as plain seconds (no unit suffix).
  static char quick_min_time[] = "--benchmark_min_time=0.001";
  if (cli.quick) args.push_back(quick_min_time);
  for (std::string& arg : cli.positional) args.push_back(arg.data());

  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  BenchReport report(BinaryBaseName(argv[0]));
  for (const BenchResult& result : reporter.results()) report.Add(result);
  return cli.WriteReport(report);
}

}  // namespace bench_main
}  // namespace sentinel

/// Drop-in replacement for BENCHMARK_MAIN() with --json/--quick support.
#define SENTINEL_BENCHMARK_MAIN()                         \
  int main(int argc, char** argv) {                       \
    return sentinel::bench_main::BenchmarkMain(argc, argv); \
  }

#endif  // SENTINEL_BENCH_BENCH_MAIN_H_
