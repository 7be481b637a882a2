// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Machine-readable benchmark output. Every bench binary supports
// `--json <path>` and writes one document with this schema:
//
//   {"schema": "sentinel-bench-v1",
//    "binary": "bench_event_detection",
//    "results": [{"name": "...", "iterations": N,
//                 "real_ns_per_iter": X, "counters": {"k": V, ...}}, ...]}
//
// bench/run_all.sh merges per-binary reports into a suite document
// ({"schema":"sentinel-bench-suite-v1","host":{...},"benches":[...]}) and
// validates it with the checkers below, so CI fails on malformed output
// rather than archiving garbage (the BENCH_*.json artifacts).

#ifndef SENTINEL_COMMON_BENCH_REPORT_H_
#define SENTINEL_COMMON_BENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace sentinel {

/// One timed benchmark case.
struct BenchResult {
  std::string name;
  int64_t iterations = 0;
  double real_ns_per_iter = 0.0;
  /// Auxiliary measurements (throughput, hit rates, queue depths, ...).
  std::map<std::string, double> counters;
};

/// Accumulates results for one binary and renders the v1 document.
class BenchReport {
 public:
  explicit BenchReport(std::string binary_name)
      : binary_(std::move(binary_name)) {}

  void Add(BenchResult result) { results_.push_back(std::move(result)); }
  bool empty() const { return results_.empty(); }

  std::string ToJson() const;

  /// Writes ToJson() to `path` (overwrite). Fails with IOError on fs errors.
  Status WriteFile(const std::string& path) const;

 private:
  std::string binary_;
  std::vector<BenchResult> results_;
};

/// Checks a parsed document against the per-binary schema above.
Status ValidateBenchReportJson(const JsonValue& doc);

/// Checks a parsed suite document: {"schema":"sentinel-bench-suite-v1",
/// "host":{<machine and build fingerprint strings>},"benches":[<per-binary
/// report>, ...]} with every element valid.
Status ValidateBenchSuiteJson(const JsonValue& doc);

/// Parses `text` and accepts either a per-binary report or a suite.
Status ValidateBenchJsonText(const std::string& text);

}  // namespace sentinel

#endif  // SENTINEL_COMMON_BENCH_REPORT_H_
