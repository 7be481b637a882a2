// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// One benchmark run: set up an in-process gateway for a workload, drive
// its seeded inputs through the public client API, check the outputs, and
// collect end-to-end (untraced) or per-layer (traced) metrics.

#ifndef SENTINEL_PERFBENCH_BENCH_H_
#define SENTINEL_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct RunOptions {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< Scratch directory for databases; must exist.
  /// CPU for the hot standby (its own, as if on another machine); -1 =
  /// the process's CPU.
  int side_cpu = -1;
};

struct RunOutput {
  bool correct = true;
  bool valid = true;       ///< Load-validity guard: the generator kept up.
  uint64_t attempted = 0;  ///< Raises attempted in measured rounds.
  uint64_t failed = 0;     ///< Non-OK/unacked raises + missing notifications.
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::map<std::string, double> metrics;
  std::vector<std::string> problems;  ///< Why `correct` or `valid` is false.
  std::string detail_json;            ///< Everything else, as one object.
};

RunOutput RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // SENTINEL_PERFBENCH_BENCH_H_
