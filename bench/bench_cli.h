// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// The one flag parser of every bench binary (the google-benchmark ones
// through bench_main.h), so every bench in bench/ understands the same two
// flags:
//
//   --json <path>   write a sentinel-bench-v1 report after the run
//   --quick         shrink iteration counts for CI / test smoke runs
//
// Anything else stays in `positional` for the bench's own arguments.

#ifndef SENTINEL_BENCH_BENCH_CLI_H_
#define SENTINEL_BENCH_BENCH_CLI_H_

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/bench_report.h"

namespace sentinel {
namespace bench_main {

struct BenchCli {
  std::string json_path;  ///< Empty = no JSON output requested.
  bool quick = false;
  std::vector<std::string> positional;

  static BenchCli Parse(int argc, char** argv) {
    BenchCli cli;
    for (int i = 1; i < argc; ++i) {
      std::string_view arg = argv[i];
      if (arg == "--json" && i + 1 < argc) {
        cli.json_path = argv[++i];
      } else if (arg == "--quick") {
        cli.quick = true;
      } else {
        cli.positional.emplace_back(arg);
      }
    }
    return cli;
  }

  /// Writes `report` to json_path if one was given. Returns the bench's
  /// exit code: 0, or 1 when the write failed.
  int WriteReport(const BenchReport& report) const {
    if (json_path.empty()) return 0;
    Status s = report.WriteFile(json_path);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    return 0;
  }
};

}  // namespace bench_main
}  // namespace sentinel

#endif  // SENTINEL_BENCH_BENCH_CLI_H_
