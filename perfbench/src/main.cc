// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// sentinel_perfbench --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --work-dir <dir>
//                    [--git-sha <sha>] [--source-digest <hex>]
//
// The process pins itself to the last CPU of its affinity mask before
// starting anything: on a shared virtual machine, cross-vCPU wakeups made
// run-to-run spreads of 10x, and CPU 0 takes most of the guest's timer and
// scheduler interrupts (README.md, "CPU pinning"). A workload's hot
// standby runs on the CPU before it.
//
// Runs one workload and prints two JSON lines: a detail record (host
// fingerprint, seed, input digest, per-round figures, load shape,
// problems), then the result {"correct", "attempted", "failed", "values"}.
// perfbench/run.py builds this binary and turns the result into the
// benchmark's output line.

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.h"
#include "util.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The calling thread's affinity mask as a CPU list, e.g. "0,1,2,3".
std::string AffinityList() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) {
      if (!out.empty()) out += ",";
      out += std::to_string(cpu);
    }
  }
  return out;
}

/// Restricts the process (every thread it starts from here on inherits
/// the mask) to the last CPU of its current affinity mask; sets `*side` to
/// the one before it (-1 when there is none).
bool PinToLastCpu(int* side) {
  cpu_set_t set, pinned;
  CPU_ZERO(&set);
  CPU_ZERO(&pinned);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return false;
  int last = -1;
  *side = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) {
      *side = last;
      last = cpu;
    }
  }
  if (last < 0) return false;
  CPU_SET(last, &pinned);
  return sched_setaffinity(0, sizeof(pinned), &pinned) == 0;
}

std::string Sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

int PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--git-sha <sha>] "
               "[--source-digest <hex>]\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  RunOptions options;
  std::string workload, git_sha = "unknown", source_digest = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--work-dir") {
      options.work_dir = value;
    } else if (key == "--git-sha") {
      git_sha = value;
    } else if (key == "--source-digest") {
      source_digest = value;
    } else {
      return PrintUsage(argv[0]);
    }
  }
  options.spec = FindWorkload(workload);
  if (options.spec == nullptr || options.work_dir.empty() ||
      options.seconds <= 0) {
    return PrintUsage(argv[0]);
  }

  // Before any thread exists, so the gateway's threads inherit the mask.
  const std::string affinity = AffinityList();
  if (!PinToLastCpu(&options.side_cpu)) {
    std::fprintf(stderr, "cannot pin to a CPU\n");
    return 1;
  }
  const std::string pinned = AffinityList();

  RunOutput out = RunWorkload(options);

  JsonObject fingerprint;
  fingerprint.Int("nproc", sysconf(_SC_NPROCESSORS_ONLN))
      .Str("cpu_model", CpuModel())
      .Str("affinity", affinity)
      .Str("pinned_to", pinned)
      .Int("standby_cpu", options.side_cpu)
      .Str("compiler", std::string("g++ ") + __VERSION__)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("sanitizer", Sanitizer())
      .Str("git_sha", git_sha)
      .Str("source_digest", source_digest);
  std::string problems = "[";
  for (size_t i = 0; i < out.problems.size(); ++i) {
    if (i > 0) problems += ",";
    problems += '"';
    problems += JsonEscape(out.problems[i]);
    problems += '"';
  }
  problems += "]";
  JsonObject detail;
  detail.Str("workload", workload)
      .Int("seed", static_cast<int64_t>(options.seed))
      .Num("seconds", options.seconds)
      .Bool("trace", options.trace)
      .Raw("fingerprint", fingerprint.Render())
      .Bool("valid", out.valid)
      .Raw("problems", problems)
      .Raw("run", out.detail_json);
  std::printf("%s\n", detail.Render().c_str());

  JsonObject values;
  for (const auto& [name, value] : out.metrics) values.Num(name, value);
  JsonObject result;
  result.Bool("correct", out.correct)
      .Int("attempted", static_cast<int64_t>(out.attempted))
      .Int("failed", static_cast<int64_t>(out.failed))
      .Raw("values", values.Render());
  std::printf("%s\n", result.Render().c_str());
  std::fflush(stdout);
  return 0;
}
