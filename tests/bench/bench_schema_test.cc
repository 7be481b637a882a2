// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Runs a real bench binary in --quick --json mode at tiny iteration counts
// and validates the emitted document against the sentinel-bench-v1 schema —
// the same gate bench/run_all.sh and CI apply, exercised from ctest so a
// schema regression fails the tier-1 suite, not just the nightly bench job.
//
// SENTINEL_BENCH_METRICS_BIN is injected by CMake as the absolute path of
// the bench_metrics binary.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/bench_report.h"
#include "test_util.h"

namespace sentinel {
namespace {

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A suite's host fingerprint, as run_all.sh writes it.
const char kHost[] =
    "\"host\":{\"nproc\":\"4\",\"cpu_model\":\"Xeon\",\"affinity\":\"0-3\","
    "\"compiler\":\"g++ 12.2.0\",\"build_type\":\"RelWithDebInfo\","
    "\"sanitizer\":\"none\",\"git_sha\":\"7d68a8b\"}";

/// Runs `cmd` through the shell, discarding its output. Returns exit code.
int RunCmd(const std::string& cmd) {
  int rc = std::system((cmd + " > /dev/null 2>&1").c_str());
  return rc < 0 ? rc : WEXITSTATUS(rc);
}

TEST(BenchSchemaTest, QuickJsonRunEmitsValidReport) {
  testing_util::TempDir dir("bench_schema");
  const std::string out = dir.path() + "/report.json";
  // One tiny case keeps the test fast; --quick caps measuring time.
  const std::string cmd = std::string(SENTINEL_BENCH_METRICS_BIN) +
                          " --quick --json '" + out +
                          "' --benchmark_filter='BM_CounterAdd$'";
  ASSERT_EQ(RunCmd(cmd), 0) << cmd;

  const std::string text = ReadFileOrEmpty(out);
  ASSERT_FALSE(text.empty());
  Status valid = ValidateBenchJsonText(text);
  EXPECT_TRUE(valid.ok()) << valid.ToString() << "\n" << text;

  auto doc = JsonValue::Parse(text);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("binary")->string_value, "bench_metrics");
  const JsonValue* results = doc->Find("results");
  ASSERT_TRUE(results->IsArray());
  ASSERT_FALSE(results->array.empty());
  EXPECT_EQ(results->array[0].Find("name")->string_value, "BM_CounterAdd");
  EXPECT_GT(results->array[0].Find("iterations")->number_value, 0.0);
}

TEST(BenchSchemaTest, SuiteMergeOfReportsValidates) {
  testing_util::TempDir dir("bench_schema_suite");
  const std::string out = dir.path() + "/report.json";
  const std::string cmd = std::string(SENTINEL_BENCH_METRICS_BIN) +
                          " --quick --json '" + out +
                          "' --benchmark_filter='BM_GaugeSet'";
  ASSERT_EQ(RunCmd(cmd), 0) << cmd;
  const std::string report = ReadFileOrEmpty(out);
  ASSERT_FALSE(report.empty());

  // The exact merge run_all.sh performs.
  const std::string suite =
      std::string("{\"schema\":\"sentinel-bench-suite-v1\",") + kHost +
      ",\"benches\":[" + report + "," + report + "]}";
  Status valid = ValidateBenchJsonText(suite);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

TEST(BenchSchemaTest, SuiteWithoutHostFailsValidation) {
  const std::string benches = "\"benches\":[]";
  const std::string schema = "{\"schema\":\"sentinel-bench-suite-v1\",";
  EXPECT_FALSE(ValidateBenchJsonText(schema + benches + "}").ok());
  EXPECT_FALSE(
      ValidateBenchJsonText(schema + "\"host\":\"x\"," + benches + "}").ok());
  EXPECT_FALSE(
      ValidateBenchJsonText(schema + "\"host\":{}," + benches + "}").ok());
  std::string numeric_nproc = kHost;
  numeric_nproc.replace(numeric_nproc.find("\"4\""), 3, "4");
  EXPECT_FALSE(
      ValidateBenchJsonText(schema + numeric_nproc + "," + benches + "}").ok());
}

TEST(BenchSchemaTest, SuiteWithHostPassesValidation) {
  const std::string suite =
      std::string("{\"schema\":\"sentinel-bench-suite-v1\",") + kHost +
      ",\"benches\":[]}";
  Status valid = ValidateBenchJsonText(suite);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

TEST(BenchSchemaTest, UnwritableJsonPathFailsTheRun) {
  const std::string cmd = std::string(SENTINEL_BENCH_METRICS_BIN) +
                          " --quick --json /nonexistent-dir/out.json"
                          " --benchmark_filter='BM_CounterAdd$'";
  EXPECT_NE(RunCmd(cmd), 0);
}

}  // namespace
}  // namespace sentinel
