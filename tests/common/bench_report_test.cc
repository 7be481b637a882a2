// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "common/bench_report.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace sentinel {
namespace {

BenchReport MakeReport() {
  BenchReport report("bench_unit");
  BenchResult r;
  r.name = "case/one";
  r.iterations = 100;
  r.real_ns_per_iter = 12.5;
  r.counters["events_per_sec"] = 8e7;
  report.Add(r);
  return report;
}

/// A suite's head up to its benches: the schema and a host fingerprint.
const std::string kSuiteHead =
    R"({"schema":"sentinel-bench-suite-v1",)"
    R"("host":{"nproc":"4","cpu_model":"Xeon","affinity":"0-3",)"
    R"("compiler":"g++ 12.2.0","build_type":"RelWithDebInfo",)"
    R"("sanitizer":"none","git_sha":"7d68a8b"})";

TEST(BenchReportTest, ToJsonMatchesSchema) {
  std::string json = MakeReport().ToJson();
  EXPECT_TRUE(ValidateBenchJsonText(json).ok());

  auto doc = JsonValue::Parse(json);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Find("schema")->string_value, "sentinel-bench-v1");
  EXPECT_EQ(doc->Find("binary")->string_value, "bench_unit");
  const JsonValue* results = doc->Find("results");
  ASSERT_TRUE(results->IsArray());
  ASSERT_EQ(results->array.size(), 1u);
  const JsonValue& result = results->array[0];
  EXPECT_EQ(result.Find("name")->string_value, "case/one");
  EXPECT_EQ(result.Find("iterations")->number_value, 100.0);
  EXPECT_EQ(result.Find("real_ns_per_iter")->number_value, 12.5);
  EXPECT_EQ(result.Find("counters")->Find("events_per_sec")->number_value,
            8e7);
}

TEST(BenchReportTest, EmptyReportIsStillValid) {
  BenchReport report("bench_empty");
  EXPECT_TRUE(report.empty());
  EXPECT_TRUE(ValidateBenchJsonText(report.ToJson()).ok());
}

TEST(BenchReportTest, WriteFileRoundTrips) {
  auto path = std::filesystem::temp_directory_path() / "bench_report_ut.json";
  std::filesystem::remove(path);
  ASSERT_TRUE(MakeReport().WriteFile(path.string()).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(ValidateBenchJsonText(buffer.str()).ok());
  std::filesystem::remove(path);
}

TEST(BenchReportTest, WriteFileFailsOnUnwritablePath) {
  EXPECT_FALSE(
      MakeReport().WriteFile("/nonexistent-dir/report.json").ok());
}

TEST(BenchReportValidateTest, AcceptsSuiteOfReports) {
  std::string suite = kSuiteHead + R"(,"benches":[)" +
                      MakeReport().ToJson() + "," +
                      BenchReport("other").ToJson() + "]}";
  EXPECT_TRUE(ValidateBenchJsonText(suite).ok());
}

TEST(BenchReportValidateTest, RejectsMalformedDocuments) {
  const std::string bad[] = {
      "not json at all",
      R"({"schema":"wrong-schema","binary":"b","results":[]})",
      R"({"binary":"b","results":[]})",
      R"({"schema":"sentinel-bench-v1","results":[]})",
      R"({"schema":"sentinel-bench-v1","binary":"b"})",
      R"({"schema":"sentinel-bench-v1","binary":"b","results":{}})",
      R"({"schema":"sentinel-bench-v1","binary":"b",
          "results":[{"iterations":1,"real_ns_per_iter":1,"counters":{}}]})",
      R"({"schema":"sentinel-bench-v1","binary":"b",
          "results":[{"name":"x","real_ns_per_iter":1,"counters":{}}]})",
      R"({"schema":"sentinel-bench-v1","binary":"b",
          "results":[{"name":"x","iterations":1,"counters":{}}]})",
      R"({"schema":"sentinel-bench-v1","binary":"b",
          "results":[{"name":"x","iterations":1,"real_ns_per_iter":1,
                      "counters":{"k":"not-a-number"}}]})",
      kSuiteHead + R"(,"benches":{}})",
      kSuiteHead + "}",
      kSuiteHead + R"(,"benches":[{"schema":"bad"}]})",
  };
  for (const std::string& text : bad) {
    EXPECT_FALSE(ValidateBenchJsonText(text).ok()) << text;
  }
}

}  // namespace
}  // namespace sentinel
