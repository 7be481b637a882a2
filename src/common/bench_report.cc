// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "common/bench_report.h"

#include <cstdio>

namespace sentinel {

std::string BenchReport::ToJson() const {
  std::string out = "{\"schema\":\"sentinel-bench-v1\",\"binary\":\"";
  AppendJsonEscaped(&out, binary_);
  out.append("\",\"results\":[");
  bool first = true;
  for (const BenchResult& r : results_) {
    if (!first) out.push_back(',');
    first = false;
    out.append("{\"name\":\"");
    AppendJsonEscaped(&out, r.name);
    out.append("\",\"iterations\":");
    out.append(std::to_string(r.iterations));
    out.append(",\"real_ns_per_iter\":");
    out.append(JsonNumber(r.real_ns_per_iter));
    out.append(",\"counters\":{");
    bool first_counter = true;
    for (const auto& [key, value] : r.counters) {
      if (!first_counter) out.push_back(',');
      first_counter = false;
      out.push_back('"');
      AppendJsonEscaped(&out, key);
      out.append("\":");
      out.append(JsonNumber(value));
    }
    out.append("}}");
  }
  out.append("]}");
  return out;
}

Status BenchReport::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("bench report: cannot open " + path);
  }
  const std::string body = ToJson();
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (written != body.size() || !flushed) {
    return Status::IOError("bench report: short write to " + path);
  }
  return Status::OK();
}

namespace {

Status RequireString(const JsonValue& doc, const std::string& key,
                     const std::string& where) {
  const JsonValue* v = doc.Find(key);
  if (v == nullptr || !v->IsString()) {
    return Status::InvalidArgument("bench json: " + where + " missing string '" +
                                   key + "'");
  }
  return Status::OK();
}

Status RequireNumber(const JsonValue& doc, const std::string& key,
                     const std::string& where) {
  const JsonValue* v = doc.Find(key);
  if (v == nullptr || !v->IsNumber()) {
    return Status::InvalidArgument("bench json: " + where + " missing number '" +
                                   key + "'");
  }
  return Status::OK();
}

}  // namespace

Status ValidateBenchReportJson(const JsonValue& doc) {
  if (!doc.IsObject()) {
    return Status::InvalidArgument("bench json: report is not an object");
  }
  SENTINEL_RETURN_IF_ERROR(RequireString(doc, "schema", "report"));
  if (doc.Find("schema")->string_value != "sentinel-bench-v1") {
    return Status::InvalidArgument("bench json: schema is not sentinel-bench-v1");
  }
  SENTINEL_RETURN_IF_ERROR(RequireString(doc, "binary", "report"));
  const JsonValue* results = doc.Find("results");
  if (results == nullptr || !results->IsArray()) {
    return Status::InvalidArgument("bench json: report missing 'results' array");
  }
  for (size_t i = 0; i < results->array.size(); ++i) {
    const JsonValue& r = results->array[i];
    const std::string where = "result #" + std::to_string(i);
    if (!r.IsObject()) {
      return Status::InvalidArgument("bench json: " + where +
                                     " is not an object");
    }
    SENTINEL_RETURN_IF_ERROR(RequireString(r, "name", where));
    SENTINEL_RETURN_IF_ERROR(RequireNumber(r, "iterations", where));
    SENTINEL_RETURN_IF_ERROR(RequireNumber(r, "real_ns_per_iter", where));
    const JsonValue* counters = r.Find("counters");
    if (counters == nullptr || !counters->IsObject()) {
      return Status::InvalidArgument("bench json: " + where +
                                     " missing 'counters' object");
    }
    for (const auto& [key, value] : counters->object) {
      if (!value.IsNumber()) {
        return Status::InvalidArgument("bench json: " + where + " counter '" +
                                       key + "' is not a number");
      }
    }
  }
  return Status::OK();
}

Status ValidateBenchSuiteJson(const JsonValue& doc) {
  if (!doc.IsObject()) {
    return Status::InvalidArgument("bench json: suite is not an object");
  }
  SENTINEL_RETURN_IF_ERROR(RequireString(doc, "schema", "suite"));
  if (doc.Find("schema")->string_value != "sentinel-bench-suite-v1") {
    return Status::InvalidArgument(
        "bench json: schema is not sentinel-bench-suite-v1");
  }
  const JsonValue* host = doc.Find("host");
  if (host == nullptr || !host->IsObject()) {
    return Status::InvalidArgument("bench json: suite missing 'host' object");
  }
  for (const char* key : {"nproc", "cpu_model", "affinity", "compiler",
                          "build_type", "sanitizer", "git_sha"}) {
    SENTINEL_RETURN_IF_ERROR(RequireString(*host, key, "host"));
  }
  const JsonValue* benches = doc.Find("benches");
  if (benches == nullptr || !benches->IsArray()) {
    return Status::InvalidArgument("bench json: suite missing 'benches' array");
  }
  for (const JsonValue& report : benches->array) {
    SENTINEL_RETURN_IF_ERROR(ValidateBenchReportJson(report));
  }
  return Status::OK();
}

Status ValidateBenchJsonText(const std::string& text) {
  SENTINEL_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(text));
  const JsonValue* schema = doc.Find("schema");
  if (schema != nullptr && schema->IsString() &&
      schema->string_value == "sentinel-bench-suite-v1") {
    return ValidateBenchSuiteJson(doc);
  }
  return ValidateBenchReportJson(doc);
}

}  // namespace sentinel
