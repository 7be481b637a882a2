// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "util.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t user, nice, system, idle, iowait, irq, softirq, steal = 0;
  in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  if (!in || cpu != "cpu") return 0;
  return static_cast<double>(steal) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6g", i > 0 ? "," : "", values[i]);
    out += buf;
  }
  return out + "]";
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ",";
  body_ += '"';
  body_ += JsonEscape(key);
  body_ += "\":";
}

JsonObject& JsonObject::Num(const std::string& key, double v) {
  Key(key);
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t v) {
  Key(key);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& v) {
  Key(key);
  body_ += '"';
  body_ += JsonEscape(v);
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool v) {
  Key(key);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

}  // namespace perfbench
