// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "events/signature.h"

#include <cctype>

namespace sentinel {

namespace {

/// Strips leading/trailing whitespace.
std::string Trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// True for C++ identifier characters (plus '-', which the paper's listings
/// use in names like Set-Salary).
bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '-';
}

}  // namespace

const char* ToString(EventModifier modifier) {
  return modifier == EventModifier::kBegin ? "begin" : "end";
}

std::string EventKey(EventModifier modifier, const std::string& class_name,
                     const std::string& method) {
  std::string key;
  AppendEventKey(modifier, class_name, method, &key);
  return key;
}

void AppendEventKey(EventModifier modifier, const std::string& class_name,
                    const std::string& method, std::string* out) {
  out->reserve(out->size() + 6 + class_name.size() + 2 + method.size());
  *out += ToString(modifier);
  *out += ' ';
  *out += class_name;
  *out += "::";
  *out += method;
}

Result<EventSignature> EventSignature::Parse(const std::string& text) {
  std::string s = Trim(text);
  if (s.empty()) return Status::InvalidArgument("empty event signature");

  // Modifier word.
  size_t sp = s.find_first_of(" \t");
  if (sp == std::string::npos) {
    return Status::InvalidArgument("event signature needs a modifier: '" +
                                   text + "'");
  }
  std::string word = s.substr(0, sp);
  EventSignature sig;
  if (word == "begin" || word == "before" || word == "bom") {
    sig.modifier = EventModifier::kBegin;
  } else if (word == "end" || word == "after" || word == "eom") {
    sig.modifier = EventModifier::kEnd;
  } else {
    return Status::InvalidArgument("unknown event modifier '" + word + "'");
  }

  std::string rest = Trim(s.substr(sp));
  // Qualified name up to '(' or end.
  size_t paren = rest.find('(');
  std::string qual = Trim(paren == std::string::npos ? rest
                                                     : rest.substr(0, paren));
  size_t sep = qual.find("::");
  if (sep == std::string::npos || sep == 0 || sep + 2 >= qual.size()) {
    return Status::InvalidArgument(
        "event signature needs Class::Method, got '" + qual + "'");
  }
  sig.class_name = qual.substr(0, sep);
  sig.method = qual.substr(sep + 2);
  for (const std::string* part : {&sig.class_name, &sig.method}) {
    for (char c : *part) {
      if (!IsNameChar(c)) {
        return Status::InvalidArgument("bad character '" +
                                       std::string(1, c) +
                                       "' in event signature '" + text + "'");
      }
    }
  }

  // Optional "(params)".
  if (paren != std::string::npos) {
    std::string tail = Trim(rest.substr(paren));
    if (tail.back() != ')') {
      return Status::InvalidArgument("unterminated parameter list in '" +
                                     text + "'");
    }
    std::string inside = Trim(tail.substr(1, tail.size() - 2));
    size_t start = 0;
    while (start < inside.size()) {
      size_t comma = inside.find(',', start);
      std::string p = Trim(inside.substr(
          start, comma == std::string::npos ? std::string::npos
                                            : comma - start));
      if (!p.empty()) sig.params.push_back(p);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
  }
  return sig;
}

std::string EventSignature::ToString() const {
  std::string out = sentinel::ToString(modifier);
  out += ' ';
  out += class_name;
  out += "::";
  out += method;
  out += '(';
  for (size_t i = 0; i < params.size(); ++i) {
    if (i > 0) out += ", ";
    out += params[i];
  }
  out += ')';
  return out;
}

std::string EventSignature::Key() const {
  return EventKey(modifier, class_name, method);
}

}  // namespace sentinel
