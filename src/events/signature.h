// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Event signatures: the textual names of primitive events.
//
// The paper creates primitive event objects from strings such as
//
//   new Primitive("end Employee::Set-Salary(float x)")     (§4.6)
//
// where the modifier says *when* the event is raised relative to the method
// (begin-of-method vs end-of-method, §4.3 "bom"/"eom"; the prose also uses
// "before"/"after", which we accept as synonyms) and the qualified name says
// *which* method raises it. Parameter declarations are informational — event
// matching is by (modifier, class, method).

#ifndef SENTINEL_EVENTS_SIGNATURE_H_
#define SENTINEL_EVENTS_SIGNATURE_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace sentinel {

/// When a primitive event fires relative to its method.
enum class EventModifier : uint8_t {
  kBegin = 0,  ///< bom — before the method body executes.
  kEnd = 1,    ///< eom — after the method body returns.
};

/// Renders "begin" or "end".
const char* ToString(EventModifier modifier);

/// Parsed form of "end Employee::SetSalary(float x)".
struct EventSignature {
  EventModifier modifier = EventModifier::kEnd;
  std::string class_name;
  std::string method;
  /// Declared formal parameters, verbatim (e.g. {"float x"}). Informational.
  std::vector<std::string> params;

  /// Parses a signature string. Accepted modifiers: "begin", "before",
  /// "bom" (begin) and "end", "after", "eom" (end). The parameter list is
  /// optional. Errors: InvalidArgument with a description.
  static Result<EventSignature> Parse(const std::string& text);

  /// Canonical text: "end Employee::SetSalary(float x)".
  std::string ToString() const;

  /// Matching key: "end Employee::SetSalary" (parameters excluded).
  std::string Key() const;

  bool operator==(const EventSignature& o) const {
    return modifier == o.modifier && class_name == o.class_name &&
           method == o.method;
  }
};

/// Builds a matching key from components (used by occurrence dispatch).
std::string EventKey(EventModifier modifier, const std::string& class_name,
                     const std::string& method);

/// Appends the same key to `*out`, so a caller on the raise path can reuse
/// one buffer instead of allocating a key per occurrence.
void AppendEventKey(EventModifier modifier, const std::string& class_name,
                    const std::string& method, std::string* out);

}  // namespace sentinel

#endif  // SENTINEL_EVENTS_SIGNATURE_H_
