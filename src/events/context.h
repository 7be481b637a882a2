// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Parameter contexts for composite-event detection.
//
// When a composite event can be completed by more than one buffered
// constituent, a *parameter context* decides which constituent(s) pair with
// the terminating occurrence. The paper's follow-on work (Snoop, the event
// language the Sentinel project published next) defines four contexts; we
// implement them as the configurable pairing policy of every binary
// operator. The paper's own examples behave identically under the default
// (Chronicle) because they never buffer more than one pending constituent.
//
//   Recent     — only the most recent initiator is kept; it is reused by
//                subsequent terminators until displaced.
//   Chronicle  — initiators pair in arrival (FIFO) order and are consumed.
//   Continuous — every initiator opens a window; one terminator closes all
//                open windows, producing one detection per initiator.
//   Cumulative — all pending initiators are merged into a single detection.

#ifndef SENTINEL_EVENTS_CONTEXT_H_
#define SENTINEL_EVENTS_CONTEXT_H_

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "events/event.h"

namespace sentinel {

/// Which pending constituents a terminator pairs with.
enum class ParameterContext : uint8_t {
  kRecent = 0,
  kChronicle = 1,
  kContinuous = 2,
  kCumulative = 3,
};

const char* ToString(ParameterContext context);

/// Persisted form of a context: one byte, the enum value. GetContext
/// returns Corruption for any other byte.
void PutContext(Encoder* enc, ParameterContext context);
Status GetContext(Decoder* dec, ParameterContext* context);

/// Buffer of pending initiator detections with context-directed pairing.
/// The two-argument calls take the context from their caller: an operator
/// passes its own, so its context lives in one place and a reload that
/// restores it restores the pairing too. The one-argument calls use the
/// context the buffer was built with.
class PairingBuffer {
 public:
  explicit PairingBuffer(
      ParameterContext context = ParameterContext::kChronicle)
      : context_(context) {}

  ParameterContext context() const { return context_; }

  /// Buffers an initiator detection. Under Recent, displaces older ones.
  void AddInitiator(const EventDetection& det) { AddInitiator(context_, det); }
  void AddInitiator(ParameterContext context, const EventDetection& det);

  /// Pairs the terminator with buffered initiators per the context.
  /// `eligible` filters candidates (e.g. Sequence requires the initiator to
  /// precede the terminator). Returns one group of initiators per detection
  /// to signal (each group is merged with the terminator by the caller);
  /// empty when nothing pairs. Consumed initiators are removed except under
  /// Recent, which retains the most recent one for reuse.
  std::vector<std::vector<EventDetection>> PairWithTerminator(
      const EventDetection& terminator,
      const std::function<bool(const EventDetection&)>& eligible) {
    return PairWithTerminator(context_, terminator, eligible);
  }
  std::vector<std::vector<EventDetection>> PairWithTerminator(
      ParameterContext context, const EventDetection& terminator,
      const std::function<bool(const EventDetection&)>& eligible);

  bool empty() const { return pending_.empty(); }
  size_t size() const { return pending_.size(); }
  void Clear() { pending_.clear(); }

  /// Read-only view of pending initiators, oldest first.
  const std::deque<EventDetection>& pending() const { return pending_; }

 private:
  ParameterContext context_;
  std::deque<EventDetection> pending_;
};

}  // namespace sentinel

#endif  // SENTINEL_EVENTS_CONTEXT_H_
