// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Extension operators beyond the paper's conjunction/disjunction/sequence.
// These are the operators of Snoop — the event specification language the
// Sentinel project published as its follow-on work (§7 "future research
// directions") — implemented on the same CompositeEvent base as the
// paper's operators:
//
//   Any(m, E1..En)        — signaled when m of the n distinct component
//                           events have occurred, in any order.
//   Not(E1, E2, E3)       — signaled when E3 occurs after E1 with no
//                           occurrence of E2 in between.
//   Aperiodic(E1, E2, E3) — signals each E2 inside the half-open window
//                           started by E1 and closed by E3.
//   Periodic(E1, t, E3)   — signals every t microseconds between E1 and E3.
//   Plus(E1, t)           — signals t microseconds after each E1.
//   Every(n, E)           — signals on every n-th occurrence of E.
//
// Periodic and Plus are time-driven; they fire from AdvanceTime(now), which
// the EventDetector calls with the current clock (tests drive it manually).

#ifndef SENTINEL_EVENTS_SNOOP_OPERATORS_H_
#define SENTINEL_EVENTS_SNOOP_OPERATORS_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "events/context.h"
#include "events/operators.h"

namespace sentinel {

/// Any(m, E1..En): m-out-of-n completion, any order. Pairing is Chronicle
/// (oldest pending detection of each contributing child).
class AnyEvent : public CompositeEvent {
 public:
  AnyEvent(size_t m, std::vector<EventPtr> children);

  std::string Describe() const override;
  void ResetState() override;

  size_t m() const { return m_; }

 protected:
  void OnChild(size_t index, const EventDetection& det) override;
  void PutParams(Encoder* enc) const override;
  Result<size_t> GetParams(Decoder* dec) override;

 private:
  size_t m_;
  std::vector<std::deque<EventDetection>> pending_;  // One queue per child.
};

/// Not(E1, E2, E3): E3 after E1 with no intervening E2.
class NotEvent : public CompositeEvent {
 public:
  /// `start` = E1, `forbidden` = E2, `finish` = E3.
  NotEvent(EventPtr start, EventPtr forbidden, EventPtr finish,
           ParameterContext context = ParameterContext::kChronicle);

  std::string Describe() const override;
  void ResetState() override;

 protected:
  void OnChild(size_t index, const EventDetection& det) override;
  void PutParams(Encoder* enc) const override;
  Result<size_t> GetParams(Decoder* dec) override;

 private:
  ParameterContext context_;
  PairingBuffer initiators_;
};

/// Aperiodic(E1, E2, E3): each E2 inside an open [E1, E3) window signals.
class AperiodicEvent : public CompositeEvent {
 public:
  AperiodicEvent(EventPtr opener, EventPtr tracked, EventPtr closer);

  std::string Describe() const override;
  void ResetState() override;

  size_t open_windows() const { return windows_.size(); }

 protected:
  void OnChild(size_t index, const EventDetection& det) override;
  void PutParams(Encoder* enc) const override;
  Result<size_t> GetParams(Decoder* dec) override;

 private:
  std::deque<EventDetection> windows_;  // Open window initiators.
};

/// Periodic(E1, period, E3): fires on the period grid while a window is
/// open. Detections carry a synthesized "__timer__" occurrence.
class PeriodicEvent : public CompositeEvent {
 public:
  PeriodicEvent(EventPtr opener, int64_t period_micros, EventPtr closer);

  std::string Describe() const override;
  void ResetState() override;
  void AdvanceTime(const Timestamp& now) override;

  size_t open_windows() const { return windows_.size(); }
  int64_t period_micros() const { return period_micros_; }

 protected:
  void OnChild(size_t index, const EventDetection& det) override;
  void PutParams(Encoder* enc) const override;
  Result<size_t> GetParams(Decoder* dec) override;

 private:
  struct Window {
    EventDetection opened_by;
    int64_t next_fire_micros;
  };

  int64_t period_micros_;
  std::deque<Window> windows_;
};

/// Every(n, E): fires on every n-th detection of E, carrying the n
/// constituents that completed the window (a counting/closure-style
/// operator for "react to every 100th update" rules).
class EveryEvent : public CompositeEvent {
 public:
  EveryEvent(size_t n, EventPtr base);

  std::string Describe() const override;
  void ResetState() override;

  size_t n() const { return n_; }
  size_t pending() const { return window_.size(); }

 protected:
  void OnChild(size_t index, const EventDetection& det) override;
  void PutParams(Encoder* enc) const override;
  Result<size_t> GetParams(Decoder* dec) override;

 private:
  size_t n_;
  std::vector<EventDetection> window_;
};

/// Plus(E1, delta): fires once, delta micros after each E1.
class PlusEvent : public CompositeEvent {
 public:
  PlusEvent(EventPtr base, int64_t delta_micros);

  std::string Describe() const override;
  void ResetState() override;
  void AdvanceTime(const Timestamp& now) override;

  size_t pending() const { return pending_.size(); }
  int64_t delta_micros() const { return delta_micros_; }

 protected:
  void OnChild(size_t index, const EventDetection& det) override;
  void PutParams(Encoder* enc) const override;
  Result<size_t> GetParams(Decoder* dec) override;

 private:
  int64_t delta_micros_;
  std::deque<EventDetection> pending_;
};

/// Builders.
EventPtr Any(size_t m, std::vector<EventPtr> children);
EventPtr Not(EventPtr start, EventPtr forbidden, EventPtr finish,
             ParameterContext context = ParameterContext::kChronicle);
EventPtr Aperiodic(EventPtr opener, EventPtr tracked, EventPtr closer);
EventPtr Periodic(EventPtr opener, int64_t period_micros, EventPtr closer);
EventPtr Plus(EventPtr base, int64_t delta_micros);
EventPtr Every(size_t n, EventPtr base);

}  // namespace sentinel

#endif  // SENTINEL_EVENTS_SNOOP_OPERATORS_H_
