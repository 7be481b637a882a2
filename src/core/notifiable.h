// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Notifiable: the consumer half of the paper's producer/consumer object
// model (§3.2, §4.2). A notifiable object receives the primitive events
// propagated by reactive objects it has subscribed to, and Records their
// parameters for later use (event detection, condition evaluation).
//
// Events and rules are the two notifiable kinds in the paper (Fig. 3);
// applications may derive their own consumers as well.
//
// One raise usually reaches several consumers (a rule, then the event it
// watches). Their Record windows share one immutable copy of the
// occurrence instead of each deep-copying it: the raising code opens an
// OccurrenceShare scope around the raise, and every Record of that
// occurrence on the same thread keeps the scope's copy.

#ifndef SENTINEL_CORE_NOTIFIABLE_H_
#define SENTINEL_CORE_NOTIFIABLE_H_

#include <cstddef>
#include <deque>
#include <memory>

#include "events/occurrence.h"

namespace sentinel {

/// An immutable occurrence shared by every consumer window that keeps it.
using OccurrencePtr = std::shared_ptr<const EventOccurrence>;

/// RAII scope naming the occurrence being fanned out on this thread. While
/// it is open, every copy kept of that very object (Record windows, the
/// detector's log) is one shared copy — `payload` when given, else a copy
/// made on first use — so N keepers cost one copy, not N. Scopes nest (a
/// consumer may raise again); closing one restores the enclosing scope. A
/// scope opened for the occurrence the current scope already shares is a
/// no-op.
class OccurrenceShare {
 public:
  explicit OccurrenceShare(const EventOccurrence& occ,
                           OccurrencePtr payload = nullptr);
  ~OccurrenceShare();

  OccurrenceShare(const OccurrenceShare&) = delete;
  OccurrenceShare& operator=(const OccurrenceShare&) = delete;

  /// The shared copy of `occ` when it is the occurrence of the innermost
  /// open scope on this thread; a fresh copy otherwise.
  static OccurrencePtr CopyOf(const EventOccurrence& occ);

 private:
  const EventOccurrence* occ_;
  OccurrencePtr payload_;
  OccurrenceShare* outer_;
};

/// Base class for event consumers.
class Notifiable {
 public:
  virtual ~Notifiable() = default;

  /// Delivery entry point: a subscribed reactive object generated `occ`.
  /// Implementations typically Record(occ) and run detection logic.
  virtual void Notify(const EventOccurrence& occ) = 0;

  /// Recently recorded occurrences, oldest first (bounded window). Built
  /// from the shared copies when first read after a Record; like the
  /// window itself, not safe against a concurrent Record or recorded().
  const std::deque<EventOccurrence>& recorded() const;

  /// Number of occurrences ever recorded (not bounded by the window).
  uint64_t recorded_total() const { return recorded_total_; }

  /// Caps the Record window; older entries are discarded.
  void set_record_capacity(size_t capacity) { record_capacity_ = capacity; }

 protected:
  /// Documents the parameters computed when an event is raised (paper §4.2:
  /// "The Record method ... records these parameters").
  void Record(const EventOccurrence& occ);

 private:
  std::deque<OccurrencePtr> window_;
  size_t record_capacity_ = 1024;
  uint64_t recorded_total_ = 0;
  /// recorded()'s materialized view, current while view_total_ equals
  /// recorded_total_ (only Record changes the window).
  mutable std::deque<EventOccurrence> view_;
  mutable uint64_t view_total_ = 0;
};

}  // namespace sentinel

#endif  // SENTINEL_CORE_NOTIFIABLE_H_
