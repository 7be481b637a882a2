// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "events/snoop_operators.h"

#include <algorithm>

namespace sentinel {

namespace {

/// Synthesizes the occurrence carried by timer-driven detections.
EventOccurrence TimerOccurrence(int64_t fire_micros) {
  EventOccurrence occ;
  occ.class_name = "__timer__";
  occ.method = "Fire";
  occ.modifier = EventModifier::kEnd;
  occ.timestamp = Clock::Now();
  occ.timestamp.micros = fire_micros;
  return occ;
}

}  // namespace

// --- AnyEvent ----------------------------------------------------------------

AnyEvent::AnyEvent(size_t m, std::vector<EventPtr> children)
    : CompositeEvent("AnyEvent", std::move(children)), m_(m) {}

void AnyEvent::OnChild(size_t index, const EventDetection& det) {
  pending_.resize(child_count());  // Follows the child list after a relink.
  pending_[index].push_back(det);
  // Count children with a pending detection.
  std::vector<size_t> ready;
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (!pending_[i].empty()) ready.push_back(i);
  }
  if (ready.size() < m_) return;
  // Signal with the oldest pending detection of the m earliest-ready
  // children, consuming them (Chronicle-style).
  std::sort(ready.begin(), ready.end(), [this](size_t a, size_t b) {
    return pending_[a].front().end_ts < pending_[b].front().end_ts;
  });
  std::vector<EventDetection> parts;
  for (size_t k = 0; k < m_; ++k) {
    size_t idx = ready[k];
    parts.push_back(pending_[idx].front());
    pending_[idx].pop_front();
  }
  Signal(EventDetection::Merge(parts));
}

void AnyEvent::ResetState() {
  for (auto& q : pending_) q.clear();
  Event::ResetState();
}

std::string AnyEvent::Describe() const {
  std::string s = "Any(" + std::to_string(m_);
  for (size_t i = 0; i < child_count(); ++i) s += ", " + DescribeChild(i);
  return s + ")";
}

void AnyEvent::PutParams(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(m_));
  enc->PutU32(static_cast<uint32_t>(child_count()));
}

Result<size_t> AnyEvent::GetParams(Decoder* dec) {
  uint32_t m, n;
  SENTINEL_RETURN_IF_ERROR(dec->GetU32(&m));
  SENTINEL_RETURN_IF_ERROR(dec->GetU32(&n));
  m_ = m;
  return size_t{n};
}

// --- NotEvent ----------------------------------------------------------------

NotEvent::NotEvent(EventPtr start, EventPtr forbidden, EventPtr finish,
                   ParameterContext context)
    : CompositeEvent("NotEvent", {std::move(start), std::move(forbidden),
                                  std::move(finish)}),
      context_(context) {}

void NotEvent::PutParams(Encoder* enc) const { PutContext(enc, context_); }

Result<size_t> NotEvent::GetParams(Decoder* dec) {
  SENTINEL_RETURN_IF_ERROR(GetContext(dec, &context_));
  return size_t{3};
}

void NotEvent::OnChild(size_t index, const EventDetection& det) {
  if (index == 0) {  // start
    initiators_.AddInitiator(context_, det);
    return;
  }
  if (index == 1) {  // forbidden
    // An occurrence of E2 kills every window it falls inside: any initiator
    // already complete when E2 completed can no longer detect.
    std::deque<EventDetection> survivors;
    for (const EventDetection& init : initiators_.pending()) {
      if (!(init.end_ts < det.end_ts)) survivors.push_back(init);
    }
    initiators_.Clear();
    for (const EventDetection& s : survivors) {
      initiators_.AddInitiator(context_, s);
    }
    return;
  }
  auto groups = initiators_.PairWithTerminator(
      context_, det, [&det](const EventDetection& init) {
        return init.end_ts < det.end_ts;
      });
  for (auto& group : groups) {
    group.push_back(det);
    Signal(EventDetection::Merge(group));
  }
}

void NotEvent::ResetState() {
  initiators_.Clear();
  Event::ResetState();
}

std::string NotEvent::Describe() const {
  return "Not(" + DescribeChild(0) + ", !" + DescribeChild(1) + ", " +
         DescribeChild(2) + ")";
}

// --- AperiodicEvent ------------------------------------------------------------

AperiodicEvent::AperiodicEvent(EventPtr opener, EventPtr tracked,
                               EventPtr closer)
    : CompositeEvent("AperiodicEvent", {std::move(opener), std::move(tracked),
                                        std::move(closer)}) {}

void AperiodicEvent::PutParams(Encoder*) const {}

Result<size_t> AperiodicEvent::GetParams(Decoder*) { return size_t{3}; }

void AperiodicEvent::OnChild(size_t index, const EventDetection& det) {
  // A tracked event that is also the closer closes windows.
  if (index == 1 && child(1) == child(2)) index = 2;
  if (index == 0) {  // opener
    windows_.push_back(det);
    return;
  }
  if (index == 2) {  // closer
    // Close every window opened before the closer completed.
    std::deque<EventDetection> still_open;
    for (const EventDetection& w : windows_) {
      if (!(w.end_ts < det.end_ts)) still_open.push_back(w);
    }
    windows_ = std::move(still_open);
    return;
  }
  if (!windows_.empty()) {
    // Signal once per tracked occurrence inside any open window, paired
    // with the oldest open window's initiator (windows stay open).
    const EventDetection& window = windows_.front();
    if (window.end_ts < det.end_ts) {
      Signal(EventDetection::Merge({window, det}));
    }
  }
}

void AperiodicEvent::ResetState() {
  windows_.clear();
  Event::ResetState();
}

std::string AperiodicEvent::Describe() const {
  return "Aperiodic(" + DescribeChild(0) + ", " + DescribeChild(1) + ", " +
         DescribeChild(2) + ")";
}

// --- PeriodicEvent -------------------------------------------------------------

PeriodicEvent::PeriodicEvent(EventPtr opener, int64_t period_micros,
                             EventPtr closer)
    : CompositeEvent("PeriodicEvent", {std::move(opener), std::move(closer)}),
      period_micros_(period_micros) {}

void PeriodicEvent::PutParams(Encoder* enc) const {
  enc->PutI64(period_micros_);
}

Result<size_t> PeriodicEvent::GetParams(Decoder* dec) {
  SENTINEL_RETURN_IF_ERROR(dec->GetI64(&period_micros_));
  if (period_micros_ <= 0) {
    // AdvanceTime steps each window by the period: it would never finish.
    return Status::Corruption(
        std::string("periodic event with non-positive period ")
            .append(std::to_string(period_micros_)));
  }
  return size_t{2};
}

void PeriodicEvent::OnChild(size_t index, const EventDetection& det) {
  if (index == 0) {  // opener
    windows_.push_back(Window{det, det.end_ts.micros + period_micros_});
    return;
  }
  std::deque<Window> still_open;
  for (const Window& w : windows_) {
    if (!(w.opened_by.end_ts < det.end_ts)) still_open.push_back(w);
  }
  windows_ = std::move(still_open);
}

void PeriodicEvent::AdvanceTime(const Timestamp& now) {
  for (Window& w : windows_) {
    while (w.next_fire_micros <= now.micros) {
      EventDetection fire =
          EventDetection::FromOccurrence(TimerOccurrence(w.next_fire_micros));
      Signal(EventDetection::Merge({w.opened_by, fire}));
      w.next_fire_micros += period_micros_;
    }
  }
  Event::AdvanceTime(now);
}

void PeriodicEvent::ResetState() {
  windows_.clear();
  Event::ResetState();
}

std::string PeriodicEvent::Describe() const {
  return "Periodic(" + DescribeChild(0) + ", " +
         std::to_string(period_micros_) + "us, " + DescribeChild(1) + ")";
}

// --- PlusEvent -----------------------------------------------------------------

PlusEvent::PlusEvent(EventPtr base, int64_t delta_micros)
    : CompositeEvent("PlusEvent", {std::move(base)}),
      delta_micros_(delta_micros) {}

void PlusEvent::PutParams(Encoder* enc) const { enc->PutI64(delta_micros_); }

Result<size_t> PlusEvent::GetParams(Decoder* dec) {
  SENTINEL_RETURN_IF_ERROR(dec->GetI64(&delta_micros_));
  return size_t{1};
}

void PlusEvent::OnChild(size_t, const EventDetection& det) {
  pending_.push_back(det);
}

void PlusEvent::AdvanceTime(const Timestamp& now) {
  std::deque<EventDetection> still_pending;
  for (const EventDetection& det : pending_) {
    int64_t due = det.end_ts.micros + delta_micros_;
    if (due <= now.micros) {
      EventDetection fire = EventDetection::FromOccurrence(
          TimerOccurrence(due));
      Signal(EventDetection::Merge({det, fire}));
    } else {
      still_pending.push_back(det);
    }
  }
  pending_ = std::move(still_pending);
  Event::AdvanceTime(now);
}

void PlusEvent::ResetState() {
  pending_.clear();
  Event::ResetState();
}

std::string PlusEvent::Describe() const {
  return "Plus(" + DescribeChild(0) + ", " + std::to_string(delta_micros_) +
         "us)";
}

// --- EveryEvent ----------------------------------------------------------------

EveryEvent::EveryEvent(size_t n, EventPtr base)
    : CompositeEvent("EveryEvent", {std::move(base)}), n_(n == 0 ? 1 : n) {}

void EveryEvent::PutParams(Encoder* enc) const {
  enc->PutU32(static_cast<uint32_t>(n_));
}

Result<size_t> EveryEvent::GetParams(Decoder* dec) {
  uint32_t n;
  SENTINEL_RETURN_IF_ERROR(dec->GetU32(&n));
  n_ = n == 0 ? 1 : n;
  return size_t{1};
}

void EveryEvent::OnChild(size_t, const EventDetection& det) {
  window_.push_back(det);
  if (window_.size() < n_) return;
  Signal(EventDetection::Merge(window_));
  window_.clear();
}

void EveryEvent::ResetState() {
  window_.clear();
  Event::ResetState();
}

std::string EveryEvent::Describe() const {
  return "Every(" + std::to_string(n_) + ", " + DescribeChild(0) + ")";
}

// --- Builders -------------------------------------------------------------------

EventPtr Any(size_t m, std::vector<EventPtr> children) {
  return std::make_shared<AnyEvent>(m, std::move(children));
}

EventPtr Not(EventPtr start, EventPtr forbidden, EventPtr finish,
             ParameterContext context) {
  return std::make_shared<NotEvent>(std::move(start), std::move(forbidden),
                                    std::move(finish), context);
}

EventPtr Aperiodic(EventPtr opener, EventPtr tracked, EventPtr closer) {
  return std::make_shared<AperiodicEvent>(std::move(opener),
                                          std::move(tracked),
                                          std::move(closer));
}

EventPtr Periodic(EventPtr opener, int64_t period_micros, EventPtr closer) {
  return std::make_shared<PeriodicEvent>(std::move(opener), period_micros,
                                         std::move(closer));
}

EventPtr Plus(EventPtr base, int64_t delta_micros) {
  return std::make_shared<PlusEvent>(std::move(base), delta_micros);
}

EventPtr Every(size_t n, EventPtr base) {
  return std::make_shared<EveryEvent>(n, std::move(base));
}

}  // namespace sentinel
