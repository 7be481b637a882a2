// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "core/notifiable.h"

namespace sentinel {

namespace {

/// Innermost open OccurrenceShare on this thread (a plain pointer, so the
/// raise path pays no thread_local initialization guard).
thread_local OccurrenceShare* current_share = nullptr;

}  // namespace

OccurrenceShare::OccurrenceShare(const EventOccurrence& occ,
                                 OccurrencePtr payload)
    : occ_(&occ), payload_(std::move(payload)), outer_(current_share) {
  // A scope already sharing this very occurrence stays in charge.
  if (outer_ == nullptr || outer_->occ_ != &occ) current_share = this;
}

OccurrenceShare::~OccurrenceShare() {
  if (current_share == this) current_share = outer_;
}

OccurrencePtr OccurrenceShare::CopyOf(const EventOccurrence& occ) {
  OccurrenceShare* share = current_share;
  if (share == nullptr || share->occ_ != &occ) {
    return std::make_shared<const EventOccurrence>(occ);
  }
  if (share->payload_ == nullptr) {
    share->payload_ = std::make_shared<const EventOccurrence>(occ);
  }
  return share->payload_;
}

void Notifiable::Record(const EventOccurrence& occ) {
  window_.push_back(OccurrenceShare::CopyOf(occ));
  ++recorded_total_;
  while (window_.size() > record_capacity_) window_.pop_front();
}

const std::deque<EventOccurrence>& Notifiable::recorded() const {
  if (view_total_ != recorded_total_) {
    view_.clear();
    for (const OccurrencePtr& occ : window_) view_.push_back(*occ);
    view_total_ = recorded_total_;
  }
  return view_;
}

}  // namespace sentinel
