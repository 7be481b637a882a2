// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "events/event.h"

#include <algorithm>

namespace sentinel {

EventDetection EventDetection::FromOccurrence(const EventOccurrence& occ) {
  EventDetection det;
  det.constituents.push_back(occ);
  det.start_ts = occ.timestamp;
  det.end_ts = occ.timestamp;
  det.txn = occ.txn;
  return det;
}

EventDetection EventDetection::Merge(
    const std::vector<EventDetection>& parts) {
  EventDetection out;
  for (const EventDetection& part : parts) {
    out.constituents.insert(out.constituents.end(),
                            part.constituents.begin(),
                            part.constituents.end());
  }
  std::sort(out.constituents.begin(), out.constituents.end(),
            [](const EventOccurrence& a, const EventOccurrence& b) {
              return a.timestamp < b.timestamp;
            });
  if (!out.constituents.empty()) {
    out.start_ts = out.constituents.front().timestamp;
    out.end_ts = out.constituents.back().timestamp;
    out.txn = out.constituents.back().txn;
  }
  return out;
}

std::string EventDetection::ToString() const {
  std::string s = "detection[";
  for (size_t i = 0; i < constituents.size(); ++i) {
    if (i > 0) s += "; ";
    s += constituents[i].ToString();
  }
  s += "]";
  return s;
}

Event::Event(std::string event_class)
    : PersistentObject(std::move(event_class)) {}

Event::~Event() = default;

void Event::AddListener(EventListener* listener) {
  if (std::find(listeners_.begin(), listeners_.end(), listener) ==
      listeners_.end()) {
    listeners_.push_back(listener);
  }
}

void Event::RemoveListener(EventListener* listener) {
  listeners_.erase(
      std::remove(listeners_.begin(), listeners_.end(), listener),
      listeners_.end());
}

void Event::CollectLeaves(std::vector<Event*>* leaves,
                          std::vector<const Event*>* visited) {
  if (std::find(visited->begin(), visited->end(), this) != visited->end()) {
    return;
  }
  visited->push_back(this);
  std::vector<Event*> children = Children();
  if (children.empty()) {
    leaves->push_back(this);
    return;
  }
  for (Event* child : children) child->CollectLeaves(leaves, visited);
}

std::atomic<uint64_t> Event::graph_epoch_{1};
std::atomic<EventRouting> Event::routing_{EventRouting::kIndexed};

void Event::SetRouting(EventRouting routing) { routing_.store(routing); }

EventRouting Event::routing() {
  return routing_.load(std::memory_order_relaxed);
}

void Event::InvalidateGraphCaches() {
  graph_epoch_.fetch_add(1, std::memory_order_relaxed);
}

void Event::RefreshLeafIndex() {
  uint64_t epoch = graph_epoch_.load(std::memory_order_relaxed);
  if (index_epoch_ == epoch) return;
  leaf_index_.clear();
  std::vector<Event*> leaves;
  std::vector<const Event*> visited;
  CollectLeaves(&leaves, &visited);
  for (Event* leaf : leaves) {
    std::string key = leaf->RoutingKey();
    if (!key.empty()) leaf_index_[key].push_back(leaf);
  }
  index_epoch_ = epoch;
}

void Event::Notify(const EventOccurrence& occ) {
  Record(occ);
  if (routing() == EventRouting::kIndexed) {
    RefreshLeafIndex();
    std::string key = ToString(occ.modifier);
    key += ' ';
    key += occ.method;
    auto it = leaf_index_.find(key);
    if (it == leaf_index_.end()) return;
    // Snapshot: a consumed occurrence may cascade into graph edits. One
    // leaf (the common case) needs no copy of the list.
    if (it->second.size() == 1) {
      it->second.front()->ConsumePrimitive(occ);
      return;
    }
    std::vector<Event*> targets = it->second;
    for (Event* leaf : targets) leaf->ConsumePrimitive(occ);
    return;
  }
  std::vector<Event*> leaves;
  std::vector<const Event*> visited;
  CollectLeaves(&leaves, &visited);
  for (Event* leaf : leaves) leaf->ConsumePrimitive(occ);
}

void Event::AdvanceTime(const Timestamp& now) {
  for (Event* child : Children()) child->AdvanceTime(now);
}

void Event::ResetState() {
  for (Event* child : Children()) child->ResetState();
}

void Event::ConsumePrimitive(const EventOccurrence& occ) { (void)occ; }

void Event::Signal(const EventDetection& det) {
  ++signal_count_;
  last_detection_ = det;
  // Snapshot: listeners may unsubscribe (or subscribe others) during
  // delivery.
  std::vector<EventListener*> snapshot = listeners_;
  for (EventListener* listener : snapshot) {
    // Skip listeners removed by earlier callbacks in this round.
    if (std::find(listeners_.begin(), listeners_.end(), listener) ==
        listeners_.end()) {
      continue;
    }
    listener->OnEvent(this, det);
  }
}

}  // namespace sentinel
