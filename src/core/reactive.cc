// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "core/reactive.h"

#include <algorithm>

#include "common/clock.h"

namespace sentinel {

Status Reactive::Subscribe(Notifiable* consumer) {
  if (consumer == nullptr) return Status::InvalidArgument("null consumer");
  std::lock_guard<std::mutex> lock(consumers_mu_);
  if (std::find(consumers_->begin(), consumers_->end(), consumer) !=
      consumers_->end()) {
    return Status::AlreadyExists("consumer already subscribed");
  }
  auto next = std::make_shared<ConsumerList>(*consumers_);
  next->push_back(consumer);
  consumers_ = std::move(next);
  return Status::OK();
}

Status Reactive::Unsubscribe(Notifiable* consumer) {
  std::lock_guard<std::mutex> lock(consumers_mu_);
  auto it = std::find(consumers_->begin(), consumers_->end(), consumer);
  if (it == consumers_->end()) {
    return Status::NotFound("consumer not subscribed");
  }
  auto next = std::make_shared<ConsumerList>(*consumers_);
  next->erase(next->begin() + (it - consumers_->begin()));
  consumers_ = std::move(next);
  return Status::OK();
}

Status Reactive::SubscribeAll(const ConsumerSnapshot& consumers) {
  if (consumers == nullptr ||
      std::find(consumers->begin(), consumers->end(), nullptr) !=
          consumers->end()) {
    return Status::InvalidArgument("null consumer");
  }
  const ConsumerList& add = *consumers;
  bool repeats = false;
  for (size_t i = 1; i < add.size() && !repeats; ++i) {
    repeats = std::find(add.begin(), add.begin() + i, add[i]) !=
              add.begin() + i;
  }
  std::lock_guard<std::mutex> lock(consumers_mu_);
  if (consumers_->empty() && !repeats) {
    if (!add.empty()) consumers_ = consumers;  // Shared, not copied.
    return Status::OK();
  }
  ConsumerList next = *consumers_;
  for (Notifiable* consumer : add) {
    if (std::find(next.begin(), next.end(), consumer) == next.end()) {
      next.push_back(consumer);
    }
  }
  if (next.size() == consumers_->size()) return Status::OK();
  consumers_ = std::make_shared<const ConsumerList>(std::move(next));
  return Status::OK();
}

bool Reactive::IsSubscribed(const Notifiable* consumer) const {
  ConsumerSnapshot snapshot = SnapshotConsumers();
  return std::find(snapshot->begin(), snapshot->end(), consumer) !=
         snapshot->end();
}

bool Reactive::StillSubscribed(const ConsumerList* seen,
                               const Notifiable* consumer) const {
  std::lock_guard<std::mutex> lock(consumers_mu_);
  return consumers_.get() == seen ||
         std::find(consumers_->begin(), consumers_->end(), consumer) !=
             consumers_->end();
}

const Reactive::ConsumerSnapshot& Reactive::EmptyConsumers() {
  static const ConsumerSnapshot empty =
      std::make_shared<const ConsumerList>();
  return empty;
}

void Reactive::NotifyConsumers(const EventOccurrence& occ) {
  // Snapshot: a consumer's Notify may unsubscribe itself or others. The
  // membership re-check against the *current* list preserves the old
  // semantics (a consumer unsubscribed mid-round is skipped); the first
  // consumer needs none, as no Notify has run since the snapshot.
  ConsumerSnapshot snapshot = SnapshotConsumers();
  if (snapshot->empty()) return;
  OccurrenceShare share(occ);
  const ConsumerList& consumers = *snapshot;
  for (size_t i = 0; i < consumers.size(); ++i) {
    if (i > 0 && !StillSubscribed(snapshot.get(), consumers[i])) {
      continue;  // Unsubscribed during this round.
    }
    consumers[i]->Notify(occ);
  }
}

bool ReactiveObject::Designated(const ClassCatalog& catalog,
                                const std::string& method,
                                EventModifier modifier) {
  if (interface_epoch_ != catalog.ddl_epoch()) {
    interface_ = catalog.EventInterfaceOf(class_name(), &interface_epoch_);
  }
  if (interface_ == nullptr) return false;  // Unregistered class.
  EventSpec spec = interface_->SpecFor(method);
  return modifier == EventModifier::kBegin ? spec.begin : spec.end;
}

template <typename Params>
void ReactiveObject::Raise(const std::string& method, EventModifier modifier,
                           Params&& params) {
  if (context_ != nullptr && context_->catalog() != nullptr &&
      !Designated(*context_->catalog(), method, modifier)) {
    return;  // Not in the event interface: no event.
  }
  // Built straight into the copy that the detector's log and the
  // consumers' Record windows share.
  auto payload = std::make_shared<EventOccurrence>();
  EventOccurrence& occ = *payload;
  occ.oid = oid();
  occ.class_name = class_name();
  occ.method = method;
  occ.modifier = modifier;
  occ.params = std::forward<Params>(params);
  occ.timestamp = Clock::Now();
  occ.txn = context_ != nullptr ? context_->current_txn() : nullptr;
  ++raised_count_;
  OccurrenceShare share(occ, std::move(payload));
  if (context_ != nullptr) context_->PreRaise(occ);
  NotifyConsumers(occ);
  if (context_ != nullptr) context_->PostRaise(occ);
}

void ReactiveObject::RaiseEvent(const std::string& method,
                                EventModifier modifier,
                                const ValueList& params) {
  Raise(method, modifier, params);
}

void ReactiveObject::RaiseEvent(const std::string& method,
                                EventModifier modifier, ValueList&& params) {
  Raise(method, modifier, std::move(params));
}

void ReactiveObject::SetAttr(Transaction* txn, const std::string& name,
                             Value value) {
  Value old = SetAttrRaw(name, std::move(value));
  if (txn != nullptr && txn->active()) {
    txn->AddUndo([this, name, old]() { SetAttrRaw(name, old); });
  }
}

}  // namespace sentinel
