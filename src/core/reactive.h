// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Reactive: the producer half of the paper's object model.
//
// Fig. 4 of the paper defines the Reactive class as a consumers list plus
// Subscribe / Unsubscribe / Notify; Fig. 1 shows the resulting "augmented
// C++ object" with a conventional (synchronous) interface and an event
// (asynchronous) interface. ReactiveObject combines Reactive with the
// persistence root and implements event generation:
//
//   * The paper's preprocessor rewrites methods declared in the event
//     interface into "raise bom; body; raise eom". C++ has no reflection,
//     so the SENTINEL_METHOD_EVENT macro (an RAII scope) emits exactly that
//     generated code instead.
//   * Whether a method actually generates events is decided by the class's
//     event interface in the catalog — undesignated methods raise nothing
//     and cost (almost) nothing, matching §4.5.

#ifndef SENTINEL_CORE_REACTIVE_H_
#define SENTINEL_CORE_REACTIVE_H_

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/notifiable.h"
#include "events/occurrence.h"
#include "oodb/class_catalog.h"
#include "oodb/object.h"
#include "txn/transaction.h"

namespace sentinel {

/// Producer base: a consumers list with subscribe/unsubscribe/notify,
/// exactly the paper's Reactive class (Fig. 4).
class Reactive {
 public:
  using ConsumerList = std::vector<Notifiable*>;
  /// An immutable consumer list; objects may share one (copy-on-write).
  using ConsumerSnapshot = std::shared_ptr<const ConsumerList>;

  Reactive() = default;
  virtual ~Reactive() = default;

  // Copyable despite the internal mutex: copies share the (immutable)
  // consumer snapshot — any later Subscribe/Unsubscribe on either object
  // swaps in its own fresh list (copy-on-write).
  Reactive(const Reactive& other) : consumers_(other.SnapshotConsumers()) {}
  Reactive& operator=(const Reactive& other) {
    if (this != &other) {
      ConsumerSnapshot snapshot = other.SnapshotConsumers();
      std::lock_guard<std::mutex> lock(consumers_mu_);
      consumers_ = std::move(snapshot);
    }
    return *this;
  }

  /// Adds `consumer` to the consumers list. Idempotent (AlreadyExists when
  /// the consumer is already subscribed).
  Status Subscribe(Notifiable* consumer);

  /// Removes `consumer`. NotFound when it was not subscribed.
  Status Unsubscribe(Notifiable* consumer);

  /// Appends, in order, each of `consumers` not yet subscribed, publishing
  /// the new list once (a new object's rules cost one copy-on-write swap,
  /// not one per rule). An object with no consumers yet adopts `consumers`
  /// itself, so objects of one class can share one list without copying
  /// it. InvalidArgument on a null consumer, with nothing subscribed.
  Status SubscribeAll(const ConsumerSnapshot& consumers);

  /// Propagates `occ` to every subscribed consumer. Consumers may
  /// subscribe/unsubscribe during delivery (snapshot iteration). Their
  /// Record windows share one copy of `occ` (see OccurrenceShare).
  void NotifyConsumers(const EventOccurrence& occ);

  size_t consumer_count() const { return SnapshotConsumers()->size(); }
  bool IsSubscribed(const Notifiable* consumer) const;

 private:
  /// The current (immutable) consumer list. Copy-on-write: Subscribe and
  /// Unsubscribe swap in a fresh list under the mutex; readers take the
  /// shared_ptr (a single brief lock) and iterate without holding anything,
  /// so a consumer's Notify can re-enter Subscribe/Unsubscribe on this
  /// object and so DDL on one shard never blocks raises on another for
  /// longer than the pointer copy.
  ConsumerSnapshot SnapshotConsumers() const {
    std::lock_guard<std::mutex> lock(consumers_mu_);
    return consumers_;
  }

  /// True while `consumer` is on the current list; `seen` is the snapshot
  /// the caller iterates (unchanged list = still subscribed, no search).
  bool StillSubscribed(const ConsumerList* seen,
                       const Notifiable* consumer) const;

  /// The list every object starts with, shared so creating an object
  /// allocates no consumer list until something subscribes.
  static const ConsumerSnapshot& EmptyConsumers();

  mutable std::mutex consumers_mu_;
  ConsumerSnapshot consumers_ = EmptyConsumers();
};

/// Services a reactive object needs from its database when raising events.
/// Implemented by core::Database; nullable so reactive objects also work
/// standalone (unit tests, benchmarks without a database).
class RaiseContext {
 public:
  virtual ~RaiseContext() = default;

  /// Schema for event-interface checks; may be null.
  virtual const ClassCatalog* catalog() const = 0;

  /// The transaction the raising method runs under; may be null.
  virtual Transaction* current_txn() = 0;

  /// Called before consumers are notified (occurrence logging, scheduler
  /// round opening).
  virtual void PreRaise(const EventOccurrence& occ) = 0;

  /// Called after consumers were notified (scheduler round execution).
  virtual void PostRaise(const EventOccurrence& occ) = 0;
};

/// A persistent, event-generating object: Reactive + PersistentObject.
class ReactiveObject : public Reactive, public PersistentObject {
 public:
  ReactiveObject(std::string class_name, Oid oid = kInvalidOid)
      : PersistentObject(std::move(class_name), oid) {}

  /// Binds this object to a database's raise services. Unbound objects
  /// raise unconditionally (no event-interface check, no scheduler).
  void AttachContext(RaiseContext* context) { context_ = context; }
  RaiseContext* context() const { return context_; }

  /// Generates a primitive event for `method` with the given shade and
  /// actual parameters, honoring the event interface: when a catalog is
  /// attached and the method is not designated for `modifier`, nothing is
  /// raised. Also usable for the paper's "explicitly generated" events
  /// within method bodies (§3.1 footnote 3).
  void RaiseEvent(const std::string& method, EventModifier modifier,
                  const ValueList& params);
  /// Same, taking over `params` instead of copying them.
  void RaiseEvent(const std::string& method, EventModifier modifier,
                  ValueList&& params);

  /// Seeds the event-interface cache RaiseEvent consults, with `iface` as
  /// of catalog epoch `epoch` (ClassCatalog::EventInterfaceOf). The
  /// database does this at registration, which has looked the class up
  /// anyway, so a new object's first raise skips the catalog.
  void CacheEventInterface(std::shared_ptr<const EventInterface> iface,
                           uint64_t epoch) {
    interface_ = std::move(iface);
    interface_epoch_ = epoch;
  }

  /// Transactional attribute write: records an undo restoring the previous
  /// value if `txn` aborts. Does NOT raise events by itself — the mutating
  /// method does, via SENTINEL_METHOD_EVENT.
  void SetAttr(Transaction* txn, const std::string& name, Value value);

  /// Number of events this object has generated (for overhead benches).
  uint64_t raised_count() const { return raised_count_; }

 private:
  template <typename Params>
  void Raise(const std::string& method, EventModifier modifier,
             Params&& params);

  /// Whether `method` raises for `modifier` under the attached catalog's
  /// event interface. The class's resolved interface is kept until the
  /// catalog's DDL epoch moves, so raises skip the catalog lock.
  bool Designated(const ClassCatalog& catalog, const std::string& method,
                  EventModifier modifier);

  RaiseContext* context_ = nullptr;
  uint64_t raised_count_ = 0;
  std::shared_ptr<const EventInterface> interface_;
  uint64_t interface_epoch_ = 0;  // 0 = nothing cached.
};

/// RAII scope generating bom on entry and eom on exit for `method`, i.e. the
/// code the paper's preprocessor would have inserted. Place as the first
/// statement of a designated method:
///
///   void SetSalary(Transaction* txn, double salary) {
///     MethodEventScope scope(this, "SetSalary", {salary});
///     SetAttr(txn, "salary", salary);
///   }
class MethodEventScope {
 public:
  MethodEventScope(ReactiveObject* object, std::string method,
                   ValueList params)
      : object_(object), method_(std::move(method)),
        params_(std::move(params)) {
    object_->RaiseEvent(method_, EventModifier::kBegin, params_);
  }
  ~MethodEventScope() {
    object_->RaiseEvent(method_, EventModifier::kEnd, params_);
  }

  MethodEventScope(const MethodEventScope&) = delete;
  MethodEventScope& operator=(const MethodEventScope&) = delete;

 private:
  ReactiveObject* object_;
  std::string method_;
  ValueList params_;
};

/// Macro sugar for the scope above.
#define SENTINEL_METHOD_EVENT(obj, method, ...)             \
  ::sentinel::MethodEventScope _sentinel_method_scope_(     \
      (obj), (method), ::sentinel::ValueList{__VA_ARGS__})

}  // namespace sentinel

#endif  // SENTINEL_CORE_REACTIVE_H_
