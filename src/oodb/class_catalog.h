// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Class catalog: the schema of a Sentinel database.
//
// A class declaration carries, besides its name and superclasses, the
// paper's *event interface* (§3.1): the subset of methods designated as
// primitive event generators and whether each raises its event at
// begin-of-method (bom), end-of-method (eom), or both:
//
//   Reactive class definition =
//       Traditional class definition + Event interface specification
//
// Only classes marked reactive may generate events; passive classes incur no
// overhead (§3.2). The catalog also answers inheritance queries — both rule
// applicability ("is this object an instance of the rule's class?") and
// event-interface inheritance flow through IsSubclassOf.

#ifndef SENTINEL_OODB_CLASS_CATALOG_H_
#define SENTINEL_OODB_CLASS_CATALOG_H_

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/codec.h"
#include "common/status.h"

namespace sentinel {

/// When a designated method raises its primitive event(s).
struct EventSpec {
  bool begin = false;  ///< Raise bom before the method body runs.
  bool end = false;    ///< Raise eom after the method body returns.

  bool any() const { return begin || end; }
  bool operator==(const EventSpec&) const = default;
};

/// One method in a class declaration.
struct MethodDescriptor {
  std::string name;       ///< Unqualified method name, e.g. "SetSalary".
  EventSpec events;       ///< Event-interface designation (may be empty).

  bool operator==(const MethodDescriptor&) const = default;
};

/// One class in the schema.
struct ClassDescriptor {
  std::string name;
  std::vector<std::string> supers;  ///< Direct superclasses (multiple OK).
  std::vector<MethodDescriptor> methods;
  bool reactive = false;   ///< Derives from Reactive (event producer).
  bool notifiable = false; ///< Derives from Notifiable (event consumer).

  /// Finds a locally declared method; nullptr when absent.
  const MethodDescriptor* FindMethod(const std::string& method) const;
};

/// A class's event interface with inheritance resolved: every method the
/// class or an ancestor declares, with the EventSpec EventSpecFor reports
/// for it. Immutable once built, so all objects of a class share one.
struct EventInterface {
  std::vector<std::pair<std::string, EventSpec>> methods;

  /// The designation of `method`; empty when it generates no events.
  EventSpec SpecFor(const std::string& method) const {
    for (const auto& [name, spec] : methods) {
      if (name == method) return spec;
    }
    return EventSpec{};
  }
};

/// Fluent builder so schema declarations read like the paper's listings:
///
///   ClassBuilder("Employee").Reactive()
///       .Method("SetSalary", {.begin = false, .end = true})
///       .Method("GetName")
///       .Build();
class ClassBuilder {
 public:
  explicit ClassBuilder(std::string name) { desc_.name = std::move(name); }

  ClassBuilder& Extends(std::string super) {
    desc_.supers.push_back(std::move(super));
    return *this;
  }
  ClassBuilder& Reactive() {
    desc_.reactive = true;
    return *this;
  }
  ClassBuilder& Notifiable() {
    desc_.notifiable = true;
    return *this;
  }
  /// Declares a method; `events` defaults to "not an event generator".
  ClassBuilder& Method(std::string name, EventSpec events = {}) {
    desc_.methods.push_back({std::move(name), events});
    return *this;
  }
  ClassDescriptor Build() { return desc_; }

 private:
  ClassDescriptor desc_;
};

/// Registry of classes with inheritance-aware queries. Thread safe.
class ClassCatalog {
 public:
  ClassCatalog() = default;

  /// Adds a class. Fails AlreadyExists on a duplicate name and
  /// InvalidArgument when a superclass is unknown or event designations are
  /// given by a non-reactive class.
  Status RegisterClass(const ClassDescriptor& desc);

  /// Looks up a class by name.
  Result<ClassDescriptor> GetClass(const std::string& name) const;

  bool HasClass(const std::string& name) const;

  /// True when `cls` equals `ancestor` or transitively inherits from it
  /// (multiple inheritance supported).
  bool IsSubclassOf(const std::string& cls,
                    const std::string& ancestor) const;

  /// Event-interface query with inheritance: resolves `method` on `cls` or
  /// the nearest ancestor declaring it, and reports its EventSpec. Returns
  /// an empty spec when the method is not a designated generator (or the
  /// class is not reactive).
  EventSpec EventSpecFor(const std::string& cls,
                         const std::string& method) const;

  /// The resolved event interface of `cls` (nullptr when `cls` is not
  /// registered), and through `epoch` the ddl_epoch() it belongs to. One
  /// lookup answers every later EventSpecFor(cls, ...) until DDL.
  std::shared_ptr<const EventInterface> EventInterfaceOf(
      const std::string& cls, uint64_t* epoch) const;

  /// True if instances of `cls` may produce events at all.
  bool IsReactive(const std::string& cls) const;

  /// All registered class names (sorted, for deterministic iteration).
  std::vector<std::string> ClassNames() const;

  /// All classes equal to or derived from `ancestor` (including itself).
  std::vector<std::string> SubclassesOf(const std::string& ancestor) const;

  size_t size() const;

  /// Moves on every change (RegisterClass, Decode). Callers caching an
  /// answer derived from the catalog tag it with this value and recompute
  /// once it differs. Values are unique across all catalogs in the
  /// process, so a tag never matches a different catalog by accident.
  uint64_t ddl_epoch() const {
    return ddl_epoch_.load(std::memory_order_acquire);
  }

  /// Serialization for catalog persistence.
  void Encode(Encoder* enc) const;
  Status Decode(Decoder* dec);

 private:
  bool IsSubclassOfLocked(const std::string& cls,
                          const std::string& ancestor) const;
  const MethodDescriptor* ResolveMethodLocked(
      const std::string& cls, const std::string& method) const;
  /// A process-wide fresh value for ddl_epoch_.
  static uint64_t NextEpoch();
  /// Decode's body: replaces classes_ with the encoded classes.
  Status DecodeClassesLocked(Decoder* dec);
  /// Builds `cls`'s EventInterface from classes_ (all its ancestors must
  /// be registered).
  std::shared_ptr<const EventInterface> BuildInterfaceLocked(
      const std::string& cls) const;

  /// shared_mutex: lookups run concurrently from every shard (objects
  /// registering, gateway class checks); RegisterClass/Decode (DDL) take
  /// it exclusively.
  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, ClassDescriptor> classes_;
  /// One per class in classes_, rebuilt with it (classes never change
  /// once registered, so a new class leaves the others' intact).
  std::unordered_map<std::string, std::shared_ptr<const EventInterface>>
      interfaces_;
  std::atomic<uint64_t> ddl_epoch_{NextEpoch()};
};

}  // namespace sentinel

#endif  // SENTINEL_OODB_CLASS_CATALOG_H_
