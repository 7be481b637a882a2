// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "oodb/class_catalog.h"

#include <algorithm>
#include <mutex>

namespace sentinel {

const MethodDescriptor* ClassDescriptor::FindMethod(
    const std::string& method) const {
  for (const MethodDescriptor& m : methods) {
    if (m.name == method) return &m;
  }
  return nullptr;
}

uint64_t ClassCatalog::NextEpoch() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Status ClassCatalog::RegisterClass(const ClassDescriptor& desc) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (desc.name.empty()) {
    return Status::InvalidArgument("class name must be non-empty");
  }
  if (classes_.count(desc.name) != 0) {
    return Status::AlreadyExists("class " + desc.name);
  }
  bool inherits_reactive = desc.reactive;
  for (const std::string& super : desc.supers) {
    auto it = classes_.find(super);
    if (it == classes_.end()) {
      return Status::InvalidArgument("unknown superclass " + super +
                                     " of " + desc.name);
    }
    if (it->second.reactive) inherits_reactive = true;
  }
  ClassDescriptor stored = desc;
  // Reactivity is inherited (a subclass of a Reactive class is reactive).
  stored.reactive = inherits_reactive;
  if (!stored.reactive) {
    for (const MethodDescriptor& m : stored.methods) {
      if (m.events.any()) {
        return Status::InvalidArgument(
            "class " + desc.name + " declares event generator " + m.name +
            " but is not reactive");
      }
    }
  }
  const std::string name = stored.name;
  classes_.emplace(name, std::move(stored));
  interfaces_[name] = BuildInterfaceLocked(name);
  ddl_epoch_.store(NextEpoch(), std::memory_order_release);
  return Status::OK();
}

std::shared_ptr<const EventInterface> ClassCatalog::BuildInterfaceLocked(
    const std::string& cls) const {
  auto iface = std::make_shared<EventInterface>();
  auto it = classes_.find(cls);
  if (it == classes_.end() || !it->second.reactive) return iface;
  // Every method name visible on `cls`, resolved the way EventSpecFor
  // resolves it (own declaration first, then ancestors depth-first).
  std::vector<const ClassDescriptor*> pending = {&it->second};
  while (!pending.empty()) {
    const ClassDescriptor* desc = pending.back();
    pending.pop_back();
    for (const MethodDescriptor& m : desc->methods) {
      const bool listed =
          std::any_of(iface->methods.begin(), iface->methods.end(),
                      [&](const auto& entry) { return entry.first == m.name; });
      if (!listed) {
        iface->methods.emplace_back(m.name,
                                    ResolveMethodLocked(cls, m.name)->events);
      }
    }
    for (const std::string& super : desc->supers) {
      auto sit = classes_.find(super);
      if (sit != classes_.end()) pending.push_back(&sit->second);
    }
  }
  return iface;
}

Result<ClassDescriptor> ClassCatalog::GetClass(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = classes_.find(name);
  if (it == classes_.end()) return Status::NotFound("class " + name);
  return it->second;
}

bool ClassCatalog::HasClass(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return classes_.count(name) != 0;
}

bool ClassCatalog::IsSubclassOfLocked(const std::string& cls,
                                      const std::string& ancestor) const {
  if (cls == ancestor) return true;
  auto it = classes_.find(cls);
  if (it == classes_.end()) return false;
  for (const std::string& super : it->second.supers) {
    if (IsSubclassOfLocked(super, ancestor)) return true;
  }
  return false;
}

bool ClassCatalog::IsSubclassOf(const std::string& cls,
                                const std::string& ancestor) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return IsSubclassOfLocked(cls, ancestor);
}

const MethodDescriptor* ClassCatalog::ResolveMethodLocked(
    const std::string& cls, const std::string& method) const {
  auto it = classes_.find(cls);
  if (it == classes_.end()) return nullptr;
  if (const MethodDescriptor* m = it->second.FindMethod(method)) return m;
  for (const std::string& super : it->second.supers) {
    if (const MethodDescriptor* m = ResolveMethodLocked(super, method)) {
      return m;
    }
  }
  return nullptr;
}

EventSpec ClassCatalog::EventSpecFor(const std::string& cls,
                                     const std::string& method) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = interfaces_.find(cls);
  return it == interfaces_.end() ? EventSpec{} : it->second->SpecFor(method);
}

std::shared_ptr<const EventInterface> ClassCatalog::EventInterfaceOf(
    const std::string& cls, uint64_t* epoch) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  *epoch = ddl_epoch_.load(std::memory_order_relaxed);
  auto it = interfaces_.find(cls);
  return it == interfaces_.end() ? nullptr : it->second;
}

bool ClassCatalog::IsReactive(const std::string& cls) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = classes_.find(cls);
  return it != classes_.end() && it->second.reactive;
}

std::vector<std::string> ClassCatalog::ClassNames() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(classes_.size());
  for (const auto& [name, desc] : classes_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::string> ClassCatalog::SubclassesOf(
    const std::string& ancestor) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<std::string> out;
  for (const auto& [name, desc] : classes_) {
    if (IsSubclassOfLocked(name, ancestor)) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t ClassCatalog::size() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return classes_.size();
}

void ClassCatalog::Encode(Encoder* enc) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  // Emit in sorted order for deterministic bytes.
  std::vector<const ClassDescriptor*> ordered;
  ordered.reserve(classes_.size());
  for (const auto& [name, desc] : classes_) ordered.push_back(&desc);
  std::sort(ordered.begin(), ordered.end(),
            [](const ClassDescriptor* a, const ClassDescriptor* b) {
              return a->name < b->name;
            });
  enc->PutU32(static_cast<uint32_t>(ordered.size()));
  for (const ClassDescriptor* desc : ordered) {
    enc->PutString(desc->name);
    enc->PutBool(desc->reactive);
    enc->PutBool(desc->notifiable);
    enc->PutU32(static_cast<uint32_t>(desc->supers.size()));
    for (const std::string& super : desc->supers) enc->PutString(super);
    enc->PutU32(static_cast<uint32_t>(desc->methods.size()));
    for (const MethodDescriptor& m : desc->methods) {
      enc->PutString(m.name);
      enc->PutBool(m.events.begin);
      enc->PutBool(m.events.end);
    }
  }
}

Status ClassCatalog::Decode(Decoder* dec) {
  std::unique_lock<std::shared_mutex> lock(mutex_);
  // Moved while the lock is held: a reader that sees the new epoch then
  // blocks on the lock until the catalog is whole again.
  ddl_epoch_.store(NextEpoch(), std::memory_order_release);
  Status s = DecodeClassesLocked(dec);
  interfaces_.clear();
  for (const auto& [name, desc] : classes_) {
    interfaces_[name] = BuildInterfaceLocked(name);
  }
  return s;
}

Status ClassCatalog::DecodeClassesLocked(Decoder* dec) {
  classes_.clear();
  uint32_t count;
  SENTINEL_RETURN_IF_ERROR(dec->GetU32(&count));
  for (uint32_t i = 0; i < count; ++i) {
    ClassDescriptor desc;
    SENTINEL_RETURN_IF_ERROR(dec->GetString(&desc.name));
    SENTINEL_RETURN_IF_ERROR(dec->GetBool(&desc.reactive));
    SENTINEL_RETURN_IF_ERROR(dec->GetBool(&desc.notifiable));
    uint32_t nsupers;
    SENTINEL_RETURN_IF_ERROR(dec->GetU32(&nsupers));
    desc.supers.resize(nsupers);
    for (uint32_t j = 0; j < nsupers; ++j) {
      SENTINEL_RETURN_IF_ERROR(dec->GetString(&desc.supers[j]));
    }
    uint32_t nmethods;
    SENTINEL_RETURN_IF_ERROR(dec->GetU32(&nmethods));
    desc.methods.resize(nmethods);
    for (uint32_t j = 0; j < nmethods; ++j) {
      SENTINEL_RETURN_IF_ERROR(dec->GetString(&desc.methods[j].name));
      SENTINEL_RETURN_IF_ERROR(dec->GetBool(&desc.methods[j].events.begin));
      SENTINEL_RETURN_IF_ERROR(dec->GetBool(&desc.methods[j].events.end));
    }
    classes_.emplace(desc.name, std::move(desc));
  }
  return Status::OK();
}

}  // namespace sentinel
