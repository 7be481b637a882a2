// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "events/detector.h"

#include <algorithm>

#include "common/logging.h"

namespace sentinel {

namespace {

constexpr char kEventIndexClass[] = "__event_index__";

// Operators start with null children; LoadAll relinks them.
constexpr EventClass kEventClasses[] = {
    {"PrimitiveEvent",
     [](const ClassCatalog* catalog) -> EventPtr {
       auto prim = std::make_shared<PrimitiveEvent>(EventSignature{});
       prim->set_catalog(catalog);
       return prim;
     }},
    {"Conjunction",
     [](const ClassCatalog*) { return And(nullptr, nullptr); }},
    {"Disjunction",
     [](const ClassCatalog*) { return Or(nullptr, nullptr); }},
    {"Sequence",
     [](const ClassCatalog*) { return Seq(nullptr, nullptr); }},
    {"AnyEvent",
     [](const ClassCatalog*) { return Any(0, {}); }},
    {"NotEvent",
     [](const ClassCatalog*) { return Not(nullptr, nullptr, nullptr); }},
    {"AperiodicEvent",
     [](const ClassCatalog*) { return Aperiodic(nullptr, nullptr, nullptr); }},
    {"PeriodicEvent",
     [](const ClassCatalog*) { return Periodic(nullptr, 1, nullptr); }},
    {"PlusEvent",
     [](const ClassCatalog*) { return Plus(nullptr, 0); }},
    {"EveryEvent",
     [](const ClassCatalog*) { return Every(1, nullptr); }},
};

}  // namespace

std::span<const EventClass> EventClasses() { return kEventClasses; }

Status EventDetector::RegisterEvent(const std::string& name,
                                    EventPtr event) {
  if (event == nullptr) return Status::InvalidArgument("null event");
  if (named_.count(name) != 0) {
    return Status::AlreadyExists("event " + name);
  }
  if (event->oid() != kInvalidOid) oid_index_[event->oid()] = event;
  named_.emplace(name, std::move(event));
  return Status::OK();
}

Result<EventPtr> EventDetector::GetEvent(const std::string& name) const {
  auto it = named_.find(name);
  if (it == named_.end()) return Status::NotFound("event " + name);
  return it->second;
}

Status EventDetector::UnregisterEvent(const std::string& name) {
  auto it = named_.find(name);
  if (it == named_.end()) return Status::NotFound("event " + name);
  Oid oid = it->second->oid();
  named_.erase(it);
  // Evict from the oid index unless something else still registers the
  // node (an alias name, or the loaded_ cache from LoadAll).
  if (oid != kInvalidOid && loaded_.count(oid) == 0) {
    bool aliased = false;
    for (const auto& [other_name, event] : named_) {
      if (event->oid() == oid) {
        aliased = true;
        break;
      }
    }
    if (!aliased) oid_index_.erase(oid);
  }
  return Status::OK();
}

std::vector<std::string> EventDetector::EventNames() const {
  std::vector<std::string> names;
  names.reserve(named_.size());
  for (const auto& [name, event] : named_) names.push_back(name);
  return names;
}

Result<EventPtr> EventDetector::FindByOid(Oid oid) const {
  if (oid == kInvalidOid) return Status::InvalidArgument("invalid oid");
  auto it = oid_index_.find(oid);
  if (it != oid_index_.end()) return it->second;
  return Status::NotFound("no event with " + OidToString(oid));
}

void EventDetector::SetShardCount(size_t shards) {
  if (shards < 1) shards = 1;
  while (segments_.size() < shards) {
    segments_.push_back(std::make_unique<LogSegment>());
  }
  // Never shrink: segment addresses must stay stable for live shards.
}

void EventDetector::RecordOccurrence(const EventOccurrence& occ,
                                     size_t shard) {
  if (shard >= segments_.size()) shard = 0;
  LogSegment& seg = *segments_[shard];
  seg.log.push_back(OccurrenceShare::CopyOf(occ));
  m_occurrences_->Add();
  TrimLog(&seg, shard);
}

void EventDetector::set_log_capacity(size_t capacity) {
  log_capacity_ = capacity;
  for (size_t i = 0; i < segments_.size(); ++i) {
    TrimLog(segments_[i].get(), i);
  }
}

void EventDetector::TrimLog(LogSegment* segment, size_t shard) {
  while (segment->log.size() > log_capacity_) {
    // Spill before dropping: the history store turns the FIFO eviction
    // into an append to the shard's durable segment file.
    if (spill_sink_) spill_sink_(shard, *segment->log.front());
    segment->log.pop_front();
    m_trimmed_->Add();
  }
}

std::vector<EventOccurrence> EventDetector::MergedLog() const {
  std::vector<EventOccurrence> merged;
  for (const auto& seg : segments_) {
    for (const OccurrencePtr& occ : seg->log) merged.push_back(*occ);
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const EventOccurrence& a, const EventOccurrence& b) {
                     return a.timestamp < b.timestamp;
                   });
  return merged;
}

void EventDetector::AdvanceTime(const Timestamp& now) {
  for (const auto& [name, event] : named_) event->AdvanceTime(now);
}

std::vector<Event*> EventDetector::ReachableNodes() const {
  std::vector<Event*> nodes;
  std::vector<Event*> stack;
  for (const auto& [name, event] : named_) stack.push_back(event.get());
  while (!stack.empty()) {
    Event* node = stack.back();
    stack.pop_back();
    if (std::find(nodes.begin(), nodes.end(), node) != nodes.end()) continue;
    nodes.push_back(node);
    for (Event* child : node->Children()) stack.push_back(child);
  }
  return nodes;
}

Status EventDetector::SaveAll(ObjectStore* store, Transaction* txn) {
  // Phase 1: make sure every reachable node has an oid (children first is
  // unnecessary — oids are assigned before any serialization happens).
  std::vector<Event*> nodes = ReachableNodes();
  for (Event* node : nodes) {
    if (node->oid() == kInvalidOid) node->set_oid(store->NewOid());
  }
  // Roots registered before they had oids become findable by oid now.
  for (const auto& [name, event] : named_) {
    oid_index_[event->oid()] = event;
  }
  // Phase 2: serialize each node (child oids are now stable).
  for (Event* node : nodes) {
    Encoder enc;
    node->SerializeState(&enc);
    SENTINEL_RETURN_IF_ERROR(
        store->Put(txn, node->oid(), node->class_name(), enc.Release()));
  }
  // Phase 3: persist the name index.
  Encoder index;
  index.PutU32(static_cast<uint32_t>(named_.size()));
  for (const auto& [name, event] : named_) {
    index.PutString(name);
    index.PutU64(event->oid());
  }
  return store->Put(txn, kEventIndexOid, kEventIndexClass, index.Release());
}

Status EventDetector::LoadAll(ObjectStore* store) {
  Status s = LoadGraph(store);
  if (!s.ok()) {
    named_.clear();
    loaded_.clear();
    oid_index_.clear();
  }
  return s;
}

Status EventDetector::LoadGraph(ObjectStore* store) {
  named_.clear();
  loaded_.clear();
  oid_index_.clear();

  // Phase 1: instantiate every persisted event node.
  for (const EventClass& cls : EventClasses()) {
    for (Oid oid : store->Extent(cls.name)) {
      std::string class_name, state;
      SENTINEL_RETURN_IF_ERROR(
          store->Get(nullptr, oid, &class_name, &state));
      EventPtr node = cls.make(catalog_);
      Decoder dec(state);
      SENTINEL_RETURN_IF_ERROR(node->DeserializeState(&dec));
      if (!dec.AtEnd()) {
        return Status::Corruption(
            std::string(cls.name).append(" ").append(OidToString(oid))
                .append(" has ").append(std::to_string(dec.remaining()))
                .append(" trailing bytes"));
      }
      node->set_oid(oid);
      oid_index_[oid] = node;
      loaded_[oid] = std::move(node);
    }
  }

  // Phase 2: relink operator children.
  auto lookup = [this](Oid oid) -> EventPtr {
    auto it = loaded_.find(oid);
    return it == loaded_.end() ? nullptr : it->second;
  };
  for (auto& [oid, node] : loaded_) {
    if (auto* op = dynamic_cast<CompositeEvent*>(node.get())) {
      SENTINEL_RETURN_IF_ERROR(op->Relink(lookup));
    }
  }

  // Phase 3: restore the name index.
  std::string class_name, state;
  Status s = store->Get(nullptr, kEventIndexOid, &class_name, &state);
  if (s.IsNotFound()) return Status::OK();  // Nothing was ever saved.
  SENTINEL_RETURN_IF_ERROR(s);
  Decoder dec(state);
  uint32_t count;
  SENTINEL_RETURN_IF_ERROR(dec.GetU32(&count));
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    Oid oid;
    SENTINEL_RETURN_IF_ERROR(dec.GetString(&name));
    SENTINEL_RETURN_IF_ERROR(dec.GetU64(&oid));
    EventPtr root = lookup(oid);
    if (root == nullptr) {
      return Status::Corruption("event index references missing " +
                                OidToString(oid));
    }
    named_[name] = std::move(root);
  }
  if (dec.remaining() != 0) {
    // The count said we were done but bytes follow — a truncated count or
    // spliced record. Accepting it would silently drop whatever the extra
    // bytes encoded.
    return Status::Corruption(
        "event name index has " + std::to_string(dec.remaining()) +
        " trailing bytes after " + std::to_string(count) + " entries");
  }
  SENTINEL_INFO << "event=events_restored named=" << named_.size()
                << " nodes=" << loaded_.size();
  return Status::OK();
}

}  // namespace sentinel
