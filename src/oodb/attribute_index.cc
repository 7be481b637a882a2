// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "oodb/attribute_index.h"

#include <algorithm>

#include "oodb/object.h"

namespace sentinel {

namespace {

/// Rank for cross-type ordering. Numerics share a rank so ints and doubles
/// interleave by magnitude.
int TypeRank(const Value& v) {
  switch (v.type()) {
    case Value::Type::kNull:
      return 0;
    case Value::Type::kBool:
      return 1;
    case Value::Type::kInt:
    case Value::Type::kDouble:
      return 2;
    case Value::Type::kString:
      return 3;
    case Value::Type::kOid:
      return 4;
  }
  return 5;
}

}  // namespace

bool ValueLess::operator()(const Value& a, const Value& b) const {
  int ra = TypeRank(a), rb = TypeRank(b);
  if (ra != rb) return ra < rb;
  switch (ra) {
    case 0:
      return false;  // All nulls equal.
    case 1:
      return !a.AsBool() && b.AsBool();
    case 2:
      return a.AsDouble() < b.AsDouble();
    case 3:
      return a.AsString() < b.AsString();
    case 4:
      return a.AsOid() < b.AsOid();
    default:
      return false;
  }
}

Status AttributeIndex::CreateIndex(const IndexSpec& spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spec.class_name.empty() || spec.attribute.empty()) {
    return Status::InvalidArgument("index needs class and attribute");
  }
  if (indexes_.count(spec)) {
    return Status::AlreadyExists("index " + spec.ToString());
  }
  indexes_.emplace(spec, OneIndex{});
  return Status::OK();
}

Status AttributeIndex::DropIndex(const IndexSpec& spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = indexes_.find(spec);
  if (it == indexes_.end()) {
    return Status::NotFound("index " + spec.ToString());
  }
  indexes_.erase(it);
  for (auto& [oid, refs] : reverse_) {
    refs.erase(std::remove_if(refs.begin(), refs.end(),
                              [&spec](const auto& ref) {
                                return ref.first == spec;
                              }),
               refs.end());
  }
  return Status::OK();
}

bool AttributeIndex::HasIndex(const IndexSpec& spec) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return indexes_.count(spec) != 0;
}

std::vector<IndexSpec> AttributeIndex::Specs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<IndexSpec> out;
  out.reserve(indexes_.size());
  for (const auto& [spec, index] : indexes_) out.push_back(spec);
  return out;
}

void AttributeIndex::EraseOidLocked(Oid oid) {
  auto rit = reverse_.find(oid);
  if (rit == reverse_.end()) return;
  for (const auto& [spec, value] : rit->second) {
    auto iit = indexes_.find(spec);
    if (iit == indexes_.end()) continue;
    auto vit = iit->second.entries.find(value);
    if (vit == iit->second.entries.end()) continue;
    vit->second.erase(oid);
    if (vit->second.empty()) iit->second.entries.erase(vit);
  }
  reverse_.erase(rit);
}

void AttributeIndex::OnCommittedPut(Oid oid, std::string_view class_name,
                                    std::string_view state) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Is any index interested in this class at all?
  bool interested = false;
  for (const auto& [spec, index] : indexes_) {
    if (spec.class_name == class_name) {
      interested = true;
      break;
    }
  }
  EraseOidLocked(oid);  // Updates replace previous entries.
  if (!interested) return;

  // Decode the default attribute-map serialization.
  PersistentObject probe(std::string(class_name), oid);
  Decoder dec(state);
  if (!probe.DeserializeState(&dec).ok() || !dec.AtEnd()) {
    ++unindexable_;
    return;
  }
  std::vector<std::pair<IndexSpec, Value>> refs;
  for (auto& [spec, index] : indexes_) {
    if (spec.class_name != class_name) continue;
    if (!probe.HasAttr(spec.attribute)) continue;
    Value value = probe.GetAttr(spec.attribute);
    index.entries[value].insert(oid);
    refs.emplace_back(spec, value);
  }
  if (!refs.empty()) {
    reverse_[oid] = std::move(refs);
    ++indexed_;
  }
}

void AttributeIndex::OnCommittedDelete(Oid oid) {
  std::lock_guard<std::mutex> lock(mutex_);
  EraseOidLocked(oid);
}

void AttributeIndex::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [spec, index] : indexes_) index.entries.clear();
  reverse_.clear();
  indexed_ = 0;
  unindexable_ = 0;
}

Result<std::vector<Oid>> AttributeIndex::Lookup(const IndexSpec& spec,
                                                const Value& value) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = indexes_.find(spec);
  if (it == indexes_.end()) {
    return Status::NotFound("index " + spec.ToString());
  }
  auto vit = it->second.entries.find(value);
  if (vit == it->second.entries.end()) return std::vector<Oid>{};
  return std::vector<Oid>(vit->second.begin(), vit->second.end());
}

Result<std::vector<Oid>> AttributeIndex::Range(const IndexSpec& spec,
                                               const Value& lo,
                                               const Value& hi) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = indexes_.find(spec);
  if (it == indexes_.end()) {
    return Status::NotFound("index " + spec.ToString());
  }
  const auto& entries = it->second.entries;
  auto begin = lo.is_null() ? entries.begin() : entries.lower_bound(lo);
  auto end = hi.is_null() ? entries.end() : entries.upper_bound(hi);
  std::vector<Oid> out;
  for (auto vit = begin; vit != end; ++vit) {
    out.insert(out.end(), vit->second.begin(), vit->second.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<Value>> AttributeIndex::Keys(const IndexSpec& spec) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = indexes_.find(spec);
  if (it == indexes_.end()) {
    return Status::NotFound("index " + spec.ToString());
  }
  std::vector<Value> out;
  out.reserve(it->second.entries.size());
  for (const auto& [value, oids] : it->second.entries) out.push_back(value);
  return out;
}

void AttributeIndex::EncodeSpecs(Encoder* enc) const {
  std::lock_guard<std::mutex> lock(mutex_);
  enc->PutU32(static_cast<uint32_t>(indexes_.size()));
  for (const auto& [spec, index] : indexes_) {
    enc->PutString(spec.class_name);
    enc->PutString(spec.attribute);
  }
}

Status AttributeIndex::DecodeSpecs(Decoder* dec) {
  uint32_t count;
  SENTINEL_RETURN_IF_ERROR(dec->GetU32(&count));
  std::lock_guard<std::mutex> lock(mutex_);
  indexes_.clear();
  reverse_.clear();
  for (uint32_t i = 0; i < count; ++i) {
    IndexSpec spec;
    SENTINEL_RETURN_IF_ERROR(dec->GetString(&spec.class_name));
    SENTINEL_RETURN_IF_ERROR(dec->GetString(&spec.attribute));
    indexes_.emplace(spec, OneIndex{});
  }
  return Status::OK();
}

}  // namespace sentinel
