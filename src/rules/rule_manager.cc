// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "rules/rule_manager.h"

#include <algorithm>

#include "common/logging.h"

namespace sentinel {

// --- FunctionRegistry ---------------------------------------------------------

Status FunctionRegistry::RegisterCondition(const std::string& name,
                                           RuleCondition fn) {
  if (conditions_.count(name)) return Status::AlreadyExists(name);
  conditions_.emplace(name, std::move(fn));
  return Status::OK();
}

Status FunctionRegistry::RegisterAction(const std::string& name,
                                        RuleAction fn) {
  if (actions_.count(name)) return Status::AlreadyExists(name);
  actions_.emplace(name, std::move(fn));
  return Status::OK();
}

Result<RuleCondition> FunctionRegistry::GetCondition(
    const std::string& name) const {
  auto it = conditions_.find(name);
  if (it == conditions_.end()) return Status::NotFound("condition " + name);
  return it->second;
}

Result<RuleAction> FunctionRegistry::GetAction(
    const std::string& name) const {
  auto it = actions_.find(name);
  if (it == actions_.end()) return Status::NotFound("action " + name);
  return it->second;
}

bool FunctionRegistry::HasCondition(const std::string& name) const {
  return conditions_.count(name) != 0;
}

bool FunctionRegistry::HasAction(const std::string& name) const {
  return actions_.count(name) != 0;
}

// --- RuleManager -----------------------------------------------------------------

Result<RulePtr> RuleManager::CreateRule(const RuleSpec& spec) {
  if (spec.name.empty()) {
    return Status::InvalidArgument("rule needs a name");
  }
  if (rules_.count(spec.name)) {
    return Status::AlreadyExists("rule " + spec.name);
  }

  EventPtr event = spec.event;
  if (event == nullptr && !spec.event_name.empty()) {
    if (detector_ == nullptr) {
      return Status::FailedPrecondition("no detector to resolve event name");
    }
    SENTINEL_ASSIGN_OR_RETURN(event, detector_->GetEvent(spec.event_name));
  }
  if (event == nullptr) {
    return Status::InvalidArgument("rule " + spec.name + " needs an event");
  }

  RuleCondition condition = spec.condition;
  std::string condition_name = spec.condition_name;
  if (!condition && !condition_name.empty()) {
    if (functions_ == nullptr) {
      return Status::FailedPrecondition("no function registry");
    }
    SENTINEL_ASSIGN_OR_RETURN(condition,
                              functions_->GetCondition(condition_name));
  }
  RuleAction action = spec.action;
  std::string action_name = spec.action_name;
  if (!action && !action_name.empty()) {
    if (functions_ == nullptr) {
      return Status::FailedPrecondition("no function registry");
    }
    SENTINEL_ASSIGN_OR_RETURN(action, functions_->GetAction(action_name));
  }

  auto rule = std::make_shared<Rule>(spec.name, std::move(event), nullptr,
                                     nullptr, spec.coupling, spec.priority);
  rule->SetCondition(std::move(condition), condition_name);
  rule->SetAction(std::move(action), action_name);
  rule->AttachScheduler(scheduler_);
  if (!spec.enabled) rule->Disable();
  rules_.emplace(spec.name, rule);
  class_rules_.clear();
  return rule;
}

Result<RulePtr> RuleManager::GetRule(const std::string& name) const {
  auto it = rules_.find(name);
  if (it == rules_.end()) return Status::NotFound("rule " + name);
  return it->second;
}

Status RuleManager::DeleteRule(const std::string& name) {
  if (rules_.erase(name) == 0) return Status::NotFound("rule " + name);
  class_rules_.clear();
  return Status::OK();
}

std::vector<std::string> RuleManager::RuleNames() const {
  std::vector<std::string> names;
  names.reserve(rules_.size());
  for (const auto& [name, rule] : rules_) names.push_back(name);
  return names;
}

std::vector<RulePtr> RuleManager::AllRules() const {
  std::vector<RulePtr> out;
  out.reserve(rules_.size());
  for (const auto& [name, rule] : rules_) out.push_back(rule);
  return out;
}

Status RuleManager::ApplyToInstance(const RulePtr& rule,
                                    ReactiveObject* object) {
  if (object == nullptr) return Status::InvalidArgument("null object");
  SENTINEL_RETURN_IF_ERROR(object->Subscribe(rule.get()));
  auto& monitored = rule->monitored_instances();
  if (object->oid() != kInvalidOid &&
      std::find(monitored.begin(), monitored.end(), object->oid()) ==
          monitored.end()) {
    monitored.push_back(object->oid());
  }
  return Status::OK();
}

Status RuleManager::RemoveFromInstance(const RulePtr& rule,
                                       ReactiveObject* object) {
  if (object == nullptr) return Status::InvalidArgument("null object");
  SENTINEL_RETURN_IF_ERROR(object->Unsubscribe(rule.get()));
  auto& monitored = rule->monitored_instances();
  monitored.erase(
      std::remove(monitored.begin(), monitored.end(), object->oid()),
      monitored.end());
  return Status::OK();
}

Status RuleManager::MarkClassLevel(const RulePtr& rule,
                                   const std::string& class_name) {
  auto& targets = rule->target_classes();
  if (std::find(targets.begin(), targets.end(), class_name) !=
      targets.end()) {
    return Status::AlreadyExists("rule already targets " + class_name);
  }
  targets.push_back(class_name);
  class_rules_.clear();
  return Status::OK();
}

const std::vector<RulePtr>& RuleManager::RulesForClass(
    const std::string& class_name, const ClassCatalog& catalog) const {
  return ClassRulesFor(class_name, catalog).rules;
}

const Reactive::ConsumerSnapshot& RuleManager::ConsumersForClass(
    const std::string& class_name, const ClassCatalog& catalog) const {
  return ClassRulesFor(class_name, catalog).consumers;
}

const RuleManager::ClassRules& RuleManager::ClassRulesFor(
    const std::string& class_name, const ClassCatalog& catalog) const {
  const uint64_t epoch = catalog.ddl_epoch();
  if (class_rules_epoch_ != epoch) {
    class_rules_.clear();
    class_rules_epoch_ = epoch;
  }
  auto [it, inserted] = class_rules_.try_emplace(class_name);
  ClassRules& entry = it->second;
  if (!inserted) return entry;
  auto consumers = std::make_shared<Reactive::ConsumerList>();
  for (const auto& [name, rule] : rules_) {
    for (const std::string& target : rule->target_classes()) {
      // A rule on class T applies to instances of T and its subclasses.
      if (catalog.IsSubclassOf(class_name, target)) {
        entry.rules.push_back(rule);
        consumers->push_back(rule.get());
        break;
      }
    }
  }
  entry.consumers = std::move(consumers);
  return entry;
}

std::vector<RulePtr> RuleManager::RulesWantingInstance(Oid oid) const {
  std::vector<RulePtr> out;
  for (const auto& [name, rule] : rules_) {
    const auto& monitored = rule->monitored_instances();
    if (std::find(monitored.begin(), monitored.end(), oid) !=
        monitored.end()) {
      out.push_back(rule);
    }
  }
  return out;
}

Status RuleManager::SaveAll(ObjectStore* store, Transaction* txn) {
  for (const auto& [name, rule] : rules_) {
    if (rule->oid() == kInvalidOid) rule->set_oid(store->NewOid());
    Encoder enc;
    rule->SerializeState(&enc);
    SENTINEL_RETURN_IF_ERROR(
        store->Put(txn, rule->oid(), rule->class_name(), enc.Release()));
  }
  return Status::OK();
}

Status RuleManager::LoadAll(ObjectStore* store) {
  rules_.clear();
  class_rules_.clear();
  for (Oid oid : store->Extent("Rule")) {
    std::string class_name, state;
    SENTINEL_RETURN_IF_ERROR(store->Get(nullptr, oid, &class_name, &state));
    auto rule = std::make_shared<Rule>("", nullptr, nullptr, nullptr);
    Decoder dec(state);
    SENTINEL_RETURN_IF_ERROR(rule->DeserializeState(&dec));
    rule->set_oid(oid);
    rule->AttachScheduler(scheduler_);

    // Relink the event graph (the detector restored it first).
    if (rule->persisted_event_oid() != kInvalidOid) {
      if (detector_ == nullptr) {
        return Status::FailedPrecondition("no detector to relink events");
      }
      Result<EventPtr> event =
          detector_->FindByOid(rule->persisted_event_oid());
      if (!event.ok()) {
        return Status::Corruption("rule " + rule->name() +
                                  " references missing event " +
                                  OidToString(rule->persisted_event_oid()));
      }
      rule->SetEvent(event.value());
    }

    // Rebind condition/action by registered name; a missing binding (or an
    // anonymous closure that cannot be restored) loads the rule disabled
    // rather than failing the whole database.
    bool bindable =
        !rule->had_anonymous_condition() && !rule->had_anonymous_action();
    if (!rule->condition_name().empty()) {
      if (functions_ != nullptr &&
          functions_->HasCondition(rule->condition_name())) {
        rule->SetCondition(
            functions_->GetCondition(rule->condition_name()).value(),
            rule->condition_name());
      } else {
        bindable = false;
      }
    }
    if (!rule->action_name().empty()) {
      if (functions_ != nullptr &&
          functions_->HasAction(rule->action_name())) {
        rule->SetAction(functions_->GetAction(rule->action_name()).value(),
                        rule->action_name());
      } else {
        bindable = false;
      }
    }
    if (!bindable && rule->enabled()) {
      SENTINEL_WARN << "event=rule_loaded_disabled rule=" << rule->name()
                    << " reason=\"condition/action not registered\"";
      rule->Disable();
    }
    rules_.emplace(rule->name(), std::move(rule));
  }
  return Status::OK();
}

}  // namespace sentinel
