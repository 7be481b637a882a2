// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// RuleManager: runtime creation, lookup, association, and persistence of
// rules — the ADAM-style half of the paper's synthesis (rules constructed
// at runtime), which together with class-declared rules compiles into "a
// uniform framework" (§1.1): both paths end in first-class Rule objects
// registered here.
//
// Conditions and actions are C++ callables; to persist rules across
// restarts they are registered by name in the FunctionRegistry and rebound
// on load (the analog of Zeitgeist resolving member-function pointers
// against the compiled application).

#ifndef SENTINEL_RULES_RULE_MANAGER_H_
#define SENTINEL_RULES_RULE_MANAGER_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/reactive.h"
#include "events/detector.h"
#include "oodb/object_store.h"
#include "rules/rule.h"
#include "rules/scheduler.h"

namespace sentinel {

/// Named condition/action bindings for rule persistence.
class FunctionRegistry {
 public:
  Status RegisterCondition(const std::string& name, RuleCondition fn);
  Status RegisterAction(const std::string& name, RuleAction fn);
  Result<RuleCondition> GetCondition(const std::string& name) const;
  Result<RuleAction> GetAction(const std::string& name) const;
  bool HasCondition(const std::string& name) const;
  bool HasAction(const std::string& name) const;

 private:
  std::map<std::string, RuleCondition> conditions_;
  std::map<std::string, RuleAction> actions_;
};

/// Declarative description of a rule to create. Event and condition/action
/// may be given directly or by registered/registry name.
struct RuleSpec {
  std::string name;

  EventPtr event;                ///< Direct event object, or ...
  std::string event_name;        ///< ... name registered in the detector.

  RuleCondition condition;       ///< Direct predicate (optional), or ...
  std::string condition_name;    ///< ... name in the FunctionRegistry.
  RuleAction action;             ///< Direct effect (optional), or ...
  std::string action_name;       ///< ... name in the FunctionRegistry.

  CouplingMode coupling = CouplingMode::kImmediate;
  int priority = 0;
  bool enabled = true;
};

/// Registry + lifecycle + persistence for first-class rule objects.
class RuleManager {
 public:
  RuleManager(RuleScheduler* scheduler, EventDetector* detector,
              FunctionRegistry* functions)
      : scheduler_(scheduler), detector_(detector), functions_(functions) {}

  RuleManager(const RuleManager&) = delete;
  RuleManager& operator=(const RuleManager&) = delete;

  // --- Lifecycle -------------------------------------------------------------

  /// Builds a Rule from `spec`, resolving names through the detector and
  /// function registry, wiring the scheduler, and registering it.
  Result<RulePtr> CreateRule(const RuleSpec& spec);

  Result<RulePtr> GetRule(const std::string& name) const;
  bool HasRule(const std::string& name) const { return rules_.count(name); }

  /// Removes a rule; its subscriptions on live objects are the caller's
  /// (Database's) responsibility to tear down.
  Status DeleteRule(const std::string& name);

  std::vector<std::string> RuleNames() const;
  size_t rule_count() const { return rules_.size(); }
  std::vector<RulePtr> AllRules() const;

  // --- Association -------------------------------------------------------------

  /// Instance-level association: the rule subscribes to `object`'s events
  /// and the object's oid is remembered for persistence/resubscription.
  Status ApplyToInstance(const RulePtr& rule, ReactiveObject* object);

  /// Reverses ApplyToInstance.
  Status RemoveFromInstance(const RulePtr& rule, ReactiveObject* object);

  /// Class-level marking: the rule applies to every instance of
  /// `class_name` (and subclasses). Live-object subscription is driven by
  /// the Database, which sees materializations.
  Status MarkClassLevel(const RulePtr& rule, const std::string& class_name);

  /// Rules whose target classes cover `class_name` (inheritance-aware), in
  /// rule-name order. Memoized per class until rule DDL on this manager or
  /// a change to `catalog`; the reference is valid until then.
  const std::vector<RulePtr>& RulesForClass(const std::string& class_name,
                                            const ClassCatalog& catalog) const;

  /// The same rules as one immutable consumer list, memoized alongside:
  /// every new object of the class can adopt this list instead of building
  /// its own (Reactive::SubscribeAll).
  const Reactive::ConsumerSnapshot& ConsumersForClass(
      const std::string& class_name, const ClassCatalog& catalog) const;

  /// Rules that monitor the specific instance `oid`.
  std::vector<RulePtr> RulesWantingInstance(Oid oid) const;

  // --- Persistence ----------------------------------------------------------------

  /// Stages every rule object into `txn` (their event graphs must be saved
  /// through the detector in the same transaction).
  Status SaveAll(ObjectStore* store, Transaction* txn);

  /// Restores rules from the store. The detector must have LoadAll'ed
  /// first so event oids resolve. Rules whose condition/action names are
  /// missing from the registry are loaded disabled.
  Status LoadAll(ObjectStore* store);

 private:
  RuleScheduler* scheduler_;
  EventDetector* detector_;
  FunctionRegistry* functions_;
  std::map<std::string, RulePtr> rules_;
  struct ClassRules {
    std::vector<RulePtr> rules;
    Reactive::ConsumerSnapshot consumers;
  };
  /// The memo entry for `class_name`, computed on first use.
  const ClassRules& ClassRulesFor(const std::string& class_name,
                                  const ClassCatalog& catalog) const;

  /// RulesForClass/ConsumersForClass memo, valid for the catalog whose
  /// ddl_epoch() is class_rules_epoch_; cleared by every rule DDL.
  mutable std::unordered_map<std::string, ClassRules> class_rules_;
  mutable uint64_t class_rules_epoch_ = 0;
};

}  // namespace sentinel

#endif  // SENTINEL_RULES_RULE_MANAGER_H_
