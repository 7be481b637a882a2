// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "rules/rule_manager.h"

#include <gtest/gtest.h>

#include "../test_util.h"

namespace sentinel {
namespace {

using testing_util::MakeOccurrence;
using testing_util::TempDir;

EventPtr Prim(const std::string& text) {
  auto result = PrimitiveEvent::Create(text);
  EXPECT_TRUE(result.ok());
  return result.value();
}

class RuleManagerTest : public ::testing::Test {
 protected:
  RuleManagerTest()
      : scheduler_(metrics_),
        detector_(metrics_),
        manager_(&scheduler_, &detector_, &functions_) {}

  MetricsRegistry metrics_;
  RuleScheduler scheduler_;
  EventDetector detector_;
  FunctionRegistry functions_;
  RuleManager manager_;
};

TEST_F(RuleManagerTest, CreateWithDirectPieces) {
  RuleSpec spec;
  spec.name = "r1";
  spec.event = Prim("end A::M");
  spec.condition = [](const RuleContext&) { return true; };
  spec.action = [](RuleContext&) { return Status::OK(); };
  auto rule = manager_.CreateRule(spec);
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule.value()->name(), "r1");
  EXPECT_TRUE(manager_.HasRule("r1"));
  EXPECT_EQ(manager_.rule_count(), 1u);
  EXPECT_EQ(manager_.GetRule("r1").value().get(), rule.value().get());
}

TEST_F(RuleManagerTest, CreateValidationErrors) {
  RuleSpec nameless;
  nameless.event = Prim("end A::M");
  EXPECT_TRUE(manager_.CreateRule(nameless).status().IsInvalidArgument());

  RuleSpec eventless;
  eventless.name = "r";
  EXPECT_TRUE(manager_.CreateRule(eventless).status().IsInvalidArgument());

  RuleSpec ok;
  ok.name = "r";
  ok.event = Prim("end A::M");
  ASSERT_TRUE(manager_.CreateRule(ok).ok());
  EXPECT_TRUE(manager_.CreateRule(ok).status().IsAlreadyExists());
}

TEST_F(RuleManagerTest, CreateResolvesNamesThroughRegistries) {
  ASSERT_TRUE(detector_.RegisterEvent("my-event", Prim("end A::M")).ok());
  ASSERT_TRUE(functions_
                  .RegisterCondition("always",
                                     [](const RuleContext&) { return true; })
                  .ok());
  int actions = 0;
  ASSERT_TRUE(functions_
                  .RegisterAction("count",
                                  [&actions](RuleContext&) {
                                    ++actions;
                                    return Status::OK();
                                  })
                  .ok());
  RuleSpec spec;
  spec.name = "named";
  spec.event_name = "my-event";
  spec.condition_name = "always";
  spec.action_name = "count";
  auto rule = manager_.CreateRule(spec);
  ASSERT_TRUE(rule.ok());
  rule.value()->Notify(MakeOccurrence(1, "A", "M"));
  EXPECT_EQ(actions, 1);
  // Missing names fail cleanly.
  RuleSpec bad;
  bad.name = "bad";
  bad.event_name = "ghost-event";
  EXPECT_TRUE(manager_.CreateRule(bad).status().IsNotFound());
}

TEST_F(RuleManagerTest, DeleteRule) {
  RuleSpec spec;
  spec.name = "r";
  spec.event = Prim("end A::M");
  ASSERT_TRUE(manager_.CreateRule(spec).ok());
  ASSERT_TRUE(manager_.DeleteRule("r").ok());
  EXPECT_FALSE(manager_.HasRule("r"));
  EXPECT_TRUE(manager_.DeleteRule("r").IsNotFound());
}

TEST_F(RuleManagerTest, ApplyToInstanceSubscribesAndTracks) {
  RuleSpec spec;
  spec.name = "r";
  spec.event = Prim("end Stock::SetPrice");
  auto rule = manager_.CreateRule(spec);
  ASSERT_TRUE(rule.ok());

  ReactiveObject stock("Stock", 42);
  ASSERT_TRUE(manager_.ApplyToInstance(rule.value(), &stock).ok());
  EXPECT_TRUE(stock.IsSubscribed(rule.value().get()));
  EXPECT_EQ(rule.value()->monitored_instances(), (std::vector<Oid>{42}));
  // The wiring actually delivers.
  stock.RaiseEvent("SetPrice", EventModifier::kEnd, {Value(10.0)});
  EXPECT_EQ(rule.value()->triggered_count(), 1u);

  ASSERT_TRUE(manager_.RemoveFromInstance(rule.value(), &stock).ok());
  EXPECT_FALSE(stock.IsSubscribed(rule.value().get()));
  EXPECT_TRUE(rule.value()->monitored_instances().empty());
}

TEST_F(RuleManagerTest, RulesWantingInstance) {
  RuleSpec spec;
  spec.name = "r";
  spec.event = Prim("end Stock::SetPrice");
  auto rule = manager_.CreateRule(spec);
  ASSERT_TRUE(rule.ok());
  ReactiveObject stock("Stock", 42);
  ASSERT_TRUE(manager_.ApplyToInstance(rule.value(), &stock).ok());
  auto wanting = manager_.RulesWantingInstance(42);
  ASSERT_EQ(wanting.size(), 1u);
  EXPECT_EQ(wanting[0].get(), rule.value().get());
  EXPECT_TRUE(manager_.RulesWantingInstance(43).empty());
}

TEST_F(RuleManagerTest, ClassLevelRulesFollowInheritance) {
  ClassCatalog catalog;
  ASSERT_TRUE(catalog.RegisterClass(
      ClassBuilder("Employee").Reactive().Build()).ok());
  ASSERT_TRUE(catalog.RegisterClass(
      ClassBuilder("Manager").Extends("Employee").Build()).ok());
  ASSERT_TRUE(catalog.RegisterClass(ClassBuilder("Stock").Reactive().Build())
                  .ok());

  RuleSpec spec;
  spec.name = "emp-rule";
  spec.event = Prim("end Employee::ChangeIncome");
  auto rule = manager_.CreateRule(spec);
  ASSERT_TRUE(rule.ok());
  ASSERT_TRUE(manager_.MarkClassLevel(rule.value(), "Employee").ok());
  EXPECT_TRUE(
      manager_.MarkClassLevel(rule.value(), "Employee").IsAlreadyExists());

  auto for_employee = manager_.RulesForClass("Employee", catalog);
  auto for_manager = manager_.RulesForClass("Manager", catalog);
  auto for_stock = manager_.RulesForClass("Stock", catalog);
  EXPECT_EQ(for_employee.size(), 1u);
  EXPECT_EQ(for_manager.size(), 1u);  // Subclasses inherit rules.
  EXPECT_TRUE(for_stock.empty());
}

class RuleManagerPersistenceTest : public RuleManagerTest {
 protected:
  RuleManagerPersistenceTest() : dir_("rules") {
    EXPECT_TRUE(store_.Open(dir_.path()).ok());
  }

  Status SaveAllInTxn() {
    auto txn = store_.txns()->Begin();
    SENTINEL_RETURN_IF_ERROR(detector_.SaveAll(&store_, txn.get()));
    SENTINEL_RETURN_IF_ERROR(manager_.SaveAll(&store_, txn.get()));
    return store_.txns()->Commit(txn.get());
  }

  TempDir dir_;
  ObjectStore store_{metrics_};
};

TEST_F(RuleManagerPersistenceTest, SaveLoadWithNamedBindings) {
  ASSERT_TRUE(functions_
                  .RegisterCondition("gt100",
                                     [](const RuleContext& ctx) {
                                       return ctx.params()[0] > Value(100);
                                     })
                  .ok());
  int fired = 0;
  ASSERT_TRUE(functions_
                  .RegisterAction("notify",
                                  [&fired](RuleContext&) {
                                    ++fired;
                                    return Status::OK();
                                  })
                  .ok());
  EventPtr event = Prim("end Stock::SetPrice");
  ASSERT_TRUE(detector_.RegisterEvent("price-set", event).ok());
  RuleSpec spec;
  spec.name = "expensive";
  spec.event = event;
  spec.condition_name = "gt100";
  spec.action_name = "notify";
  spec.coupling = CouplingMode::kImmediate;
  spec.priority = 3;
  ASSERT_TRUE(manager_.CreateRule(spec).ok());
  ASSERT_TRUE(SaveAllInTxn().ok());

  // Fresh world: detector first, then rules rebinding through the shared
  // function registry.
  EventDetector detector2(metrics_);
  RuleManager manager2(&scheduler_, &detector2, &functions_);
  ASSERT_TRUE(detector2.LoadAll(&store_).ok());
  ASSERT_TRUE(manager2.LoadAll(&store_).ok());
  auto restored = manager2.GetRule("expensive");
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored.value()->enabled());  // Named bindings restore fine.
  EXPECT_EQ(restored.value()->priority(), 3);

  // The restored rule is functional end to end.
  restored.value()->Notify(MakeOccurrence(1, "Stock", "SetPrice",
                                          EventModifier::kEnd,
                                          {Value(150)}));
  EXPECT_EQ(fired, 1);
  restored.value()->Notify(MakeOccurrence(1, "Stock", "SetPrice",
                                          EventModifier::kEnd,
                                          {Value(50)}));
  EXPECT_EQ(fired, 1);  // Condition filters.
}

TEST_F(RuleManagerPersistenceTest, AnonymousClosuresLoadDisabled) {
  RuleSpec spec;
  spec.name = "anon";
  spec.event = Prim("end A::M");
  spec.condition = [](const RuleContext&) { return true; };
  spec.action = [](RuleContext&) { return Status::OK(); };
  ASSERT_TRUE(manager_.CreateRule(spec).ok());
  ASSERT_TRUE(SaveAllInTxn().ok());

  EventDetector detector2(metrics_);
  RuleManager manager2(&scheduler_, &detector2, &functions_);
  ASSERT_TRUE(detector2.LoadAll(&store_).ok());
  ASSERT_TRUE(manager2.LoadAll(&store_).ok());
  auto restored = manager2.GetRule("anon");
  ASSERT_TRUE(restored.ok());
  EXPECT_FALSE(restored.value()->enabled());
}

TEST_F(RuleManagerPersistenceTest, MissingRegisteredNameLoadsDisabled) {
  ASSERT_TRUE(functions_
                  .RegisterAction("temp", [](RuleContext&) {
                    return Status::OK();
                  })
                  .ok());
  RuleSpec spec;
  spec.name = "needs-temp";
  spec.event = Prim("end A::M");
  spec.action_name = "temp";
  ASSERT_TRUE(manager_.CreateRule(spec).ok());
  ASSERT_TRUE(SaveAllInTxn().ok());

  // Reload with an EMPTY registry: the binding is gone.
  FunctionRegistry empty;
  EventDetector detector2(metrics_);
  RuleManager manager2(&scheduler_, &detector2, &empty);
  ASSERT_TRUE(detector2.LoadAll(&store_).ok());
  ASSERT_TRUE(manager2.LoadAll(&store_).ok());
  EXPECT_FALSE(manager2.GetRule("needs-temp").value()->enabled());
}

TEST_F(RuleManagerPersistenceTest, MonitoredInstancesSurvive) {
  RuleSpec spec;
  spec.name = "r";
  spec.event = Prim("end Stock::SetPrice");
  auto rule = manager_.CreateRule(spec);
  ASSERT_TRUE(rule.ok());
  ReactiveObject stock("Stock", 4242);
  ASSERT_TRUE(manager_.ApplyToInstance(rule.value(), &stock).ok());
  ASSERT_TRUE(SaveAllInTxn().ok());

  EventDetector detector2(metrics_);
  RuleManager manager2(&scheduler_, &detector2, &functions_);
  ASSERT_TRUE(detector2.LoadAll(&store_).ok());
  ASSERT_TRUE(manager2.LoadAll(&store_).ok());
  EXPECT_EQ(manager2.GetRule("r").value()->monitored_instances(),
            (std::vector<Oid>{4242}));
  EXPECT_EQ(manager2.RulesWantingInstance(4242).size(), 1u);
}

// --- FunctionRegistry -----------------------------------------------------------

TEST(FunctionRegistryTest, RegisterAndLookup) {
  FunctionRegistry registry;
  ASSERT_TRUE(registry
                  .RegisterCondition("c", [](const RuleContext&) {
                    return true;
                  })
                  .ok());
  ASSERT_TRUE(
      registry.RegisterAction("a", [](RuleContext&) { return Status::OK(); })
          .ok());
  EXPECT_TRUE(registry.HasCondition("c"));
  EXPECT_TRUE(registry.HasAction("a"));
  EXPECT_FALSE(registry.HasCondition("a"));
  EXPECT_TRUE(registry.GetCondition("c").ok());
  EXPECT_TRUE(registry.GetAction("a").ok());
  EXPECT_TRUE(registry.GetCondition("ghost").status().IsNotFound());
  // Duplicates rejected.
  EXPECT_TRUE(registry
                  .RegisterCondition("c", [](const RuleContext&) {
                    return false;
                  })
                  .IsAlreadyExists());
}

}  // namespace
}  // namespace sentinel
