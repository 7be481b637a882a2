// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "baselines/adam_engine.h"

#include <gtest/gtest.h>

namespace sentinel {
namespace baselines {
namespace {

class AdamEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.DefineClass("employee").ok());
    ASSERT_TRUE(engine_.DefineClass("manager", "employee").ok());
  }

  AdamEngine engine_;
};

TEST_F(AdamEngineTest, EventObjectsAreShared) {
  auto e1 = engine_.DefineEvent("Set-Salary", AdamWhen::kAfter);
  auto e2 = engine_.DefineEvent("Set-Salary", AdamWhen::kAfter);
  auto e3 = engine_.DefineEvent("Set-Salary", AdamWhen::kBefore);
  ASSERT_TRUE(e1.ok() && e2.ok() && e3.ok());
  EXPECT_EQ(e1.value(), e2.value());  // "Only one event object needed."
  EXPECT_NE(e1.value(), e3.value());
}

TEST_F(AdamEngineTest, RuleFiresForActiveClassInstances) {
  auto event = engine_.DefineEvent("Set-Salary", AdamWhen::kAfter);
  ASSERT_TRUE(event.ok());
  int fired = 0;
  AdamRule rule;
  rule.name = "check";
  rule.event = event.value();
  rule.active_class = "employee";
  rule.condition = [](const AdamObject&, const ValueList&) { return true; };
  rule.action = [&fired](AdamObject*, const ValueList&) {
    ++fired;
    return Status::OK();
  };
  ASSERT_TRUE(engine_.CreateRule(rule).ok());

  auto emp = engine_.NewObject("employee");
  ASSERT_TRUE(emp.ok());
  ASSERT_TRUE(engine_.Invoke(emp.value(), "Set-Salary", {Value(100.0)},
                             [](AdamObject* o) {
                               o->Set("salary", Value(100.0));
                             }).ok());
  EXPECT_EQ(fired, 1);
  // A different method raises no event.
  ASSERT_TRUE(engine_.Invoke(emp.value(), "Get-Salary", {},
                             [](AdamObject*) {}).ok());
  EXPECT_EQ(fired, 1);
}

TEST_F(AdamEngineTest, RulesAreInheritedBySubclasses) {
  auto event = engine_.DefineEvent("Set-Salary", AdamWhen::kAfter);
  ASSERT_TRUE(event.ok());
  int fired = 0;
  AdamRule rule;
  rule.name = "emp-rule";
  rule.event = event.value();
  rule.active_class = "employee";
  rule.action = [&fired](AdamObject*, const ValueList&) {
    ++fired;
    return Status::OK();
  };
  ASSERT_TRUE(engine_.CreateRule(rule).ok());
  auto mgr = engine_.NewObject("manager");
  ASSERT_TRUE(mgr.ok());
  ASSERT_TRUE(engine_.Invoke(mgr.value(), "Set-Salary", {},
                             [](AdamObject*) {}).ok());
  EXPECT_EQ(fired, 1);  // manager is-a employee.
}

TEST_F(AdamEngineTest, DisabledForExemptsInstances) {
  auto event = engine_.DefineEvent("M", AdamWhen::kAfter);
  ASSERT_TRUE(event.ok());
  int fired = 0;
  AdamRule rule;
  rule.name = "r";
  rule.event = event.value();
  rule.active_class = "employee";
  rule.action = [&fired](AdamObject*, const ValueList&) {
    ++fired;
    return Status::OK();
  };
  ASSERT_TRUE(engine_.CreateRule(rule).ok());
  auto a = engine_.NewObject("employee");
  auto b = engine_.NewObject("employee");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(engine_.DisableRuleFor("r", b.value()->id()).ok());
  ASSERT_TRUE(engine_.Invoke(a.value(), "M", {}, [](AdamObject*) {}).ok());
  ASSERT_TRUE(engine_.Invoke(b.value(), "M", {}, [](AdamObject*) {}).ok());
  EXPECT_EQ(fired, 1);
}

TEST_F(AdamEngineTest, EnableDisableRule) {
  auto event = engine_.DefineEvent("M", AdamWhen::kAfter);
  ASSERT_TRUE(event.ok());
  int fired = 0;
  AdamRule rule;
  rule.name = "r";
  rule.event = event.value();
  rule.active_class = "employee";
  rule.action = [&fired](AdamObject*, const ValueList&) {
    ++fired;
    return Status::OK();
  };
  ASSERT_TRUE(engine_.CreateRule(rule).ok());
  auto obj = engine_.NewObject("employee");
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE(engine_.EnableRule("r", false).ok());
  ASSERT_TRUE(engine_.Invoke(obj.value(), "M", {}, [](AdamObject*) {}).ok());
  EXPECT_EQ(fired, 0);
  ASSERT_TRUE(engine_.EnableRule("r", true).ok());
  ASSERT_TRUE(engine_.Invoke(obj.value(), "M", {}, [](AdamObject*) {}).ok());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(engine_.EnableRule("ghost", true).IsNotFound());
}

TEST_F(AdamEngineTest, BeforeEventsFireBeforeBody) {
  auto event = engine_.DefineEvent("M", AdamWhen::kBefore);
  ASSERT_TRUE(event.ok());
  std::vector<std::string> order;
  AdamRule rule;
  rule.name = "r";
  rule.event = event.value();
  rule.active_class = "employee";
  rule.action = [&order](AdamObject*, const ValueList&) {
    order.push_back("rule");
    return Status::OK();
  };
  ASSERT_TRUE(engine_.CreateRule(rule).ok());
  auto obj = engine_.NewObject("employee");
  ASSERT_TRUE(obj.ok());
  ASSERT_TRUE(engine_.Invoke(obj.value(), "M", {}, [&order](AdamObject*) {
    order.push_back("body");
  }).ok());
  EXPECT_EQ(order, (std::vector<std::string>{"rule", "body"}));
}

TEST_F(AdamEngineTest, ActionAbortPropagates) {
  auto event = engine_.DefineEvent("M", AdamWhen::kAfter);
  ASSERT_TRUE(event.ok());
  AdamRule rule;
  rule.name = "veto";
  rule.event = event.value();
  rule.active_class = "employee";
  rule.action = [](AdamObject*, const ValueList&) {
    return Status::Aborted("fail");
  };
  ASSERT_TRUE(engine_.CreateRule(rule).ok());
  auto obj = engine_.NewObject("employee");
  ASSERT_TRUE(obj.ok());
  EXPECT_TRUE(engine_.Invoke(obj.value(), "M", {}, [](AdamObject*) {})
                  .IsAborted());
}

TEST_F(AdamEngineTest, DispatchIsCentralized) {
  // The characteristic cost: every raised event scans ALL rules, even
  // unrelated ones.
  auto event = engine_.DefineEvent("M", AdamWhen::kAfter);
  ASSERT_TRUE(event.ok());
  for (int i = 0; i < 20; ++i) {
    AdamRule rule;
    rule.name = std::string("r").append(std::to_string(i));
    rule.event = event.value() + 1000;  // Never matches.
    rule.active_class = "employee";
    engine_.CreateRule(rule).ok();
  }
  auto obj = engine_.NewObject("employee");
  ASSERT_TRUE(obj.ok());
  uint64_t before = engine_.rules_scanned();
  ASSERT_TRUE(engine_.Invoke(obj.value(), "M", {}, [](AdamObject*) {}).ok());
  EXPECT_EQ(engine_.rules_scanned() - before, 20u);
  EXPECT_EQ(engine_.conditions_checked(), 0u);  // None actually matched.
}

TEST_F(AdamEngineTest, RuleLifecycle) {
  auto event = engine_.DefineEvent("M", AdamWhen::kAfter);
  ASSERT_TRUE(event.ok());
  AdamRule rule;
  rule.name = "r";
  rule.event = event.value();
  rule.active_class = "employee";
  ASSERT_TRUE(engine_.CreateRule(rule).ok());
  EXPECT_TRUE(engine_.CreateRule(rule).IsAlreadyExists());
  EXPECT_EQ(engine_.rule_count(), 1u);
  ASSERT_TRUE(engine_.DeleteRule("r").ok());
  EXPECT_TRUE(engine_.DeleteRule("r").IsNotFound());
  AdamRule bad;
  bad.name = "bad";
  bad.event = event.value();
  bad.active_class = "ghost";
  EXPECT_TRUE(engine_.CreateRule(bad).IsInvalidArgument());
}

}  // namespace
}  // namespace baselines
}  // namespace sentinel
