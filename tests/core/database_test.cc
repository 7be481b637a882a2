// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "core/database.h"

#include <gtest/gtest.h>

#include "../test_util.h"

namespace sentinel {
namespace {

using testing_util::TempDir;

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() : dir_("db") {
    auto opened = Database::Open({.dir = dir_.path()});
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    db_ = std::move(opened).value();
  }

  void RegisterStockClass() {
    ASSERT_TRUE(db_->RegisterClass(
        ClassBuilder("Stock")
            .Reactive()
            .Method("SetPrice", {.begin = false, .end = true})
            .Build()).ok());
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
};

TEST_F(DatabaseTest, BuiltinClassesAreRegistered) {
  const ClassCatalog* catalog = db_->catalog();
  for (const char* cls :
       {"Notifiable", "Reactive", "Event", "PrimitiveEvent", "Conjunction",
        "Disjunction", "Sequence", "AnyEvent", "NotEvent", "AperiodicEvent",
        "PeriodicEvent", "PlusEvent", "Rule"}) {
    EXPECT_TRUE(catalog->HasClass(cls)) << cls;
  }
  // Rule is reactive with lifecycle event generators (rules on rules).
  EXPECT_TRUE(catalog->IsReactive("Rule"));
  EXPECT_TRUE(catalog->EventSpecFor("Rule", "Fire").begin);
  EXPECT_TRUE(catalog->EventSpecFor("Rule", "Enable").end);
}

TEST_F(DatabaseTest, RegisterClassPersistsAcrossReopen) {
  RegisterStockClass();
  ASSERT_TRUE(db_->Close().ok());
  auto reopened = Database::Open({.dir = dir_.path()});
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened.value()->catalog()->HasClass("Stock"));
  EXPECT_TRUE(
      reopened.value()->catalog()->EventSpecFor("Stock", "SetPrice").end);
}

TEST_F(DatabaseTest, RegisterLiveObjectAssignsOidAndContext) {
  RegisterStockClass();
  ReactiveObject stock("Stock");
  ASSERT_TRUE(db_->RegisterLiveObject(&stock).ok());
  EXPECT_NE(stock.oid(), kInvalidOid);
  EXPECT_EQ(stock.context(), db_.get());
  EXPECT_EQ(db_->FindLiveObject(stock.oid()), &stock);
  EXPECT_EQ(db_->live_object_count(), 1u);
  ASSERT_TRUE(db_->UnregisterLiveObject(&stock).ok());
  EXPECT_EQ(db_->FindLiveObject(stock.oid()), nullptr);
  EXPECT_EQ(stock.context(), nullptr);
}

TEST_F(DatabaseTest, RegisterLiveObjectOfUnknownClassFails) {
  ReactiveObject mystery("Mystery");
  EXPECT_TRUE(db_->RegisterLiveObject(&mystery).IsInvalidArgument());
}

TEST_F(DatabaseTest, RaisedEventsAreLoggedByDetector) {
  RegisterStockClass();
  ReactiveObject stock("Stock");
  ASSERT_TRUE(db_->RegisterLiveObject(&stock).ok());
  stock.RaiseEvent("SetPrice", EventModifier::kEnd, {Value(10.0)});
  EXPECT_EQ(db_->metrics()->counter("events.occurrences")->Value(), 1u);
  // Undesignated modifier raises nothing.
  stock.RaiseEvent("SetPrice", EventModifier::kBegin, {Value(10.0)});
  EXPECT_EQ(db_->metrics()->counter("events.occurrences")->Value(), 1u);
}

TEST_F(DatabaseTest, PersistAndMaterializeGeneric) {
  RegisterStockClass();
  ReactiveObject stock("Stock");
  stock.SetAttrRaw("ticker", Value("IBM"));
  stock.SetAttrRaw("price", Value(42.5));
  ASSERT_TRUE(db_->RegisterLiveObject(&stock).ok());
  ASSERT_TRUE(db_->WithTransaction([&](Transaction* txn) {
    return db_->Persist(txn, &stock);
  }).ok());
  Oid oid = stock.oid();
  ASSERT_TRUE(db_->UnregisterLiveObject(&stock).ok());

  auto materialized = db_->Materialize(nullptr, oid);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  EXPECT_EQ(materialized.value()->class_name(), "Stock");
  EXPECT_EQ(materialized.value()->oid(), oid);
  EXPECT_EQ(materialized.value()->GetAttr("ticker"), Value("IBM"));
  EXPECT_EQ(materialized.value()->GetAttr("price"), Value(42.5));
  // Materialize registers the object live.
  EXPECT_EQ(db_->FindLiveObject(oid), materialized.value().get());
  ASSERT_TRUE(db_->UnregisterLiveObject(materialized.value().get()).ok());
}

TEST_F(DatabaseTest, MaterializeUsesRegisteredFactory) {
  RegisterStockClass();

  class MyStock : public ReactiveObject {
   public:
    explicit MyStock(Oid oid) : ReactiveObject("Stock", oid) {}
  };
  db_->RegisterFactory("Stock", [](Oid oid) {
    return std::make_unique<MyStock>(oid);
  });

  ReactiveObject stock("Stock");
  ASSERT_TRUE(db_->RegisterLiveObject(&stock).ok());
  ASSERT_TRUE(db_->WithTransaction([&](Transaction* txn) {
    return db_->Persist(txn, &stock);
  }).ok());
  Oid oid = stock.oid();
  ASSERT_TRUE(db_->UnregisterLiveObject(&stock).ok());

  auto materialized = db_->Materialize(nullptr, oid);
  ASSERT_TRUE(materialized.ok());
  EXPECT_NE(dynamic_cast<MyStock*>(materialized.value().get()), nullptr);
  ASSERT_TRUE(db_->UnregisterLiveObject(materialized.value().get()).ok());
}

TEST_F(DatabaseTest, WithTransactionCommitsOnOk) {
  RegisterStockClass();
  ReactiveObject stock("Stock");
  ASSERT_TRUE(db_->RegisterLiveObject(&stock).ok());
  ASSERT_TRUE(db_->WithTransaction([&](Transaction* txn) {
    return db_->Persist(txn, &stock);
  }).ok());
  EXPECT_TRUE(db_->store()->Exists(stock.oid()));
}

TEST_F(DatabaseTest, WithTransactionAbortsOnError) {
  RegisterStockClass();
  ReactiveObject stock("Stock");
  ASSERT_TRUE(db_->RegisterLiveObject(&stock).ok());
  Status s = db_->WithTransaction([&](Transaction* txn) {
    SENTINEL_RETURN_IF_ERROR(db_->Persist(txn, &stock));
    return Status::Internal("changed my mind");
  });
  EXPECT_TRUE(s.IsInternal());
  EXPECT_FALSE(db_->store()->Exists(stock.oid()));
}

TEST_F(DatabaseTest, WithTransactionHonorsAbortRequest) {
  Status s = db_->WithTransaction([&](Transaction* txn) {
    txn->RequestAbort("rule veto");
    return Status::OK();
  });
  EXPECT_TRUE(s.IsAborted());
  EXPECT_EQ(s.message(), "rule veto");
}

TEST_F(DatabaseTest, ClassLevelRuleCoversFutureInstances) {
  RegisterStockClass();
  auto event = db_->CreatePrimitiveEvent("end Stock::SetPrice");
  ASSERT_TRUE(event.ok());
  int fired = 0;
  RuleSpec spec;
  spec.name = "watch";
  spec.event = event.value();
  spec.action = [&fired](RuleContext&) {
    ++fired;
    return Status::OK();
  };
  auto rule = db_->DeclareClassRule("Stock", spec);
  ASSERT_TRUE(rule.ok());

  // An instance created AFTER the rule is still covered (paper §3.5).
  ReactiveObject stock("Stock");
  ASSERT_TRUE(db_->RegisterLiveObject(&stock).ok());
  EXPECT_TRUE(stock.IsSubscribed(rule.value().get()));
  stock.RaiseEvent("SetPrice", EventModifier::kEnd, {Value(5.0)});
  EXPECT_EQ(fired, 1);
}

TEST_F(DatabaseTest, ClassLevelRuleCoversExistingInstances) {
  RegisterStockClass();
  ReactiveObject stock("Stock");
  ASSERT_TRUE(db_->RegisterLiveObject(&stock).ok());

  auto event = db_->CreatePrimitiveEvent("end Stock::SetPrice");
  ASSERT_TRUE(event.ok());
  RuleSpec spec;
  spec.name = "watch";
  spec.event = event.value();
  auto rule = db_->DeclareClassRule("Stock", spec);
  ASSERT_TRUE(rule.ok());
  EXPECT_TRUE(stock.IsSubscribed(rule.value().get()));
}

TEST_F(DatabaseTest, DeclareClassRuleOnUnknownClassRollsBack) {
  auto event = db_->CreatePrimitiveEvent("end Rule::Fire");
  ASSERT_TRUE(event.ok());
  RuleSpec spec;
  spec.name = "orphan";
  spec.event = event.value();
  EXPECT_FALSE(db_->DeclareClassRule("Ghost", spec).ok());
  EXPECT_FALSE(db_->rules()->HasRule("orphan"));  // Creation undone.
}

TEST_F(DatabaseTest, DeleteRuleUnsubscribesEverywhere) {
  RegisterStockClass();
  ReactiveObject stock("Stock");
  ASSERT_TRUE(db_->RegisterLiveObject(&stock).ok());
  auto event = db_->CreatePrimitiveEvent("end Stock::SetPrice");
  ASSERT_TRUE(event.ok());
  RuleSpec spec;
  spec.name = "doomed";
  spec.event = event.value();
  auto rule = db_->DeclareClassRule("Stock", spec);
  ASSERT_TRUE(rule.ok());
  ASSERT_TRUE(stock.IsSubscribed(rule.value().get()));

  ASSERT_TRUE(db_->DeleteRule("doomed").ok());
  EXPECT_FALSE(stock.IsSubscribed(rule.value().get()));
  EXPECT_FALSE(db_->rules()->HasRule("doomed"));
  EXPECT_TRUE(db_->DeleteRule("doomed").IsNotFound());
}

TEST_F(DatabaseTest, CreatePrimitiveEventValidatesAgainstCatalog) {
  RegisterStockClass();
  EXPECT_TRUE(db_->CreatePrimitiveEvent("end Stock::SetPrice").ok());
  EXPECT_TRUE(db_->CreatePrimitiveEvent("begin Stock::SetPrice")
                  .status().IsInvalidArgument());
  EXPECT_TRUE(db_->CreatePrimitiveEvent("end Ghost::M")
                  .status().IsInvalidArgument());
}

TEST_F(DatabaseTest, NamedRulesAndEventsSurviveReopen) {
  RegisterStockClass();
  ASSERT_TRUE(db_->functions()->RegisterCondition(
      "cheap", [](const RuleContext& ctx) {
        return ctx.params()[0] < Value(10.0);
      }).ok());
  int fired = 0;
  // NOTE: actions registered per-process; reopen registers its own.
  ASSERT_TRUE(db_->functions()->RegisterAction(
      "count", [&fired](RuleContext&) {
        ++fired;
        return Status::OK();
      }).ok());

  auto event = db_->CreatePrimitiveEvent("end Stock::SetPrice");
  ASSERT_TRUE(event.ok());
  ASSERT_TRUE(db_->detector()->RegisterEvent("price-event",
                                             event.value()).ok());
  RuleSpec spec;
  spec.name = "bargain";
  spec.event_name = "price-event";
  spec.condition_name = "cheap";
  spec.action_name = "count";
  ASSERT_TRUE(db_->CreateRule(spec).ok());
  ASSERT_TRUE(db_->SaveRulesAndEvents().ok());
  ASSERT_TRUE(db_->Close().ok());

  auto reopened = Database::Open({.dir = dir_.path()});
  ASSERT_TRUE(reopened.ok());
  // Loaded before the registry had the names: disabled but present.
  auto restored = reopened.value()->rules()->GetRule("bargain");
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(reopened.value()->detector()->GetEvent("price-event").ok());
}

TEST_F(DatabaseTest, DetachedRunnerExecutesInFreshTransaction) {
  RegisterStockClass();
  ReactiveObject stock("Stock");
  ASSERT_TRUE(db_->RegisterLiveObject(&stock).ok());
  auto event = db_->CreatePrimitiveEvent("end Stock::SetPrice");
  ASSERT_TRUE(event.ok());

  Transaction* triggering_txn = nullptr;
  Transaction* action_txn = nullptr;
  RuleSpec spec;
  spec.name = "detached";
  spec.event = event.value();
  spec.coupling = CouplingMode::kDetached;
  spec.action = [&](RuleContext& ctx) {
    action_txn = ctx.txn;
    return Status::OK();
  };
  auto rule = db_->DeclareClassRule("Stock", spec);
  ASSERT_TRUE(rule.ok());

  ASSERT_TRUE(db_->WithTransaction([&](Transaction* txn) {
    triggering_txn = txn;
    stock.RaiseEvent("SetPrice", EventModifier::kEnd, {Value(1.0)});
    EXPECT_EQ(action_txn, nullptr);  // Not yet: runs post-commit.
    return Status::OK();
  }).ok());
  ASSERT_NE(action_txn, nullptr);
  EXPECT_NE(action_txn, triggering_txn);  // Fresh transaction.
}

}  // namespace
}  // namespace sentinel
