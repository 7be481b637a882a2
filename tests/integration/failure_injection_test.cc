// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Failure injection: misbehaving rule actions, unsubscription during
// delivery, runaway cascades, and torn WAL tails at the database level.

#include <gtest/gtest.h>

#include <fstream>

#include "common/failpoint.h"
#include "core/database.h"

#include "../test_util.h"

namespace sentinel {
namespace {

using testing_util::TempDir;

class FailureInjectionTest : public ::testing::Test {
 protected:
  FailureInjectionTest() : dir_("failure") {
    auto opened = Database::Open({.dir = dir_.path(), .max_cascade_depth = 8});
    EXPECT_TRUE(opened.ok());
    db_ = std::move(opened).value();
    EXPECT_TRUE(db_->RegisterClass(
        ClassBuilder("Node").Reactive()
            .Method("Touch", {.end = true}).Build()).ok());
    EXPECT_TRUE(db_->RegisterLiveObject(&node_).ok());
  }

  void Touch(Transaction* txn) {
    MethodEventScope scope(&node_, "Touch", {});
    node_.SetAttr(txn, "touched", Value(true));
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
  ReactiveObject node_{"Node"};
};

TEST_F(FailureInjectionTest, ImmediateActionErrorDoesNotAbortTransaction) {
  auto event = db_->CreatePrimitiveEvent("end Node::Touch");
  ASSERT_TRUE(event.ok());
  RuleSpec spec;
  spec.name = "broken";
  spec.event = event.value();
  spec.action = [](RuleContext&) { return Status::Internal("bug in rule"); };
  auto rule = db_->DeclareClassRule("Node", spec);
  ASSERT_TRUE(rule.ok());

  // A non-Aborted action error is recorded but does not doom the txn.
  Status s = db_->WithTransaction([&](Transaction* txn) {
    Touch(txn);
    return Status::OK();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(rule.value()->error_count(), 1u);
  EXPECT_EQ(node_.GetAttr("touched"), Value(true));
}

TEST_F(FailureInjectionTest, DeferredActionErrorAbortsCommit) {
  auto event = db_->CreatePrimitiveEvent("end Node::Touch");
  ASSERT_TRUE(event.ok());
  RuleSpec spec;
  spec.name = "deferred-broken";
  spec.event = event.value();
  spec.coupling = CouplingMode::kDeferred;
  spec.action = [](RuleContext&) { return Status::Internal("bad"); };
  ASSERT_TRUE(db_->DeclareClassRule("Node", spec).ok());

  Status s = db_->WithTransaction([&](Transaction* txn) {
    Touch(txn);
    return Status::OK();
  });
  // A deferred failure at the commit point rolls the transaction back.
  EXPECT_TRUE(s.IsAborted()) << s.ToString();
  EXPECT_TRUE(node_.GetAttr("touched").is_null());  // Undone.
}

TEST_F(FailureInjectionTest, SelfTriggeringRuleIsBoundedByCascadeGuard) {
  auto event = db_->CreatePrimitiveEvent("end Node::Touch");
  ASSERT_TRUE(event.ok());
  int executions = 0;
  RuleSpec spec;
  spec.name = "recursive";
  spec.event = event.value();
  spec.action = [&](RuleContext& ctx) {
    ++executions;
    // The action re-raises the very event that triggered it.
    node_.RaiseEvent("Touch", EventModifier::kEnd, {});
    (void)ctx;
    return Status::OK();
  };
  ASSERT_TRUE(db_->DeclareClassRule("Node", spec).ok());

  Status s = db_->WithTransaction([&](Transaction* txn) {
    Touch(txn);
    return Status::OK();
  });
  // The guard (depth 8) bounded the cascade and doomed the transaction.
  EXPECT_TRUE(s.IsAborted());
  EXPECT_LE(executions, 10);
  EXPECT_LE(db_->scheduler()->max_observed_depth(), 8);
}

TEST_F(FailureInjectionTest, ActionUnsubscribingItsOwnRuleIsSafe) {
  auto event = db_->CreatePrimitiveEvent("end Node::Touch");
  ASSERT_TRUE(event.ok());
  int fired = 0;
  RuleSpec spec;
  spec.name = "one-shot";
  spec.event = event.value();
  auto rule_holder = std::make_shared<RulePtr>();
  spec.action = [this, &fired, rule_holder](RuleContext&) {
    ++fired;
    // Remove the rule from its own producer mid-delivery.
    return db_->RemoveRuleFromInstance(*rule_holder, &node_);
  };
  auto rule = db_->CreateRule(spec);
  ASSERT_TRUE(rule.ok());
  *rule_holder = rule.value();
  ASSERT_TRUE(db_->ApplyRuleToInstance(rule.value(), &node_).ok());

  node_.RaiseEvent("Touch", EventModifier::kEnd, {});
  node_.RaiseEvent("Touch", EventModifier::kEnd, {});
  EXPECT_EQ(fired, 1);  // One-shot semantics achieved safely.

  // The action captures the holder that owns the rule — a cycle the rule's
  // destructor can never break. Sever it so the rule is actually freed.
  rule_holder->reset();
}

TEST_F(FailureInjectionTest, TornWalTailDoesNotPreventReopen) {
  ASSERT_TRUE(db_->WithTransaction([&](Transaction* txn) {
    return db_->Persist(txn, &node_);
  }).ok());
  Oid oid = node_.oid();
  ASSERT_TRUE(db_->UnregisterLiveObject(&node_).ok());
  ASSERT_TRUE(db_->Close().ok());

  // Corrupt the WAL with a torn record.
  {
    std::ofstream wal(dir_.path() + "/wal.log",
                      std::ios::binary | std::ios::app);
    uint32_t bogus = 5000;
    wal.write(reinterpret_cast<const char*>(&bogus), 4);
    wal.write("torn", 4);
  }

  auto reopened = Database::Open({.dir = dir_.path()});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened.value()->store()->Exists(oid));
}

TEST_F(FailureInjectionTest, WalSyncErrorAbortsCommitAndReleasesLocks) {
  FailPoints::Instance().Reset();
  ASSERT_TRUE(
      FailPoints::Instance().EnableFromSpec("wal.sync=ioerror@hit(1)").ok());
  Status s = db_->WithTransaction([&](Transaction* txn) {
    node_.SetAttr(txn, "touched", Value(true));
    return db_->Persist(txn, &node_);
  });
  FailPoints::Instance().Reset();
  EXPECT_FALSE(s.ok()) << s.ToString();
  EXPECT_TRUE(node_.GetAttr("touched").is_null());  // Rolled back.

  // The failed commit must not strand its locks: a second transaction on
  // the same object runs to its own commit decision instead of
  // deadlocking. Sync failures are sticky (the kernel may have dropped
  // dirty pages without saying which), so that decision is a clean
  // IOError refusal, not a success.
  Status s2 = db_->WithTransaction([&](Transaction* txn) {
    node_.SetAttr(txn, "retried", Value(true));
    return db_->Persist(txn, &node_);
  });
  EXPECT_TRUE(s2.IsIOError()) << s2.ToString();
  EXPECT_TRUE(node_.GetAttr("retried").is_null());  // Rolled back too.
}

TEST_F(FailureInjectionTest, FailedCommitIsNeutralizedAcrossReopen) {
  // The commit record reaches the log, but its sync fails; DoAbort then
  // appends (and syncs) an abort record. If the process dies right there,
  // recovery sees commit-then-abort and must replay nothing.
  FailPoints::Instance().Reset();
  ASSERT_TRUE(
      FailPoints::Instance().EnableFromSpec("wal.sync=ioerror@hit(1)").ok());
  Status s = db_->WithTransaction([&](Transaction* txn) {
    node_.SetAttr(txn, "touched", Value(true));
    return db_->Persist(txn, &node_);
  });
  EXPECT_FALSE(s.ok()) << s.ToString();
  Oid oid = node_.oid();
  ASSERT_NE(oid, kInvalidOid);

  // Manufacture the crash flag so Close preserves the log exactly as the
  // failed commit left it (no checkpoint, no WAL reset).
  ASSERT_TRUE(FailPoints::Instance().EnableFromSpec("test.crash=crash").ok());
  FailPoints::Instance().Check("test.crash").ok();
  ASSERT_TRUE(db_->UnregisterLiveObject(&node_).ok());
  db_->Close().ok();
  FailPoints::Instance().Reset();

  auto reopened = Database::Open({.dir = dir_.path()});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(reopened.value()->store()->Exists(oid));
  EXPECT_TRUE(reopened.value()->Close().ok());
}

// Database::Options::failpoints arms its spec before the store opens, so a
// test injects faults without touching the process environment; a spec
// that does not parse fails the open.
TEST_F(FailureInjectionTest, OpenArmsFailpointsFromOptions) {
  FailPoints::Instance().Reset();
  TempDir other("failure_options");
  Database::Options opts;
  opts.dir = other.path();
  opts.failpoints = "test.from_options=ioerror@once";
  auto opened = Database::Open(opts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(FailPoints::Instance().Check("test.from_options").IsIOError());
  EXPECT_TRUE(FailPoints::Instance().Check("test.from_options").ok());
  EXPECT_TRUE(opened.value()->Close().ok());

  FailPoints::Instance().Reset();
  opts.failpoints = "test.from_options=no_such_action";
  EXPECT_FALSE(Database::Open(opts).ok());
  FailPoints::Instance().Reset();
}

TEST_F(FailureInjectionTest, AbortRestoresMultipleObjectsInReverseOrder) {
  ReactiveObject a("Node"), b("Node");
  a.SetAttrRaw("v", Value(1));
  b.SetAttrRaw("v", Value(2));
  ASSERT_TRUE(db_->RegisterLiveObject(&a).ok());
  ASSERT_TRUE(db_->RegisterLiveObject(&b).ok());
  Status s = db_->WithTransaction([&](Transaction* txn) {
    a.SetAttr(txn, "v", Value(10));
    b.SetAttr(txn, "v", Value(20));
    a.SetAttr(txn, "v", Value(100));
    return Status::Internal("fail");
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(a.GetAttr("v"), Value(1));
  EXPECT_EQ(b.GetAttr("v"), Value(2));
}

}  // namespace
}  // namespace sentinel
