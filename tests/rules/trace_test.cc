// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "rules/trace.h"

#include <gtest/gtest.h>

#include "core/database.h"

#include "../test_util.h"

namespace sentinel {
namespace {

using testing_util::TempDir;

TEST(TraceRecorderTest, RecordsAndCaps) {
  TraceRecorder recorder(3);
  for (int i = 0; i < 5; ++i) {
    recorder.Trace(TraceEntry{TraceEntry::Kind::kFired, Clock::Now(),
                              std::string("r").append(std::to_string(i)),
                              "", 0, 0});
  }
  EXPECT_EQ(recorder.size(), 3u);
  EXPECT_EQ(recorder.total(), 5u);
  auto entries = recorder.Entries();
  EXPECT_EQ(entries.front().subject, "r2");  // Oldest retained.
  EXPECT_EQ(entries.back().subject, "r4");
  recorder.Clear();
  EXPECT_EQ(recorder.size(), 0u);
}

TEST(TraceRecorderTest, FiltersByKindAndSubject) {
  TraceRecorder recorder;
  recorder.Trace({TraceEntry::Kind::kTriggered, Clock::Now(), "a", "", 0, 0});
  recorder.Trace({TraceEntry::Kind::kFired, Clock::Now(), "a", "", 1, 0});
  recorder.Trace({TraceEntry::Kind::kTriggered, Clock::Now(), "b", "", 0, 0});
  EXPECT_EQ(recorder.EntriesOfKind(TraceEntry::Kind::kTriggered).size(), 2u);
  EXPECT_EQ(recorder.EntriesFor("a").size(), 2u);
  EXPECT_EQ(recorder.EntriesFor("c").size(), 0u);
}

TEST(TraceEntryTest, ToStringIndentsByDepth) {
  TraceEntry entry{TraceEntry::Kind::kFired, {}, "rule-x", "detail", 2, 7};
  EXPECT_EQ(entry.ToString(), "    fired rule-x [detail] txn=7");
}

class TraceIntegrationTest : public ::testing::Test {
 protected:
  TraceIntegrationTest() : dir_("trace") {
    auto opened = Database::Open({.dir = dir_.path()});
    EXPECT_TRUE(opened.ok());
    db_ = std::move(opened).value();
    db_->SetTracer(&recorder_);
    EXPECT_TRUE(db_->RegisterClass(
        ClassBuilder("Sensor").Reactive()
            .Method("Report", {.end = true}).Build()).ok());
    EXPECT_TRUE(db_->RegisterLiveObject(&sensor_).ok());
  }

  RulePtr AddRule(const std::string& name, RuleCondition condition,
                  RuleAction action,
                  CouplingMode mode = CouplingMode::kImmediate) {
    auto event = db_->CreatePrimitiveEvent("end Sensor::Report");
    EXPECT_TRUE(event.ok());
    RuleSpec spec;
    spec.name = name;
    spec.event = event.value();
    spec.condition = std::move(condition);
    spec.action = std::move(action);
    spec.coupling = mode;
    auto rule = db_->DeclareClassRule("Sensor", spec);
    EXPECT_TRUE(rule.ok());
    return rule.value();
  }

  void Report(int v) {
    db_->WithTransaction([&](Transaction* txn) {
      MethodEventScope scope(&sensor_, "Report", {Value(v)});
      sensor_.SetAttr(txn, "v", Value(v));
      return Status::OK();
    }).ok();
  }

  TempDir dir_;
  std::unique_ptr<Database> db_;
  TraceRecorder recorder_;
  ReactiveObject sensor_{"Sensor"};
};

TEST_F(TraceIntegrationTest, CausalChainIsRecordedInOrder) {
  AddRule("watch",
          [](const RuleContext& ctx) { return ctx.params()[0] > Value(5); },
          [](RuleContext&) { return Status::OK(); });
  Report(10);  // Condition true.
  Report(1);   // Condition false.

  auto entries = recorder_.Entries();
  // occurrence -> triggered -> fired, then occurrence -> triggered ->
  // condition-false.
  std::vector<TraceEntry::Kind> kinds;
  for (const TraceEntry& entry : entries) kinds.push_back(entry.kind);
  EXPECT_EQ(kinds,
            (std::vector<TraceEntry::Kind>{
                TraceEntry::Kind::kOccurrence, TraceEntry::Kind::kTriggered,
                TraceEntry::Kind::kFired, TraceEntry::Kind::kOccurrence,
                TraceEntry::Kind::kTriggered,
                TraceEntry::Kind::kConditionFalse}));
  EXPECT_EQ(entries[0].subject, "end Sensor::Report");
  EXPECT_EQ(entries[0].detail, "(10)");
  EXPECT_EQ(entries[1].subject, "watch");
  EXPECT_NE(entries[1].txn, 0u);
}

TEST_F(TraceIntegrationTest, ActionErrorsAreTraced) {
  AddRule("broken", nullptr,
          [](RuleContext&) { return Status::Internal("bug"); });
  Report(1);
  auto errors = recorder_.EntriesOfKind(TraceEntry::Kind::kActionError);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].subject, "broken");
  EXPECT_EQ(errors[0].detail, "Internal: bug");
}

TEST_F(TraceIntegrationTest, DeferredAndDetachedQueueingIsTraced) {
  AddRule("def", nullptr, [](RuleContext&) { return Status::OK(); },
          CouplingMode::kDeferred);
  AddRule("det", nullptr, [](RuleContext&) { return Status::OK(); },
          CouplingMode::kDetached);
  Report(1);
  EXPECT_EQ(recorder_.EntriesOfKind(TraceEntry::Kind::kDeferred).size(), 1u);
  EXPECT_EQ(recorder_.EntriesOfKind(TraceEntry::Kind::kDetached).size(), 1u);
  // Both eventually executed (kFired).
  EXPECT_EQ(recorder_.EntriesOfKind(TraceEntry::Kind::kFired).size(), 2u);
}

TEST_F(TraceIntegrationTest, CascadeDepthIsVisible) {
  // Rule A's action re-raises the event, triggering itself up to depth 3.
  int raises = 0;
  AddRule("cascade",
          [&raises](const RuleContext&) { return raises < 3; },
          [&](RuleContext&) {
            ++raises;
            sensor_.RaiseEvent("Report", EventModifier::kEnd,
                               {Value(raises)});
            return Status::OK();
          });
  Report(0);
  auto fired = recorder_.EntriesOfKind(TraceEntry::Kind::kFired);
  ASSERT_GE(fired.size(), 3u);
  // Nested executions complete innermost-first, so the earliest kFired
  // entry carries the deepest depth and depths decrease as the cascade
  // unwinds.
  EXPECT_GE(fired.front().depth, fired.back().depth);
  int max_depth = 0;
  for (const TraceEntry& entry : fired) {
    max_depth = std::max(max_depth, entry.depth);
  }
  EXPECT_GE(max_depth, 2);
  // The dump renders one line per entry.
  std::string dump = recorder_.Dump();
  EXPECT_NE(dump.find("fired cascade"), std::string::npos);
}

TEST_F(TraceIntegrationTest, DetachingTracerStopsRecording) {
  AddRule("watch", nullptr, [](RuleContext&) { return Status::OK(); });
  db_->SetTracer(nullptr);
  Report(1);
  EXPECT_EQ(recorder_.total(), 0u);
}

}  // namespace
}  // namespace sentinel
