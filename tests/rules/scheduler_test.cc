// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "rules/scheduler.h"

#include <gtest/gtest.h>

#include "events/primitive_event.h"

#include "../test_util.h"

namespace sentinel {
namespace {

using testing_util::MakeOccurrence;

EventPtr Prim(const std::string& text) {
  auto result = PrimitiveEvent::Create(text);
  EXPECT_TRUE(result.ok());
  return result.value();
}

EventDetection Det(Transaction* txn = nullptr) {
  EventOccurrence occ = MakeOccurrence(1, "A", "M");
  occ.txn = txn;
  return EventDetection::FromOccurrence(occ);
}

/// Builds a rule appending its name to `order` when it executes.
std::unique_ptr<Rule> MakeTracer(const std::string& name,
                                 std::vector<std::string>* order,
                                 CouplingMode mode = CouplingMode::kImmediate,
                                 int priority = 0) {
  auto rule = std::make_unique<Rule>(
      name, Prim("end A::M"), nullptr,
      [name, order](RuleContext&) {
        order->push_back(name);
        return Status::OK();
      },
      mode, priority);
  return rule;
}

TEST(SchedulerTest, TriggerWithoutRoundExecutesImmediately) {
  MetricsRegistry metrics;
  RuleScheduler scheduler(metrics);
  std::vector<std::string> order;
  auto rule = MakeTracer("r", &order);
  scheduler.Trigger(rule.get(), Det());
  EXPECT_EQ(order, (std::vector<std::string>{"r"}));
  EXPECT_EQ(metrics.histogram("rules.dispatch_ns")->Count(), 1u);
}

TEST(SchedulerTest, RoundBatchesAndExecutesOnEnd) {
  MetricsRegistry metrics;
  RuleScheduler scheduler(metrics);
  std::vector<std::string> order;
  auto r1 = MakeTracer("r1", &order);
  auto r2 = MakeTracer("r2", &order);
  scheduler.BeginRound();
  scheduler.Trigger(r1.get(), Det());
  scheduler.Trigger(r2.get(), Det());
  EXPECT_TRUE(order.empty());  // Nothing runs mid-round.
  ASSERT_TRUE(scheduler.EndRound(nullptr).ok());
  EXPECT_EQ(order, (std::vector<std::string>{"r1", "r2"}));
}

TEST(SchedulerTest, PriorityOrdersBatch) {
  MetricsRegistry metrics;
  RuleScheduler scheduler(metrics);
  std::vector<std::string> order;
  auto low = MakeTracer("low", &order, CouplingMode::kImmediate, 1);
  auto high = MakeTracer("high", &order, CouplingMode::kImmediate, 10);
  auto mid = MakeTracer("mid", &order, CouplingMode::kImmediate, 5);
  scheduler.BeginRound();
  scheduler.Trigger(low.get(), Det());
  scheduler.Trigger(high.get(), Det());
  scheduler.Trigger(mid.get(), Det());
  ASSERT_TRUE(scheduler.EndRound(nullptr).ok());
  EXPECT_EQ(order, (std::vector<std::string>{"high", "mid", "low"}));
}

TEST(SchedulerTest, EqualPriorityPreservesTriggerOrder) {
  MetricsRegistry metrics;
  RuleScheduler scheduler(metrics);
  std::vector<std::string> order;
  auto a = MakeTracer("a", &order);
  auto b = MakeTracer("b", &order);
  scheduler.BeginRound();
  scheduler.Trigger(a.get(), Det());
  scheduler.Trigger(b.get(), Det());
  ASSERT_TRUE(scheduler.EndRound(nullptr).ok());
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b"}));
}

TEST(SchedulerTest, CustomConflictResolverReplacesDefault) {
  MetricsRegistry metrics;
  RuleScheduler scheduler(metrics);
  // Reverse trigger order, ignoring priorities entirely.
  scheduler.set_conflict_resolver([](std::vector<RuleScheduler::Triggered>* b) {
    std::reverse(b->begin(), b->end());
  });
  std::vector<std::string> order;
  auto a = MakeTracer("a", &order, CouplingMode::kImmediate, 100);
  auto b = MakeTracer("b", &order, CouplingMode::kImmediate, 0);
  scheduler.BeginRound();
  scheduler.Trigger(a.get(), Det());
  scheduler.Trigger(b.get(), Det());
  ASSERT_TRUE(scheduler.EndRound(nullptr).ok());
  EXPECT_EQ(order, (std::vector<std::string>{"b", "a"}));
}

TEST(SchedulerTest, NestedRoundsExecuteIndependently) {
  MetricsRegistry metrics;
  RuleScheduler scheduler(metrics);
  std::vector<std::string> order;
  auto outer = MakeTracer("outer", &order);
  auto inner = MakeTracer("inner", &order);
  scheduler.BeginRound();
  scheduler.Trigger(outer.get(), Det());
  scheduler.BeginRound();  // Nested raise.
  scheduler.Trigger(inner.get(), Det());
  ASSERT_TRUE(scheduler.EndRound(nullptr).ok());
  EXPECT_EQ(order, (std::vector<std::string>{"inner"}));
  ASSERT_TRUE(scheduler.EndRound(nullptr).ok());
  EXPECT_EQ(order, (std::vector<std::string>{"inner", "outer"}));
}

TEST(SchedulerTest, EndRoundWithoutBeginFails) {
  MetricsRegistry metrics;
  RuleScheduler scheduler(metrics);
  EXPECT_TRUE(scheduler.EndRound(nullptr).IsFailedPrecondition());
}

TEST(SchedulerTest, DeferredQueuesOnTransaction) {
  MetricsRegistry metrics;
  RuleScheduler scheduler(metrics);
  LockManager locks;
  Transaction txn(1, &locks);
  std::vector<std::string> order;
  auto rule = MakeTracer("d", &order, CouplingMode::kDeferred);
  scheduler.BeginRound();
  scheduler.Trigger(rule.get(), Det(&txn));
  ASSERT_TRUE(scheduler.EndRound(&txn).ok());
  EXPECT_TRUE(order.empty());  // Deferred until commit point.
  EXPECT_EQ(scheduler.deferred_scheduled(), 1u);
  ASSERT_TRUE(txn.RunDeferred().ok());
  EXPECT_EQ(order, (std::vector<std::string>{"d"}));
}

TEST(SchedulerTest, DeferredWithoutTransactionRunsNow) {
  MetricsRegistry metrics;
  RuleScheduler scheduler(metrics);
  std::vector<std::string> order;
  auto rule = MakeTracer("d", &order, CouplingMode::kDeferred);
  scheduler.BeginRound();
  scheduler.Trigger(rule.get(), Det());
  ASSERT_TRUE(scheduler.EndRound(nullptr).ok());
  EXPECT_EQ(order, (std::vector<std::string>{"d"}));
}

TEST(SchedulerTest, DetachedUsesRunner) {
  MetricsRegistry metrics;
  RuleScheduler scheduler(metrics);
  int runner_calls = 0;
  scheduler.set_detached_runner(
      [&](std::function<Status(Transaction*)> body) {
        ++runner_calls;
        return body(nullptr);
      });
  LockManager locks;
  Transaction txn(1, &locks);
  std::vector<std::string> order;
  auto rule = MakeTracer("det", &order, CouplingMode::kDetached);
  scheduler.BeginRound();
  scheduler.Trigger(rule.get(), Det(&txn));
  ASSERT_TRUE(scheduler.EndRound(&txn).ok());
  EXPECT_TRUE(order.empty());
  // Detached work rides on the transaction until post-commit.
  auto detached = txn.TakeDetached();
  ASSERT_EQ(detached.size(), 1u);
  ASSERT_TRUE(detached[0]().ok());
  EXPECT_EQ(order, (std::vector<std::string>{"det"}));
  EXPECT_EQ(runner_calls, 1);
}

TEST(SchedulerTest, CascadeDepthGuardAborts) {
  MetricsRegistry metrics;
  RuleScheduler scheduler(metrics);
  scheduler.set_max_cascade_depth(5);
  // A rule whose action re-triggers itself: unbounded without the guard.
  EventPtr event = Prim("end A::M");
  Rule rule("looper", event, nullptr, nullptr);
  rule.SetAction([&](RuleContext&) {
    scheduler.Trigger(&rule, Det());
    return Status::OK();
  });
  Status s = scheduler.ExecuteNow(&rule, Det(), nullptr);
  // The recursion bottoms out at the guard instead of overflowing.
  EXPECT_EQ(scheduler.max_observed_depth(), 5);
  EXPECT_LE(metrics.histogram("rules.dispatch_ns")->Count(), 5u);
  (void)s;  // Outermost call returns OK (inner abort surfaced via counter).
}

TEST(SchedulerTest, CascadeGuardDoomsTransaction) {
  MetricsRegistry metrics;
  RuleScheduler scheduler(metrics);
  scheduler.set_max_cascade_depth(3);
  LockManager locks;
  Transaction txn(1, &locks);
  EventPtr event = Prim("end A::M");
  Rule rule("looper", event, nullptr, nullptr);
  bool saw_abort = false;
  rule.SetAction([&](RuleContext& ctx) {
    Status s = scheduler.ExecuteNow(&rule, Det(ctx.txn), ctx.txn);
    saw_abort = saw_abort || s.IsAborted();
    return Status::OK();
  });
  scheduler.ExecuteNow(&rule, Det(&txn), &txn).ok();
  EXPECT_TRUE(txn.abort_requested());
  EXPECT_TRUE(saw_abort);  // The innermost call hit the guard.
}

TEST(SchedulerTest, OutOfRoundDispatchErrorIsRecorded) {
  // An out-of-round Trigger has no caller to hand a failure to; it used to
  // discard the status outright. It must land in the error counter, the
  // last-error slot, and the trace.
  MetricsRegistry metrics;
  RuleScheduler scheduler(metrics);
  TraceRecorder recorder;
  scheduler.set_tracer(&recorder);
  EventPtr event = Prim("end A::M");
  Rule rule("broken", event, nullptr,
            [](RuleContext&) { return Status::Internal("action bug"); });

  EXPECT_EQ(scheduler.trigger_error_count(), 0u);
  scheduler.Trigger(&rule, Det());  // No round open: dispatches inline.

  EXPECT_EQ(scheduler.trigger_error_count(), 1u);
  EXPECT_TRUE(scheduler.last_trigger_error().IsInternal());
  auto traces =
      recorder.EntriesOfKind(TraceEntry::Kind::kDispatchError);
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].subject, "broken");

  // A successful dispatch leaves the counter alone.
  Rule fine("fine", event, nullptr,
            [](RuleContext&) { return Status::OK(); });
  scheduler.Trigger(&fine, Det());
  EXPECT_EQ(scheduler.trigger_error_count(), 1u);
}

TEST(SchedulerTest, InRoundDispatchErrorStillSurfacesThroughEndRound) {
  // Errors inside a round are returned by EndRound, not the counter.
  MetricsRegistry metrics;
  RuleScheduler scheduler(metrics);
  EventPtr event = Prim("end A::M");
  Rule rule("broken", event, nullptr,
            [](RuleContext&) { return Status::Internal("action bug"); });
  scheduler.BeginRound();
  scheduler.Trigger(&rule, Det());
  EXPECT_TRUE(scheduler.EndRound(nullptr).IsInternal());
  EXPECT_EQ(scheduler.trigger_error_count(), 0u);
}

TEST(SchedulerTest, DispatchErrorRestoresCascadeDepth) {
  // Regression: the error path out of ExecuteNow used to return before the
  // cascade-depth counter was decremented, so each failing immediate rule
  // permanently consumed one level of depth budget. Enough failures and the
  // scheduler refused every rule as a runaway cascade.
  MetricsRegistry metrics;
  RuleScheduler scheduler(metrics);
  scheduler.set_max_cascade_depth(3);
  EventPtr event = Prim("end A::M");
  Rule broken("broken", event, nullptr,
              [](RuleContext&) { return Status::Internal("action bug"); });

  // More failures than the depth budget. Without the scoped restore the
  // fourth call would already be refused with Aborted.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(scheduler.ExecuteNow(&broken, Det(), nullptr).IsInternal())
        << "iteration " << i << " was refused by a leaked depth level";
    EXPECT_EQ(scheduler.exec_depth(), 0) << "after iteration " << i;
  }
  EXPECT_EQ(scheduler.max_observed_depth(), 1);

  // The scheduler still runs healthy rules afterwards, rounds included.
  std::vector<std::string> order;
  auto fine = MakeTracer("fine", &order);
  scheduler.BeginRound();
  scheduler.Trigger(fine.get(), Det());
  ASSERT_TRUE(scheduler.EndRound(nullptr).ok());
  EXPECT_EQ(order, (std::vector<std::string>{"fine"}));
  EXPECT_EQ(scheduler.exec_depth(), 0);
}

TEST(SchedulerTest, CascadeDepthAbortIsTraced) {
  MetricsRegistry metrics;
  RuleScheduler scheduler(metrics);
  TraceRecorder recorder;
  scheduler.set_tracer(&recorder);
  scheduler.set_max_cascade_depth(2);
  EventPtr event = Prim("end A::M");
  Rule rule("looper", event, nullptr, nullptr);
  rule.SetAction([&](RuleContext&) {
    scheduler.ExecuteNow(&rule, Det(), nullptr).ok();
    return Status::OK();
  });
  scheduler.ExecuteNow(&rule, Det(), nullptr).ok();

  // The depth-guard refusal shows up in the trace — a runaway cascade that
  // dies silently is exactly what the tracer exists to expose.
  auto aborts = recorder.EntriesOfKind(TraceEntry::Kind::kCascadeAbort);
  ASSERT_EQ(aborts.size(), 1u);
  EXPECT_EQ(aborts[0].subject, "looper");
  EXPECT_EQ(aborts[0].depth, 2);
}

}  // namespace
}  // namespace sentinel
