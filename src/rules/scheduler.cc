// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "rules/scheduler.h"

#include <algorithm>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/logging.h"

namespace sentinel {

namespace {

/// Scoped cascade-depth accounting: increments on entry, restores on every
/// exit path. The previous manual ++/-- pair happened to balance, but any
/// early return added between them (error handling, forwarded-dispatch
/// paths) would have leaked depth and poisoned the cascade guard for every
/// later round — exactly the failure mode the sharded raise path multiplies.
class DepthScope {
 public:
  explicit DepthScope(int* depth) : depth_(depth) { ++*depth_; }
  ~DepthScope() { --*depth_; }
  DepthScope(const DepthScope&) = delete;
  DepthScope& operator=(const DepthScope&) = delete;

 private:
  int* depth_;
};

}  // namespace

void RuleScheduler::BeginRound() { round_stack_.emplace_back(); }

void RuleScheduler::Trigger(Rule* rule, const EventDetection& det) {
  if (tracer_ != nullptr) {
    tracer_->Trace(TraceEntry{
        TraceEntry::Kind::kTriggered, Clock::Now(), rule->name(),
        det.constituents.empty() ? "" : det.last().Key(), exec_depth_,
        det.txn != nullptr ? det.txn->id() : 0});
  }
  if (round_stack_.empty()) {
    // No open round (event raised outside database plumbing): run now.
    // There is no caller to hand a failure back to, so record it — an
    // earlier version discarded the status here and rule failures
    // vanished without a trace.
    Status s = Dispatch(Triggered{rule, det, trigger_seq_++}, det.txn);
    if (!s.ok()) {
      ++trigger_errors_;
      last_trigger_error_ = s;
      SENTINEL_WARN << "event=rule_dispatch_failed rule=" << rule->name()
                    << " status=\"" << s.ToString() << "\"";
      if (tracer_ != nullptr) {
        tracer_->Trace(TraceEntry{
            TraceEntry::Kind::kDispatchError, Clock::Now(), rule->name(),
            s.ToString(), exec_depth_,
            det.txn != nullptr ? det.txn->id() : 0});
      }
    }
    return;
  }
  round_stack_.back().push_back(Triggered{rule, det, trigger_seq_++});
}

Status RuleScheduler::EndRound(Transaction* txn) {
  if (round_stack_.empty()) {
    return Status::FailedPrecondition("EndRound without BeginRound");
  }
  std::vector<Triggered> batch = std::move(round_stack_.back());
  round_stack_.pop_back();
  if (batch.empty()) return Status::OK();

  if (resolver_) {
    resolver_(&batch);
  } else {
    // Default conflict resolution: priority descending, then trigger order.
    std::stable_sort(batch.begin(), batch.end(),
                     [](const Triggered& a, const Triggered& b) {
                       if (a.rule->priority() != b.rule->priority()) {
                         return a.rule->priority() > b.rule->priority();
                       }
                       return a.seq < b.seq;
                     });
  }

  Status first_error = Status::OK();
  for (const Triggered& entry : batch) {
    Status s = Dispatch(entry, txn);
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  return first_error;
}

Status RuleScheduler::Dispatch(const Triggered& entry, Transaction* txn) {
  Transaction* effective = entry.detection.txn != nullptr
                               ? entry.detection.txn
                               : txn;
  switch (entry.rule->coupling()) {
    case CouplingMode::kImmediate:
      m_dispatch_immediate_->Add();
      return ExecuteNow(entry.rule, entry.detection, effective);

    case CouplingMode::kDeferred: {
      m_dispatch_deferred_->Add();
      if (effective == nullptr || !effective->active()) {
        // No commit point to defer to: run now.
        return ExecuteNow(entry.rule, entry.detection, effective);
      }
      ++deferred_scheduled_;
      if (tracer_ != nullptr) {
        tracer_->Trace(TraceEntry{TraceEntry::Kind::kDeferred, Clock::Now(),
                                  entry.rule->name(), "queued to commit",
                                  exec_depth_, effective->id()});
      }
      Rule* rule = entry.rule;
      EventDetection det = entry.detection;
      effective->AddDeferred([this, rule, det, effective]() -> Status {
        SENTINEL_FAILPOINT("scheduler.deferred");
        return ExecuteNow(rule, det, effective);
      });
      return Status::OK();
    }

    case CouplingMode::kDetached: {
      m_dispatch_detached_->Add();
      Rule* rule = entry.rule;
      EventDetection det = entry.detection;
      auto body = [this, rule, det](Transaction* fresh) -> Status {
        SENTINEL_FAILPOINT("scheduler.detached");
        return ExecuteNow(rule, det, fresh);
      };
      if (effective == nullptr || !effective->active()) {
        // No triggering transaction: run in a fresh one right away (or
        // plainly, without transactions, when no runner is wired).
        ++detached_scheduled_;
        return detached_runner_ ? detached_runner_(body)
                                : ExecuteNow(rule, det, nullptr);
      }
      ++detached_scheduled_;
      if (tracer_ != nullptr) {
        tracer_->Trace(TraceEntry{TraceEntry::Kind::kDetached, Clock::Now(),
                                  entry.rule->name(),
                                  "queued post-commit", exec_depth_,
                                  effective->id()});
      }
      DetachedRunner runner = detached_runner_;
      effective->AddDetached([runner, body]() {
        return runner ? runner(body) : body(nullptr);
      });
      return Status::OK();
    }
  }
  return Status::Internal("unreachable coupling mode");
}

Status RuleScheduler::ExecuteNow(Rule* rule, const EventDetection& det,
                                 Transaction* txn) {
  if (exec_depth_ >= max_cascade_depth_) {
    std::string why = "rule cascade exceeded depth " +
                      std::to_string(max_cascade_depth_) + " at rule " +
                      rule->name();
    if (txn != nullptr) {
      txn->RequestAbort(why);
    }
    // Trace the abort: a runaway cascade that dies silently is exactly the
    // situation the tracer exists for.
    if (tracer_ != nullptr) {
      tracer_->Trace(TraceEntry{TraceEntry::Kind::kCascadeAbort, Clock::Now(),
                                rule->name(), why, exec_depth_,
                                txn != nullptr ? txn->id() : 0});
    }
    return Status::Aborted(why);
  }
  DepthScope depth_scope(&exec_depth_);
  max_observed_depth_ = std::max(max_observed_depth_, exec_depth_);
  m_cascade_depth_->Record(exec_depth_);
  const int64_t exec_start = SteadyNowNs();
  RuleContext ctx;
  ctx.db = db_;
  ctx.txn = txn;
  ctx.detection = &det;
  ctx.rule = rule;
  uint64_t fired_before = rule->fired_count();
  uint64_t errors_before = rule->error_count();
  Status s = rule->Execute(ctx);
  if (tracer_ != nullptr) {
    TraceEntry::Kind kind;
    std::string detail;
    if (rule->error_count() != errors_before) {
      kind = TraceEntry::Kind::kActionError;
      detail = s.ToString();
    } else if (rule->fired_count() != fired_before) {
      kind = TraceEntry::Kind::kFired;
    } else {
      kind = TraceEntry::Kind::kConditionFalse;
    }
    tracer_->Trace(TraceEntry{kind, Clock::Now(), rule->name(), detail,
                              exec_depth_, txn != nullptr ? txn->id() : 0});
  }
  m_dispatch_ns_->Record(SteadyNowNs() - exec_start);
  return s;
}

}  // namespace sentinel
