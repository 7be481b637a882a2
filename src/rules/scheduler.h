// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// RuleScheduler: decides when and in what order triggered rules execute.
//
// Rounds. Each raised primitive event opens a *round* (the database brackets
// NotifyConsumers with BeginRound/EndRound). Rules triggered during the
// round are collected and, when the round closes, dispatched in conflict-
// resolution order (priority descending, trigger order as tiebreak — the
// pluggable resolver can replace this, §3 "providing a new conflict
// resolution strategy without modifications to application code"):
//
//   * immediate rules run right there, nested inside the triggering method
//     call (cascades open nested rounds; a depth guard bounds runaways),
//   * deferred rules are queued on the triggering transaction and run at
//     its commit point,
//   * detached rules are queued and run in a fresh transaction after the
//     triggering transaction commits.
//
// Events raised outside any transaction still get rounds; deferred/detached
// rules then execute immediately (there is no commit point to wait for).

#ifndef SENTINEL_RULES_SCHEDULER_H_
#define SENTINEL_RULES_SCHEDULER_H_

#include <functional>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "rules/rule.h"
#include "rules/trace.h"

namespace sentinel {

class Database;

/// Orders and runs triggered rules per coupling mode.
class RuleScheduler {
 public:
  /// One triggered-rule entry awaiting dispatch.
  struct Triggered {
    Rule* rule;
    EventDetection detection;
    uint64_t seq;  ///< Trigger order within the round.
  };

  /// Reorders a round's batch before dispatch; default sorts by priority
  /// (descending), then trigger order.
  using ConflictResolver = std::function<void(std::vector<Triggered>*)>;

  /// Runs `work` inside a fresh transaction (begin/commit); wired by the
  /// Database for detached coupling.
  using DetachedRunner =
      std::function<Status(std::function<Status(Transaction*)>)>;

  /// Counts into `metrics`: Dispatch tallies per-coupling-mode counts
  /// (rules.dispatch.immediate/.deferred/.detached), ExecuteNow records
  /// body latency (rules.dispatch_ns, whose count is the number of rule
  /// executions) and the nesting depth each execution ran at
  /// (rules.cascade_depth).
  explicit RuleScheduler(MetricsRegistry& metrics, Database* db = nullptr)
      : db_(db),
        m_dispatch_immediate_(metrics.counter("rules.dispatch.immediate")),
        m_dispatch_deferred_(metrics.counter("rules.dispatch.deferred")),
        m_dispatch_detached_(metrics.counter("rules.dispatch.detached")),
        m_dispatch_ns_(metrics.histogram("rules.dispatch_ns")),
        m_cascade_depth_(metrics.histogram("rules.cascade_depth")) {}

  RuleScheduler(const RuleScheduler&) = delete;
  RuleScheduler& operator=(const RuleScheduler&) = delete;

  void set_conflict_resolver(ConflictResolver resolver) {
    resolver_ = std::move(resolver);
  }
  void set_detached_runner(DetachedRunner runner) {
    detached_runner_ = std::move(runner);
  }
  void set_max_cascade_depth(int depth) { max_cascade_depth_ = depth; }

  /// Attaches a tracer recording trigger/dispatch/execution causality;
  /// nullptr (the default) disables tracing.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  // --- Round protocol (called by the database around each raise) -----------

  void BeginRound();

  /// Closes the innermost round and dispatches its batch. `txn` is the
  /// triggering transaction (may be null).
  Status EndRound(Transaction* txn);

  /// Rule callback: collect into the open round, or dispatch immediately
  /// when no round is open (standalone raises).
  void Trigger(Rule* rule, const EventDetection& det);

  // --- Direct execution -------------------------------------------------------

  /// Runs one rule now under `txn` with cascade-depth protection.
  Status ExecuteNow(Rule* rule, const EventDetection& det, Transaction* txn);

  // --- Stats --------------------------------------------------------------------

  uint64_t deferred_scheduled() const { return deferred_scheduled_; }
  uint64_t detached_scheduled() const { return detached_scheduled_; }
  int max_observed_depth() const { return max_observed_depth_; }

  /// Live cascade nesting depth. 0 between dispatches: ExecuteNow restores
  /// it on *every* exit path (scoped), so a failing rule body cannot leave
  /// the depth guard poisoned for later rounds.
  int exec_depth() const { return exec_depth_; }

  /// Failures from out-of-round Trigger dispatches (which have no caller to
  /// return to): count and last status, so they are observable rather than
  /// silently dropped.
  uint64_t trigger_error_count() const { return trigger_errors_; }
  const Status& last_trigger_error() const { return last_trigger_error_; }

 private:
  /// Dispatches one triggered entry per its rule's coupling mode.
  Status Dispatch(const Triggered& entry, Transaction* txn);

  Database* db_;
  Tracer* tracer_ = nullptr;
  ConflictResolver resolver_;
  DetachedRunner detached_runner_;
  std::vector<std::vector<Triggered>> round_stack_;
  uint64_t trigger_seq_ = 0;
  int exec_depth_ = 0;
  int max_cascade_depth_ = 32;
  int max_observed_depth_ = 0;
  uint64_t deferred_scheduled_ = 0;
  uint64_t detached_scheduled_ = 0;
  uint64_t trigger_errors_ = 0;
  Status last_trigger_error_ = Status::OK();
  Counter* const m_dispatch_immediate_;
  Counter* const m_dispatch_deferred_;
  Counter* const m_dispatch_detached_;
  Histogram* const m_dispatch_ns_;
  Histogram* const m_cascade_depth_;
};

}  // namespace sentinel

#endif  // SENTINEL_RULES_SCHEDULER_H_
