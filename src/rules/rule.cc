// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "rules/rule.h"

#include "common/clock.h"
#include "common/logging.h"
#include "rules/scheduler.h"

namespace sentinel {

namespace {
const ValueList kEmptyParams;
const std::vector<EventOccurrence> kNoConstituents;
}  // namespace

const char* ToString(CouplingMode mode) {
  switch (mode) {
    case CouplingMode::kImmediate:
      return "immediate";
    case CouplingMode::kDeferred:
      return "deferred";
    case CouplingMode::kDetached:
      return "detached";
  }
  return "?";
}

const ValueList& RuleContext::params() const {
  if (detection == nullptr || detection->constituents.empty()) {
    return kEmptyParams;
  }
  return detection->last().params;
}

const std::vector<EventOccurrence>& RuleContext::constituents() const {
  return detection == nullptr ? kNoConstituents : detection->constituents;
}

Rule::Rule(std::string name, EventPtr event, RuleCondition condition,
           RuleAction action, CouplingMode mode, int priority)
    : PersistentObject("Rule"),
      name_(std::move(name)),
      event_(std::move(event)),
      condition_(std::move(condition)),
      action_(std::move(action)),
      coupling_(mode),
      priority_(priority) {
  if (event_) event_->AddListener(this);
}

Rule::~Rule() {
  if (event_) event_->RemoveListener(this);
}

void Rule::SetEvent(EventPtr event) {
  if (event_) event_->RemoveListener(this);
  event_ = std::move(event);
  if (event_) event_->AddListener(this);
}

void Rule::SetCondition(RuleCondition condition,
                        std::string registered_name) {
  condition_ = std::move(condition);
  condition_name_ = std::move(registered_name);
}

void Rule::SetAction(RuleAction action, std::string registered_name) {
  action_ = std::move(action);
  action_name_ = std::move(registered_name);
}

void Rule::Enable() {
  enabled_.store(true, std::memory_order_relaxed);
  RaiseRuleEvent("Enable", EventModifier::kEnd);
}

void Rule::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
  RaiseRuleEvent("Disable", EventModifier::kEnd);
}

void Rule::Notify(const EventOccurrence& occ) {
  // Shard routing decides first: a rule owned by another shard must not
  // touch its event graph / recorded log from this thread. The router
  // forwards the occurrence and the owner calls Deliver() when draining.
  if (router_ != nullptr && owner_shard_ >= 0 &&
      !router_->ShouldDeliverLocally(this, occ)) {
    return;
  }
  Deliver(occ);
}

void Rule::Deliver(const EventOccurrence& occ) {
  Record(occ);
  if (!enabled() || event_ == nullptr) return;
  event_->Notify(occ);
}

void Rule::OnEvent(Event* source, const EventDetection& det) {
  if (source != event_.get() || !enabled()) return;
  ++triggered_;
  if (scheduler_ != nullptr) {
    scheduler_->Trigger(this, det);
    return;
  }
  // Standalone: execute inline, immediate-style.
  RuleContext ctx;
  ctx.txn = det.txn;
  ctx.detection = &det;
  ctx.rule = this;
  Execute(ctx).ok();
}

Status Rule::Execute(RuleContext& ctx) {
  ctx.rule = this;
  RaiseRuleEvent("Fire", EventModifier::kBegin);
  Status result = Status::OK();
  bool holds = true;
  if (condition_) {
    holds = condition_(ctx);
  }
  if (holds) {
    ++fired_;
    if (action_) {
      result = action_(ctx);
      if (!result.ok()) {
        ++errors_;
        SENTINEL_DEBUG << "event=rule_action_failed rule=" << name_
                       << " status=\"" << result.ToString() << "\"";
      }
    }
  }
  RaiseRuleEvent("Fire", EventModifier::kEnd);
  return result;
}

void Rule::RaiseRuleEvent(const std::string& op, EventModifier modifier) {
  if (consumer_count() == 0) return;  // Nobody monitors this rule.
  EventOccurrence occ;
  occ.oid = oid();
  occ.class_name = "Rule";
  occ.method = op;
  occ.modifier = modifier;
  occ.params = {Value(name_)};
  occ.timestamp = Clock::Now();
  NotifyConsumers(occ);
}

void Rule::SerializeState(Encoder* enc) const {
  enc->PutString(name_);
  enc->PutU64(event_ ? event_->oid() : kInvalidOid);
  enc->PutString(condition_name_);
  enc->PutString(action_name_);
  enc->PutU8(static_cast<uint8_t>(coupling_));
  enc->PutI64(priority_);
  enc->PutBool(enabled());
  // Anonymous (unregistered) closures cannot be restored; remember whether
  // they existed so the loader can disable the rule instead of silently
  // running it with a missing condition/action.
  enc->PutBool(static_cast<bool>(condition_) && condition_name_.empty());
  enc->PutBool(static_cast<bool>(action_) && action_name_.empty());
  enc->PutU32(static_cast<uint32_t>(monitored_instances_.size()));
  for (Oid oid : monitored_instances_) enc->PutU64(oid);
  enc->PutU32(static_cast<uint32_t>(target_classes_.size()));
  for (const std::string& cls : target_classes_) enc->PutString(cls);
}

Status Rule::DeserializeState(Decoder* dec) {
  SENTINEL_RETURN_IF_ERROR(dec->GetString(&name_));
  SENTINEL_RETURN_IF_ERROR(dec->GetU64(&persisted_event_));
  SENTINEL_RETURN_IF_ERROR(dec->GetString(&condition_name_));
  SENTINEL_RETURN_IF_ERROR(dec->GetString(&action_name_));
  uint8_t coupling;
  SENTINEL_RETURN_IF_ERROR(dec->GetU8(&coupling));
  if (coupling > static_cast<uint8_t>(CouplingMode::kDetached)) {
    return Status::Corruption("bad coupling mode tag");
  }
  coupling_ = static_cast<CouplingMode>(coupling);
  int64_t priority;
  SENTINEL_RETURN_IF_ERROR(dec->GetI64(&priority));
  priority_ = static_cast<int>(priority);
  bool enabled = true;
  SENTINEL_RETURN_IF_ERROR(dec->GetBool(&enabled));
  enabled_.store(enabled, std::memory_order_relaxed);
  SENTINEL_RETURN_IF_ERROR(dec->GetBool(&had_anonymous_condition_));
  SENTINEL_RETURN_IF_ERROR(dec->GetBool(&had_anonymous_action_));
  uint32_t n;
  SENTINEL_RETURN_IF_ERROR(dec->GetU32(&n));
  monitored_instances_.assign(n, kInvalidOid);
  for (uint32_t i = 0; i < n; ++i) {
    SENTINEL_RETURN_IF_ERROR(dec->GetU64(&monitored_instances_[i]));
  }
  SENTINEL_RETURN_IF_ERROR(dec->GetU32(&n));
  target_classes_.assign(n, "");
  for (uint32_t i = 0; i < n; ++i) {
    SENTINEL_RETURN_IF_ERROR(dec->GetString(&target_classes_[i]));
  }
  return Status::OK();
}

}  // namespace sentinel
