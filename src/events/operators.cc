// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "events/operators.h"

#include <unordered_set>

namespace sentinel {

namespace {

/// True when two detections share any constituent occurrence (by the
/// process-unique timestamp sequence) — used to prevent an occurrence from
/// pairing with itself in same-child operators like And(E, E).
bool SharesOccurrence(const EventDetection& a, const EventDetection& b) {
  for (const EventOccurrence& x : a.constituents) {
    for (const EventOccurrence& y : b.constituents) {
      if (x.timestamp.seq == y.timestamp.seq) return true;
    }
  }
  return false;
}

/// True when `target` is `from` or lies below it.
bool Reaches(Event* from, const Event* target) {
  std::vector<Event*> stack{from};
  std::unordered_set<const Event*> seen;
  while (!stack.empty()) {
    Event* node = stack.back();
    stack.pop_back();
    if (node == target) return true;
    if (!seen.insert(node).second) continue;
    for (Event* c : node->Children()) stack.push_back(c);
  }
  return false;
}

}  // namespace

// --- CompositeEvent ----------------------------------------------------------

CompositeEvent::CompositeEvent(std::string event_class,
                               std::vector<EventPtr> children)
    : Event(std::move(event_class)) {
  Rewire(std::move(children));
}

CompositeEvent::~CompositeEvent() {
  for (const EventPtr& c : children_) {
    if (c) c->RemoveListener(this);
  }
}

void CompositeEvent::Rewire(std::vector<EventPtr> children) {
  for (const EventPtr& c : children_) {
    if (c) c->RemoveListener(this);
  }
  children_ = std::move(children);
  for (const EventPtr& c : children_) {
    if (c) c->AddListener(this);
  }
  InvalidateGraphCaches();
}

Event* CompositeEvent::child(size_t index) const {
  return index < children_.size() ? children_[index].get() : nullptr;
}

std::string CompositeEvent::DescribeChild(size_t index) const {
  const Event* c = child(index);
  return c ? c->Describe() : "?";
}

std::vector<Event*> CompositeEvent::Children() const {
  std::vector<Event*> out;
  out.reserve(children_.size());
  for (const EventPtr& c : children_) {
    if (c) out.push_back(c.get());
  }
  return out;
}

void CompositeEvent::OnEvent(Event* source, const EventDetection& det) {
  for (size_t i = 0; i < children_.size(); ++i) {
    if (children_[i].get() == source) {
      OnChild(i, det);
      return;
    }
  }
}

void CompositeEvent::SerializeState(Encoder* enc) const {
  PutParams(enc);
  for (const EventPtr& c : children_) enc->PutU64(c ? c->oid() : kInvalidOid);
}

Status CompositeEvent::DeserializeState(Decoder* dec) {
  SENTINEL_ASSIGN_OR_RETURN(size_t count, GetParams(dec));
  // A hostile count must not size anything: each child takes 8 bytes.
  if (count > dec->remaining() / sizeof(Oid)) {
    return Status::Corruption(
        std::string(class_name()).append(" claims ")
            .append(std::to_string(count))
            .append(" children in ")
            .append(std::to_string(dec->remaining()))
            .append(" bytes"));
  }
  child_oids_.assign(count, kInvalidOid);
  for (Oid& oid : child_oids_) SENTINEL_RETURN_IF_ERROR(dec->GetU64(&oid));
  return Status::OK();
}

Status CompositeEvent::Relink(const std::function<EventPtr(Oid)>& lookup) {
  auto corrupt = [this](const char* what, Oid child_oid) {
    return Status::Corruption(std::string(class_name())
                                  .append(" ")
                                  .append(OidToString(oid()))
                                  .append(what)
                                  .append(OidToString(child_oid)));
  };
  std::vector<EventPtr> children;
  children.reserve(child_oids_.size());
  for (Oid child_oid : child_oids_) {
    EventPtr c = lookup(child_oid);
    if (c == nullptr) return corrupt(" references missing child ", child_oid);
    // Nodes relinked so far already carry their children, so the last
    // edge of any cycle is caught here, before it is wired.
    if (Reaches(c.get(), this)) {
      return corrupt(" is its own descendant through child ", child_oid);
    }
    children.push_back(std::move(c));
  }
  Rewire(std::move(children));
  return Status::OK();
}

// --- BinaryEvent -------------------------------------------------------------

BinaryEvent::BinaryEvent(std::string event_class, EventPtr left,
                         EventPtr right, ParameterContext context)
    : CompositeEvent(std::move(event_class),
                     {std::move(left), std::move(right)}),
      context_(context) {}

void BinaryEvent::SetChildren(EventPtr left, EventPtr right) {
  Rewire({std::move(left), std::move(right)});
}

void BinaryEvent::OnChild(size_t index, const EventDetection& det) {
  if (index == 0) {
    OnLeft(det);
  } else {
    OnRight(det);
  }
}

void BinaryEvent::PutParams(Encoder* enc) const { PutContext(enc, context_); }

Result<size_t> BinaryEvent::GetParams(Decoder* dec) {
  SENTINEL_RETURN_IF_ERROR(GetContext(dec, &context_));
  return size_t{2};
}

std::string BinaryEvent::DescribeAs(const char* name) const {
  return std::string(name).append("(").append(DescribeChild(0))
      .append(", ").append(DescribeChild(1)).append(")");
}

// --- Conjunction -----------------------------------------------------------

Conjunction::Conjunction(EventPtr left, EventPtr right,
                         ParameterContext context)
    : BinaryEvent("Conjunction", std::move(left), std::move(right), context) {
}

void Conjunction::OnSide(
    PairingBuffer* mine, PairingBuffer* other, const EventDetection& det,
    const std::function<bool(const EventDetection&)>& eligible) {
  auto groups = other->PairWithTerminator(context(), det, eligible);
  if (groups.empty()) {
    mine->AddInitiator(context(), det);
    return;
  }
  for (auto& group : groups) {
    group.push_back(det);
    Signal(EventDetection::Merge(group));
  }
  if (context() == ParameterContext::kRecent) {
    // Recent reuses the latest constituent of each side.
    mine->AddInitiator(context(), det);
  }
}

void Conjunction::OnLeft(const EventDetection& det) {
  if (left() == right()) {
    // And(E, E): two distinct occurrences of E, any order. An occurrence
    // must not pair with itself.
    OnSide(&left_buffer_, &left_buffer_, det,
           [&det](const EventDetection& init) {
             return !SharesOccurrence(init, det);
           });
    return;
  }
  OnSide(&left_buffer_, &right_buffer_, det, nullptr);
}

void Conjunction::OnRight(const EventDetection& det) {
  OnSide(&right_buffer_, &left_buffer_, det, nullptr);
}

void Conjunction::ResetState() {
  left_buffer_.Clear();
  right_buffer_.Clear();
  Event::ResetState();
}

std::string Conjunction::Describe() const { return DescribeAs("And"); }

// --- Disjunction -----------------------------------------------------------

Disjunction::Disjunction(EventPtr left, EventPtr right,
                         ParameterContext context)
    : BinaryEvent("Disjunction", std::move(left), std::move(right), context) {
}

void Disjunction::OnLeft(const EventDetection& det) { Signal(det); }

void Disjunction::OnRight(const EventDetection& det) { Signal(det); }

std::string Disjunction::Describe() const { return DescribeAs("Or"); }

// --- Sequence ---------------------------------------------------------------

Sequence::Sequence(EventPtr left, EventPtr right, ParameterContext context)
    : BinaryEvent("Sequence", std::move(left), std::move(right), context) {}

void Sequence::OnLeft(const EventDetection& det) {
  if (left() == right()) {
    // Seq(E, E): a strictly earlier occurrence followed by a later one.
    auto groups = initiators_.PairWithTerminator(
        context(), det, [&det](const EventDetection& init) {
          return init.end_ts < det.end_ts && !SharesOccurrence(init, det);
        });
    for (auto& group : groups) {
      group.push_back(det);
      Signal(EventDetection::Merge(group));
    }
    // Every occurrence can start a new pair.
    initiators_.AddInitiator(context(), det);
    return;
  }
  initiators_.AddInitiator(context(), det);
}

void Sequence::OnRight(const EventDetection& det) {
  // "E is signaled when the last component of E2 occurs provided all the
  // components of E1 have occurred" (§4.3): the initiator detection must be
  // complete before the terminator completes.
  auto groups = initiators_.PairWithTerminator(
      context(), det, [&det](const EventDetection& init) {
        return init.end_ts < det.end_ts;
      });
  for (auto& group : groups) {
    group.push_back(det);
    Signal(EventDetection::Merge(group));
  }
}

void Sequence::ResetState() {
  initiators_.Clear();
  Event::ResetState();
}

std::string Sequence::Describe() const { return DescribeAs("Seq"); }

// --- Builders ----------------------------------------------------------------

EventPtr And(EventPtr left, EventPtr right, ParameterContext context) {
  return std::make_shared<Conjunction>(std::move(left), std::move(right),
                                       context);
}

EventPtr Or(EventPtr left, EventPtr right, ParameterContext context) {
  return std::make_shared<Disjunction>(std::move(left), std::move(right),
                                       context);
}

EventPtr Seq(EventPtr left, EventPtr right, ParameterContext context) {
  return std::make_shared<Sequence>(std::move(left), std::move(right),
                                    context);
}

}  // namespace sentinel
