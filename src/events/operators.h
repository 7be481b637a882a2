// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// The paper's composite-event operators (§4.3, Fig. 5/6):
//
//   Conjunction(E1, E2) — signaled when both E1 and E2 have occurred,
//       regardless of order (composite constituents likewise unordered).
//   Disjunction(E1, E2) — signaled when either E1 or E2 occurs.
//   Sequence(E1, E2)    — signaled when E2 occurs provided E1 occurred
//       earlier; for composite children, when the last component of E2
//       occurs provided all components of E1 have occurred.
//
// Every operator takes a ParameterContext deciding which buffered partial
// detections pair with a completing one (default Chronicle = FIFO).
//
// All operators, these three and the Snoop ones, derive from one
// CompositeEvent base that wires, persists and relinks their children.

#ifndef SENTINEL_EVENTS_OPERATORS_H_
#define SENTINEL_EVENTS_OPERATORS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "events/context.h"
#include "events/event.h"

namespace sentinel {

/// Base of every operator node (paper Fig. 5: the composite events under
/// Event). It owns the ordered child list: it listens to each child,
/// dispatches child detections by position, and persists the operator as
/// its parameters followed by one u64 oid per child. Subclasses keep only
/// their parameters and detection state.
class CompositeEvent : public Event, public EventListener {
 public:
  ~CompositeEvent() override;

  std::vector<Event*> Children() const override;

  /// Delivers `det` to OnChild with the position of the first child that
  /// is `source`: a child listed twice, as in And(E, E), plays the role of
  /// its first position only.
  void OnEvent(Event* source, const EventDetection& det) final;

  /// The parameters (PutParams), then one u64 oid per child.
  void SerializeState(Encoder* enc) const final;

  /// Reads the parameters and the child oids. The children themselves are
  /// wired by Relink once every node of the graph is loaded.
  Status DeserializeState(Decoder* dec) final;

  /// Wires the children from the oids DeserializeState read; `lookup`
  /// returns the loaded node of an oid, or null. Corruption when a child
  /// is missing or would make the graph a cycle.
  Status Relink(const std::function<EventPtr(Oid)>& lookup);

 protected:
  CompositeEvent(std::string event_class, std::vector<EventPtr> children);

  /// Replaces the children: detaches from the old ones, attaches to the
  /// new ones and invalidates routing caches.
  void Rewire(std::vector<EventPtr> children);

  size_t child_count() const { return children_.size(); }
  /// The child at `index`, or null (a child not wired yet).
  Event* child(size_t index) const;
  /// Describe() of the child at `index`, "?" when there is none.
  std::string DescribeChild(size_t index) const;

  /// The child at `index` signaled `det`.
  virtual void OnChild(size_t index, const EventDetection& det) = 0;
  /// Writes the operator's parameters.
  virtual void PutParams(Encoder* enc) const = 0;
  /// Reads what PutParams wrote; returns how many child oids follow.
  virtual Result<size_t> GetParams(Decoder* dec) = 0;

 private:
  std::vector<EventPtr> children_;
  std::vector<Oid> child_oids_;  ///< Read by DeserializeState, for Relink.
};

/// Two-child operators: a parameter context and left/right roles.
class BinaryEvent : public CompositeEvent {
 public:
  ParameterContext context() const { return context_; }

  /// Rewires both children (detaching from the previous ones first).
  void SetChildren(EventPtr left, EventPtr right);

  Event* left() const { return child(0); }
  Event* right() const { return child(1); }

 protected:
  BinaryEvent(std::string event_class, EventPtr left, EventPtr right,
              ParameterContext context);

  virtual void OnLeft(const EventDetection& det) = 0;
  virtual void OnRight(const EventDetection& det) = 0;

  /// "name(left, right)".
  std::string DescribeAs(const char* name) const;

 private:
  void OnChild(size_t index, const EventDetection& det) final;
  void PutParams(Encoder* enc) const final;
  Result<size_t> GetParams(Decoder* dec) final;

  ParameterContext context_;
};

/// And: both children, any order.
class Conjunction : public BinaryEvent {
 public:
  Conjunction(EventPtr left, EventPtr right,
              ParameterContext context = ParameterContext::kChronicle);

  std::string Describe() const override;
  void ResetState() override;

  /// Pending partial detections per side (tests/benches).
  size_t pending_left() const { return left_buffer_.size(); }
  size_t pending_right() const { return right_buffer_.size(); }

 protected:
  void OnLeft(const EventDetection& det) override;
  void OnRight(const EventDetection& det) override;

 private:
  /// Pairs `det` with `other`'s initiators that pass `eligible` (all when
  /// null), or buffers it in `mine`. And(E, E) passes one buffer as both.
  void OnSide(PairingBuffer* mine, PairingBuffer* other,
              const EventDetection& det,
              const std::function<bool(const EventDetection&)>& eligible);

  PairingBuffer left_buffer_;
  PairingBuffer right_buffer_;
};

/// Or: either child.
class Disjunction : public BinaryEvent {
 public:
  Disjunction(EventPtr left, EventPtr right,
              ParameterContext context = ParameterContext::kChronicle);

  std::string Describe() const override;

 protected:
  void OnLeft(const EventDetection& det) override;
  void OnRight(const EventDetection& det) override;
};

/// Seq: left strictly before right (by detection completion time).
class Sequence : public BinaryEvent {
 public:
  Sequence(EventPtr left, EventPtr right,
           ParameterContext context = ParameterContext::kChronicle);

  std::string Describe() const override;
  void ResetState() override;

  size_t pending_initiators() const { return initiators_.size(); }

 protected:
  void OnLeft(const EventDetection& det) override;
  void OnRight(const EventDetection& det) override;

 private:
  PairingBuffer initiators_;
};

/// Convenience builders mirroring the paper's `new Conjunction(e1, e2)`.
EventPtr And(EventPtr left, EventPtr right,
             ParameterContext context = ParameterContext::kChronicle);
EventPtr Or(EventPtr left, EventPtr right,
            ParameterContext context = ParameterContext::kChronicle);
EventPtr Seq(EventPtr left, EventPtr right,
             ParameterContext context = ParameterContext::kChronicle);

}  // namespace sentinel

#endif  // SENTINEL_EVENTS_OPERATORS_H_
