// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// EventDetector: the bookkeeping half of event management (paper Fig. 2:
// "The rule passes the events to the event detector for storage and event
// detection").
//
// Detection itself happens inside the event graph (Event/operator nodes);
// the detector owns what surrounds it:
//   * a registry of named event objects (create/look up/delete events at
//     runtime — first-class citizenship),
//   * the global occurrence log,
//   * the logical-time pump for temporal operators,
//   * persistence: saving and restoring whole event graphs through the
//     object store, with two-phase relinking of operator children.

#ifndef SENTINEL_EVENTS_DETECTOR_H_
#define SENTINEL_EVENTS_DETECTOR_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "events/event.h"
#include "events/operators.h"
#include "events/primitive_event.h"
#include "events/snoop_operators.h"
#include "oodb/object_store.h"

namespace sentinel {

/// Record holding the persisted name->root-oid index of the registry.
constexpr Oid kEventIndexOid = 3;

/// One persistent event class: its catalog name and a factory for the
/// empty node that LoadAll fills from the stored state.
struct EventClass {
  const char* name;
  EventPtr (*make)(const ClassCatalog* catalog);
};

/// Every persistent event class, in load order. The database registers
/// each in its catalog and LoadAll reads each extent.
std::span<const EventClass> EventClasses();

/// Registry, log, and persistence for event objects.
class EventDetector {
 public:
  /// Counts into `metrics`: every RecordOccurrence bumps
  /// events.occurrences and every FIFO trim events.log_trimmed.
  explicit EventDetector(MetricsRegistry& metrics,
                         const ClassCatalog* catalog = nullptr)
      : catalog_(catalog),
        m_occurrences_(metrics.counter("events.occurrences")),
        m_trimmed_(metrics.counter("events.log_trimmed")) {
    segments_.push_back(std::make_unique<LogSegment>());
  }

  EventDetector(const EventDetector&) = delete;
  EventDetector& operator=(const EventDetector&) = delete;

  // --- Named event objects --------------------------------------------------

  /// Registers `event` under `name`. AlreadyExists on duplicates.
  Status RegisterEvent(const std::string& name, EventPtr event);

  /// Looks up a named event.
  Result<EventPtr> GetEvent(const std::string& name) const;

  /// Removes a named event from the registry (the object dies when the last
  /// rule referencing it does — shared ownership).
  Status UnregisterEvent(const std::string& name);

  std::vector<std::string> EventNames() const;
  size_t event_count() const { return named_.size(); }

  /// Finds an event node by its persistent oid (named roots with assigned
  /// oids and nodes restored by LoadAll). O(1) via the oid index, which
  /// Register/Unregister/SaveAll/LoadAll keep in sync. NotFound otherwise.
  Result<EventPtr> FindByOid(Oid oid) const;

  // --- Occurrence log ---------------------------------------------------------

  /// The raise path is sharded (core/shard.h): each shard appends to its
  /// own log segment, so RecordOccurrence never contends across shards.
  /// Must be called before any occurrence is recorded; keeps segment 0's
  /// content (the single-shard log) when growing.
  void SetShardCount(size_t shards);
  size_t shard_count() const { return segments_.size(); }

  /// Logs one generated occurrence (called by the database on every raise)
  /// into `shard`'s segment. With the default single shard this is exactly
  /// the old global log.
  void RecordOccurrence(const EventOccurrence& occ, size_t shard = 0);

  /// Segment 0's log — the complete log in the single-shard configuration.
  /// Multi-shard callers wanting the global order use MergedLog(). Entries
  /// share the raise's occurrence with the consumers' Record windows.
  const std::deque<OccurrencePtr>& occurrence_log() const {
    return segments_[0]->log;
  }

  /// All segments' entries merged into logical-clock order. The timestamps
  /// come from the process-wide monotone clock, so the merge reconstructs
  /// the paper's single global event order. Call with shards quiesced.
  std::vector<EventOccurrence> MergedLog() const;

  /// Caps each log segment; overflow trims oldest-first so long-running
  /// (gateway) workloads don't grow memory without limit. Applies
  /// immediately when a segment is already over the new cap.
  void set_log_capacity(size_t capacity);
  size_t log_capacity() const { return log_capacity_; }

  /// Installs the spill sink: every occurrence about to be FIFO-trimmed is
  /// handed to `sink` (with the owning shard) instead of vanishing. The
  /// sink runs on the trimming shard's thread with no detector locks held —
  /// the history segment store hangs off this. Pass nullptr to drop
  /// trimmed occurrences again (the pre-spill behavior).
  void SetSpillSink(
      std::function<void(size_t shard, const EventOccurrence& occ)> sink) {
    spill_sink_ = std::move(sink);
  }

  // --- Time pump (Periodic/Plus) ----------------------------------------------

  /// Advances logical time on every registered root (and, through routing,
  /// its subtree). Temporal operators may Signal from here.
  void AdvanceTime(const Timestamp& now);

  // --- Persistence --------------------------------------------------------------

  /// Stages every named event graph (all reachable nodes) into `txn`.
  /// Nodes without oids get fresh ones from the store.
  Status SaveAll(ObjectStore* store, Transaction* txn);

  /// Rebuilds the registry from the store: instantiates every persisted
  /// event node, relinks operator children, restores names. Existing
  /// registry content is replaced. A damaged graph (trailing bytes after a
  /// node's state, a missing child, a cycle, a dangling name) is
  /// Corruption and leaves the registry empty.
  Status LoadAll(ObjectStore* store);

 private:
  /// Per-shard slice of the occurrence bookkeeping: only the owning shard's
  /// thread touches a segment's mutable state, so recording needs no lock.
  struct LogSegment {
    std::deque<OccurrencePtr> log;
  };

  /// LoadAll's body; LoadAll empties the registry when it fails.
  Status LoadGraph(ObjectStore* store);

  /// All nodes reachable from the named roots (deduplicated).
  std::vector<Event*> ReachableNodes() const;

  /// Drops oldest entries until `segment`'s log fits the capacity,
  /// spilling each into the sink (tagged with `shard`) when one is set.
  void TrimLog(LogSegment* segment, size_t shard);

  const ClassCatalog* catalog_;
  std::map<std::string, EventPtr> named_;
  /// Keeps loaded anonymous nodes alive alongside their parents.
  std::map<Oid, EventPtr> loaded_;
  /// oid -> node for FindByOid (replaces a linear registry scan). Entries
  /// are erased in lockstep with named_/loaded_ so the index never extends
  /// a node's lifetime past its registry entry.
  std::unordered_map<Oid, EventPtr> oid_index_;

  /// unique_ptr for stable addresses; at least one segment always exists.
  std::vector<std::unique_ptr<LogSegment>> segments_;
  size_t log_capacity_ = 4096;  ///< Per segment.
  std::function<void(size_t, const EventOccurrence&)> spill_sink_;
  Counter* const m_occurrences_;
  Counter* const m_trimmed_;
};

}  // namespace sentinel

#endif  // SENTINEL_EVENTS_DETECTOR_H_
