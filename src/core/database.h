// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Database: the Sentinel facade. Owns the object store (persistence +
// transactions), the class catalog (schema incl. event interfaces), the
// event detector, the rule manager, the per-shard rule schedulers, and the
// registry of live reactive objects; implements RaiseContext so reactive
// objects' events flow through occurrence logging and scheduler rounds.
//
// Threading model: the storage substrate (buffer pool, lock manager, WAL)
// is thread safe. The raise path is sharded (Options::raise_shards, default
// 1 = the paper's single-mutator model, which Zeitgeist on Sun4 also
// assumed): each shard is one thread that binds itself with BindRaiseShard
// and then owns that shard's scheduler rounds, current transaction, and
// occurrence-log segment. The routing contract is per-object serialization:
// a given reactive object is always raised from the same bound thread
// (the gateway enforces this by hashing the requested oid — class-default
// relays hash by class name; see core/shard.h). A rule is owned by exactly
// one shard (assigned at its first class/instance association); raises on
// other shards reach it through a bounded SPSC forwarding hop drained by
// the owner (DrainForwarded), decoupled from the raising transaction.
// DDL — schema, rule create/apply/delete, live-object (un)registration —
// is serialized by an internal mutex and safe from any thread; reads the
// raise path shares with DDL (catalog, live map, consumer lists) are
// guarded by shared locks or copy-on-write snapshots. See DESIGN.md §8/§11.

#ifndef SENTINEL_CORE_DATABASE_H_
#define SENTINEL_CORE_DATABASE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "core/reactive.h"
#include "core/shard.h"
#include "events/detector.h"
#include "histlog/checkpointer.h"
#include "histlog/segment_store.h"
#include "oodb/attribute_index.h"
#include "oodb/class_catalog.h"
#include "oodb/object_store.h"
#include "rules/rule_manager.h"
#include "rules/scheduler.h"

namespace sentinel {

/// Record holding the persisted attribute-index definitions.
constexpr Oid kIndexDefsOid = 4;

/// An open Sentinel database.
class Database : public RaiseContext,
                 public CommitObserver,
                 public ShardRouter {
 public:
  struct Options {
    std::string dir;            ///< Directory for heap.db / wal.log.
    size_t buffer_pages = 256;  ///< Buffer-pool frames.
    int max_cascade_depth = 32; ///< Immediate-rule cascade guard.
    /// Cap on the detector's global occurrence log (FIFO-trimmed beyond it)
    /// so long-running gateway workloads stay bounded.
    size_t occurrence_log_capacity = 4096;
    /// Failpoint spec applied before the store opens, same grammar as the
    /// SENTINEL_FAILPOINTS env var (see common/failpoint.h). Tests use this
    /// to inject faults/crashes without touching the process environment.
    std::string failpoints = "";
    /// Sampling mask for the raise->notify latency histogram: the timing is
    /// taken when (raise_sequence & mask) == 0, i.e. 15 = every 16th
    /// top-level raise. The clock reads — not the counters — dominate
    /// instrumentation cost on the raise path, so sampling keeps the
    /// overhead within the documented <5% envelope. 0 = time every raise
    /// (tests use this for exact histogram counts).
    uint64_t metrics_sample_mask = 15;
    /// Number of raise-path shards (clamped to [1, 64]). 1 (the default)
    /// reproduces the single-mutator model exactly: one scheduler, no
    /// routing, no forwarding. With N > 1, N threads may raise events
    /// concurrently after each calls BindRaiseShard with a distinct shard
    /// id, provided a given object is always raised from the same shard
    /// (route with ShardIndexForRoute; the gateway does this by oid hash).
    size_t raise_shards = 1;
    /// Group-commit batching window in microseconds. 0 (the default) syncs
    /// every commit individually; > 0 lets concurrent committers across
    /// raise shards share one WAL fsync, trading up to a window of commit
    /// latency for throughput that scales with the producer count.
    uint32_t group_commit_window_us = 0;
    /// Background fuzzy checkpoint once the WAL grows past this many
    /// bytes; 0 (the default) = no background checkpointer (CheckpointNow
    /// still works on demand).
    uint64_t checkpoint_wal_bytes = 0;
    /// Spill FIFO-trimmed occurrences into per-shard append-only history
    /// segments under `dir`/history/ instead of dropping them, making the
    /// full event history queryable via HistoryScan.
    bool history_spill = false;
    /// Rotation threshold for one history segment file.
    size_t history_segment_bytes = 1 << 20;
    /// Open as a read-only replica: raises through the gateway are
    /// rejected and mutation arrives only via the replication apply path
    /// (ReplayOccurrence + ObjectStore::SystemApplyBatch) until Promote().
    bool replica = false;
  };

  /// Opens (creating if needed) the database: replays the WAL, loads the
  /// catalog (registering Sentinel's built-in classes on first open), and
  /// restores persisted events and rules.
  static Result<std::unique_ptr<Database>> Open(const Options& options);

  ~Database() override;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Persists events/rules/catalog and closes the store. Idempotent.
  Status Close();

  // --- Components ------------------------------------------------------------

  ObjectStore* store() { return &store_; }
  ClassCatalog* catalog_mutable() { return &catalog_; }
  EventDetector* detector() { return detector_.get(); }
  RuleManager* rules() { return rule_manager_.get(); }
  /// Shard 0's scheduler — the only one when raise_shards == 1. Rules
  /// owned by other shards run on those shards' schedulers instead.
  RuleScheduler* scheduler() { return &shards_[0]->scheduler; }
  FunctionRegistry* functions() { return &functions_; }

  // --- Sharded raise path -----------------------------------------------------

  /// Number of raise shards this database was opened with (>= 1).
  size_t raise_shards() const { return shards_.size(); }

  /// Binds the calling thread to `shard` (thread-local). Every raise, Begin,
  /// Commit, and WithTransaction on this thread then uses that shard's
  /// scheduler, current-transaction slot, and occurrence-log segment.
  /// Unbound threads act as shard 0. Ids >= raise_shards() clamp to the
  /// last shard. A no-op in effect when raise_shards == 1.
  ///
  /// The binding is per *worker thread*, not per transport: the gateway's
  /// shard workers serve their queue regardless of whether a frame arrived
  /// over TCP or the shared-memory transport (src/shmtp) — both route into
  /// the same per-shard ingress queues with ShardIndexForRoute, so the
  /// one-thread-per-shard invariant needs no transport-specific handling.
  static void BindRaiseShard(size_t shard);

  /// The shard the calling thread resolves to (always 0 when unsharded).
  size_t CurrentShardIndex() const;

  /// Drains triggers other shards forwarded to the calling thread's shard,
  /// running each through a fresh scheduler round on this shard. Returns
  /// the number of triggers executed. Shard workers call this between
  /// request batches; it must only run on the shard's bound thread.
  size_t DrainForwarded();

  /// Quiesce helper: drains every shard's inboxes to a fixpoint from one
  /// thread (temporarily rebinding it). Only safe once all other raising
  /// threads have stopped — the gateway calls it after joining workers.
  size_t DrainAllForwardedShards();

  // --- Durability & history ---------------------------------------------------

  /// Runs one fuzzy checkpoint right now (see ObjectStore::Checkpoint):
  /// flushes dirty pages and truncates the WAL behind the stable LSN,
  /// without stalling concurrent mutators. Also called periodically by the
  /// background checkpointer when Options enables it.
  Status CheckpointNow();

  /// Queries the spilled occurrence history (requires
  /// Options::history_spill): every occurrence FIFO-trimmed out of the
  /// in-memory log that matches `query`, across all shards, merged into
  /// logical-clock order. With `include_memory`, the detector's in-memory
  /// segments are merged in too — only safe once raising threads are
  /// quiesced (the in-memory deques are not locked). `query.limit` keeps
  /// the oldest matches; a reader pages on by passing the last row's seq
  /// as `query.after_seq` (seqs are unique within the history, see Open).
  Status HistoryScan(const HistoryQuery& query,
                     std::vector<EventOccurrence>* out,
                     bool include_memory = false);

  /// Shard `shard`'s history segment store; nullptr when history_spill is
  /// off (tests and the gateway's replay handler).
  HistorySegmentStore* history_store(size_t shard) {
    return shard < history_stores_.size() ? history_stores_[shard].get()
                                          : nullptr;
  }

  // --- Replication role -------------------------------------------------------

  /// True while this database is a read-only replica (Options::replica, or
  /// after Demote). The gateway rejects raises and rule DDL over the wire
  /// while set; replication apply is the only mutation path.
  bool is_replica() const {
    return replica_.load(std::memory_order_acquire);
  }

  /// Replica -> primary. Advances the logical clock past
  /// `max_replayed_seq` (so new timestamps extend the replayed history),
  /// re-derives the oid floor from the replicated heap, reloads the
  /// catalog image replication shipped, and clears the replica flag.
  /// Idempotent on a primary. Failpoint: "repl.promote".
  Status Promote(uint64_t max_replayed_seq);

  /// Primary -> replica (epoch fencing: a deposed primary that learns of a
  /// higher epoch demotes itself so stale producers stop being accepted).
  void Demote() { replica_.store(true, std::memory_order_release); }

  /// Replication apply of one shipped occurrence: records it (verbatim
  /// timestamp) into the shard the oid routes to and fans it out to
  /// occurrence observers (local subscribers, the repl mirror). Unsharded,
  /// trim/spill match the primary's exactly; with raise_shards > 1 the
  /// merged history matches, but a class-default relay's rows (recorded by
  /// class-name hash on the primary) can land on another shard's spill
  /// store (DESIGN.md §13.1).
  /// Only the single replication tailer thread may call this; the detector
  /// deques are unlocked.
  Status ReplayOccurrence(const EventOccurrence& occ);

  // --- ShardRouter ------------------------------------------------------------

  /// True when `rule` should run on the calling shard. When the rule is
  /// owned by a different shard, the occurrence is copied (transaction
  /// pointer severed — the hop outlives the raising transaction's stack)
  /// onto the bounded SPSC ring toward the owner and false is returned.
  /// Backpressure: while the ring is full the caller drains its own inbox,
  /// so two shards forwarding into each other cannot deadlock.
  bool ShouldDeliverLocally(Rule* rule, const EventOccurrence& occ) override;

  // --- Metrics ----------------------------------------------------------------

  /// The database-wide metrics registry (every subsystem records here).
  MetricsRegistry* metrics() { return &metrics_; }

  /// Point-in-time view of every counter/gauge/histogram. Safe to call from
  /// any thread; values are exact once writers quiesce.
  MetricsSnapshot StatsSnapshot() const { return metrics_.Snapshot(); }

  // --- Schema -----------------------------------------------------------------

  /// Registers a class and persists the catalog.
  Status RegisterClass(const ClassDescriptor& desc);

  // --- Transactions ---------------------------------------------------------------

  /// Starts a transaction and makes it current for event raising.
  std::unique_ptr<Transaction> Begin();

  /// Commits (running deferred rules at the commit point, then detached
  /// rules in fresh transactions). Clears the current transaction.
  Status Commit(Transaction* txn);

  /// Aborts: in-memory attribute undos run, staged writes drop.
  Status Abort(Transaction* txn);

  /// Begin + body + Commit (Abort on non-OK or abort request).
  Status WithTransaction(const std::function<Status(Transaction*)>& body);

  // --- Live reactive objects ---------------------------------------------------------

  /// Binds `object` to this database: attaches the raise context, assigns
  /// an oid when missing, and wires applicable class-level rules and any
  /// instance-level rules that monitor its oid. The caller keeps ownership
  /// and must keep the object alive until UnregisterLiveObject/Close.
  Status RegisterLiveObject(ReactiveObject* object);

  Status UnregisterLiveObject(ReactiveObject* object);

  /// Live object by oid; nullptr when not materialized.
  ReactiveObject* FindLiveObject(Oid oid) const;
  size_t live_object_count() const {
    std::shared_lock<std::shared_mutex> lock(live_mu_);
    return live_.size();
  }

  // --- Object persistence ----------------------------------------------------------------

  /// Serializes `object` into the store under `txn` (assigning an oid on
  /// first persist).
  Status Persist(Transaction* txn, PersistentObject* object);

  /// Creates a ReactiveObject from its committed image, using the factory
  /// registered for its class (a generic attribute-map object otherwise),
  /// and registers it live.
  Result<std::unique_ptr<ReactiveObject>> Materialize(Transaction* txn,
                                                      Oid oid);

  using ObjectFactory =
      std::function<std::unique_ptr<ReactiveObject>(Oid oid)>;
  /// Registers a constructor for materializing instances of `class_name`.
  void RegisterFactory(const std::string& class_name, ObjectFactory factory);

  // --- Events & rules ------------------------------------------------------------------------

  // --- Associative access ------------------------------------------------------

  /// Declares a value index on `class_name.attribute` (and, by default, on
  /// every registered subclass), back-fills it from committed objects, and
  /// persists the definition. Committed updates keep it current.
  Status CreateIndex(const std::string& class_name,
                     const std::string& attribute,
                     bool include_subclasses = true);

  /// Drops the index (and subclass indexes when created that way).
  Status DropIndex(const std::string& class_name,
                   const std::string& attribute,
                   bool include_subclasses = true);

  /// Committed instances of `class_name` (deep: or a subclass) whose
  /// `attribute` equals `value`. Requires CreateIndex first.
  Result<std::vector<Oid>> FindInstances(const std::string& class_name,
                                         const std::string& attribute,
                                         const Value& value,
                                         bool include_subclasses = true);

  /// Committed instances with lo <= attribute <= hi (null Value = open
  /// bound on that side).
  Result<std::vector<Oid>> FindInstancesInRange(
      const std::string& class_name, const std::string& attribute,
      const Value& lo, const Value& hi, bool include_subclasses = true);

  AttributeIndex* indexes() { return &index_; }

  // --- Events & rules ------------------------------------------------------------

  /// Creates a catalog-validated primitive event from a signature string
  /// (the paper's `new Primitive("end Employee::Set-Salary(float)")`).
  Result<EventPtr> CreatePrimitiveEvent(const std::string& signature);

  /// Creates a rule through the rule manager (scheduler pre-wired).
  Result<RulePtr> CreateRule(const RuleSpec& spec);

  /// Class-level association: rule applies to all (current and future)
  /// instances of `class_name` and its subclasses.
  Status ApplyRuleToClass(const RulePtr& rule, const std::string& class_name);

  /// Instance-level association.
  Status ApplyRuleToInstance(const RulePtr& rule, ReactiveObject* object);
  Status RemoveRuleFromInstance(const RulePtr& rule, ReactiveObject* object);

  /// Ode-style declaration "inside the class definition": creates the rule
  /// and immediately applies it class-level — the uniform framework of
  /// §1.1 (both paths yield the same first-class rule object).
  Result<RulePtr> DeclareClassRule(const std::string& class_name,
                                   const RuleSpec& spec);

  /// Deletes a rule: unsubscribes it from all live objects, removes it from
  /// the registry, and deletes its persistent image.
  Status DeleteRule(const std::string& name);

  /// Persists all named events and rules in one transaction.
  Status SaveRulesAndEvents();

  /// Advances logical time for temporal event operators.
  void AdvanceTime(const Timestamp& now) { detector_->AdvanceTime(now); }

  /// Attaches a tracer recording the occurrence -> trigger -> execution
  /// causality chain (nullptr disables; off by default).
  void SetTracer(Tracer* tracer) {
    tracer_ = tracer;
    for (auto& shard : shards_) shard->scheduler.set_tracer(tracer);
  }

  /// Observer of every raised occurrence, invoked on the mutator thread in
  /// PostRaise (after the rule round). This is the fan-out point for remote
  /// notifiables: the event gateway registers one to forward occurrences to
  /// subscribed network sessions. Observers must not mutate the database.
  /// The observer stays active while the returned handle is alive; dropping
  /// the handle deregisters it (the next PostRaise prunes the slot).
  using OccurrenceObserver = std::function<void(const EventOccurrence&)>;
  using ObserverHandle = std::shared_ptr<OccurrenceObserver>;
  ObserverHandle AddOccurrenceObserver(OccurrenceObserver observer);

  // --- RaiseContext -----------------------------------------------------------------------------

  const ClassCatalog* catalog() const override { return &catalog_; }
  Transaction* current_txn() override;
  void PreRaise(const EventOccurrence& occ) override;
  void PostRaise(const EventOccurrence& occ) override;

  /// Overrides the calling shard's transaction used for subsequent raises
  /// (the detached runner and tests use this).
  void SetCurrentTxn(Transaction* txn);

  // --- CommitObserver (index maintenance) -----------------------------------------

  void OnCommittedPut(Oid oid, std::string_view class_name,
                      std::string_view state) override;
  void OnCommittedDelete(Oid oid) override;

 private:
  /// Per-shard mutable raise state. Everything here is touched only by the
  /// shard's bound thread (plus the SPSC inbox rings, each written by
  /// exactly one source shard).
  struct RaiseShard {
    explicit RaiseShard(Database* db) : scheduler(db->metrics_, db) {}
    RuleScheduler scheduler;
    Transaction* current_txn = nullptr;
    /// Raise-path instrumentation (see Options::metrics_sample_mask). Only
    /// the outermost raise of a cascade is timed; depth tracks nesting
    /// through immediate-rule re-raises.
    uint64_t raise_seq = 0;
    int raise_depth = 0;
    int64_t raise_start_ns = 0;
    /// inbox[s] carries triggers forwarded from source shard s (the slot
    /// for s == this shard stays empty).
    std::vector<std::unique_ptr<SpscRing<ForwardedTrigger>>> inbox;
  };

  explicit Database(const Options& options);

  RaiseShard& CurrentShard() { return *shards_[CurrentShardIndex()]; }

  /// Assigns `rule` to `shard` on its first association (first-assignment
  /// wins; no-op when unsharded or already bound).
  void AssignRuleShard(const RulePtr& rule, size_t shard);

  /// Registers Reactive/Notifiable/Event/Rule built-ins (paper Fig. 3/5).
  Status RegisterBuiltinClasses();

  /// Observer fan-out shared by PostRaise and ReplayOccurrence: invokes
  /// every live occurrence observer and prunes expired handles.
  void FanOutOccurrence(const EventOccurrence& occ);

  /// Resolves the index specs a (class, attr, deep) request covers.
  std::vector<IndexSpec> SpecsFor(const std::string& class_name,
                                  const std::string& attribute,
                                  bool include_subclasses) const;

  /// Back-fills one spec from the committed extent.
  Status BackfillIndex(const IndexSpec& spec);

  /// Persists the current index definitions (system record).
  Status SaveIndexDefs();

  Options options_;
  /// Declared before every component: each is constructed with this
  /// registry and caches pointers into it, so it must outlive them all.
  MetricsRegistry metrics_;
  ObjectStore store_;
  ClassCatalog catalog_;
  AttributeIndex index_;
  FunctionRegistry functions_;
  std::unique_ptr<EventDetector> detector_;
  /// The raise shards. Sized once in Open, never resized after: rules hold
  /// pointers into shards_[i]->scheduler. Declared before rule_manager_ so
  /// the rules (and those pointers) die first on destruction.
  std::vector<std::unique_ptr<RaiseShard>> shards_;
  std::unique_ptr<RuleManager> rule_manager_;
  /// Per-shard spilled-occurrence stores (empty unless history_spill).
  /// Declared after detector_: the detector's spill sink points here and
  /// is cleared in Close before the stores shut down.
  std::vector<std::unique_ptr<HistorySegmentStore>> history_stores_;
  /// Background fuzzy-checkpoint driver (null unless configured).
  std::unique_ptr<Checkpointer> checkpointer_;
  std::unordered_map<Oid, ReactiveObject*> live_;
  std::map<std::string, ObjectFactory> factories_;
  std::vector<std::weak_ptr<OccurrenceObserver>> occurrence_observers_;
  Tracer* tracer_ = nullptr;
  bool open_ = false;
  std::atomic<bool> replica_{false};

  /// Serializes DDL — schema changes, rule create/apply/delete, live-object
  /// (un)registration — against itself. Recursive because DDL re-enters
  /// (Materialize -> RegisterLiveObject, DeleteRule -> WithTransaction).
  mutable std::recursive_mutex ddl_mu_;
  /// Guards live_: shared for the raise-path reads (FindLiveObject),
  /// exclusive for (un)registration.
  mutable std::shared_mutex live_mu_;
  /// Guards index_ (commit observers run on any committing shard's thread).
  mutable std::mutex index_mu_;
  /// Guards occurrence_observers_: shared while PostRaise fans out,
  /// exclusive for registration and pruning.
  mutable std::shared_mutex observers_mu_;

  Histogram* const m_raise_notify_ns_;
  Counter* const m_forwarded_;
  Counter* const m_forward_stalls_;
};

}  // namespace sentinel

#endif  // SENTINEL_CORE_DATABASE_H_
