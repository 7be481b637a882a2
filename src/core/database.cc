// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "core/database.h"

#include <algorithm>
#include <thread>

#include "common/clock.h"
#include "common/failpoint.h"
#include "common/logging.h"

namespace sentinel {

namespace {
/// The shard the calling thread raises on (see Database::BindRaiseShard).
/// Thread-local rather than per-database: one gateway worker serves one
/// shard of one database, and unbound threads default to shard 0.
thread_local size_t tls_raise_shard = 0;

/// Capacity of each cross-shard forwarding ring (triggers in flight from
/// one source shard to one owner shard). Overflow is handled by the
/// sender draining its own inbox until space frees up.
constexpr size_t kForwardRingCapacity = 1024;
}  // namespace

Database::Database(const Options& options)
    : options_(options),
      store_(metrics_, options.buffer_pages, options.group_commit_window_us),
      m_raise_notify_ns_(metrics_.histogram("events.raise_notify_ns")),
      m_forwarded_(metrics_.counter("core.forwarded_triggers")),
      m_forward_stalls_(metrics_.counter("core.forward_stalls")) {}

void Database::BindRaiseShard(size_t shard) { tls_raise_shard = shard; }

size_t Database::CurrentShardIndex() const {
  if (shards_.size() <= 1) return 0;
  return std::min(tls_raise_shard, shards_.size() - 1);
}

Database::~Database() { Close().ok(); }

Result<std::unique_ptr<Database>> Database::Open(const Options& options) {
  std::unique_ptr<Database> db(new Database(options));
  if (!options.failpoints.empty()) {
    // Armed before the store opens so recovery itself is injectable.
    SENTINEL_RETURN_IF_ERROR(
        FailPoints::Instance().EnableFromSpec(options.failpoints));
  }
  SENTINEL_RETURN_IF_ERROR(db->store_.Open(options.dir));

  // Schema: load the persisted catalog if present, then make sure the
  // built-in classes exist (first open, or upgrades).
  Status s = db->store_.LoadCatalog(&db->catalog_);
  if (!s.ok() && !s.IsNotFound()) return s;
  SENTINEL_RETURN_IF_ERROR(db->RegisterBuiltinClasses());

  const size_t nshards = std::min<size_t>(
      std::max<size_t>(options.raise_shards, 1), 64);
  db->detector_ =
      std::make_unique<EventDetector>(db->metrics_, &db->catalog_);
  db->detector_->set_log_capacity(options.occurrence_log_capacity);
  db->detector_->SetShardCount(nshards);

  // History spill: FIFO-trimmed occurrences land in per-shard segment
  // stores instead of vanishing. The sink runs on the trimming shard's
  // thread; each store serializes internally.
  if (options.history_spill) {
    for (size_t i = 0; i < nshards; ++i) {
      auto store = std::make_unique<HistorySegmentStore>(
          options.dir + "/history/shard-" + std::to_string(i),
          options.history_segment_bytes, db->metrics_);
      SENTINEL_RETURN_IF_ERROR(store->Open());
      db->history_stores_.push_back(std::move(store));
    }
    // Seqs restart with the process; continue above the stored history so
    // seq stays unique in it (and a paging cursor never skips new rows).
    for (const auto& store : db->history_stores_) {
      Clock::AdvanceTo(store->MaxSeq());
    }
    Database* self = db.get();
    db->detector_->SetSpillSink(
        [self](size_t shard, const EventOccurrence& occ) {
          if (shard >= self->history_stores_.size()) shard = 0;
          Status s = self->history_stores_[shard]->Append(occ);
          if (!s.ok()) {
            SENTINEL_WARN << "event=history_spill_failed shard=" << shard
                          << " status=\"" << s.ToString() << "\"";
          }
        });
  }

  // Detached coupling: run the rule body in a fresh transaction (on the
  // calling shard — WithTransaction resolves the thread's shard itself).
  Database* raw = db.get();
  auto detached_runner = [raw](std::function<Status(Transaction*)> body) {
    return raw->WithTransaction(body);
  };
  for (size_t i = 0; i < nshards; ++i) {
    auto shard = std::make_unique<RaiseShard>(raw);
    shard->scheduler.set_max_cascade_depth(options.max_cascade_depth);
    shard->scheduler.set_detached_runner(detached_runner);
    if (nshards > 1) {
      shard->inbox.resize(nshards);
      for (size_t src = 0; src < nshards; ++src) {
        if (src == i) continue;
        shard->inbox[src] = std::make_unique<SpscRing<ForwardedTrigger>>(
            kForwardRingCapacity);
      }
    }
    db->shards_.push_back(std::move(shard));
  }
  db->metrics_.gauge("core.raise_shards")
      ->Set(static_cast<int64_t>(nshards));
  db->rule_manager_ = std::make_unique<RuleManager>(
      &db->shards_[0]->scheduler, db->detector_.get(), &db->functions_);

  // Restore persisted event graphs and rules (no-ops on a fresh database).
  SENTINEL_RETURN_IF_ERROR(db->detector_->LoadAll(&db->store_));
  SENTINEL_RETURN_IF_ERROR(db->rule_manager_->LoadAll(&db->store_));

  // Restore index definitions and rebuild their entries from the heap.
  {
    std::string cls, state;
    Status s = db->store_.Get(nullptr, kIndexDefsOid, &cls, &state);
    if (s.ok()) {
      Decoder dec(state);
      SENTINEL_RETURN_IF_ERROR(db->index_.DecodeSpecs(&dec));
      for (const IndexSpec& spec : db->index_.Specs()) {
        SENTINEL_RETURN_IF_ERROR(db->BackfillIndex(spec));
      }
    } else if (!s.IsNotFound()) {
      return s;
    }
  }
  db->store_.SetCommitObserver(db.get());

  // Background checkpointer: bounds recovery time without stalling
  // mutators. Started last so it never races component construction.
  if (options.checkpoint_wal_bytes > 0) {
    Database* self = db.get();
    db->checkpointer_ = std::make_unique<Checkpointer>(
        options.checkpoint_wal_bytes,
        [self]() -> uint64_t {
          Result<uint64_t> size = self->store_.wal()->SizeBytes();
          return size.ok() ? *size : 0;
        },
        [self] { return self->store_.Checkpoint(); });
    db->checkpointer_->Start();
  }

  db->replica_.store(options.replica, std::memory_order_release);
  db->open_ = true;
  return db;
}

Status Database::CheckpointNow() {
  if (!open_) return Status::FailedPrecondition("database not open");
  return store_.Checkpoint();
}

Status Database::HistoryScan(const HistoryQuery& query,
                             std::vector<EventOccurrence>* out,
                             bool include_memory) {
  if (!open_) return Status::FailedPrecondition("database not open");
  if (history_stores_.empty()) {
    return Status::FailedPrecondition(
        "history spill disabled (Options::history_spill)");
  }
  const size_t base = out->size();
  for (auto& store : history_stores_) {
    SENTINEL_RETURN_IF_ERROR(store->Scan(query, out));
  }
  if (include_memory) {
    for (const EventOccurrence& occ : detector_->MergedLog()) {
      if (query.Matches(occ)) out->push_back(occ);
    }
  }
  // Each store returns its oldest `limit` matches in logical order, so the
  // oldest `limit` of the merge are among them.
  std::stable_sort(out->begin() + base, out->end(),
                   [](const EventOccurrence& a, const EventOccurrence& b) {
                     return a.timestamp.seq < b.timestamp.seq;
                   });
  if (query.limit != 0 && out->size() - base > query.limit) {
    out->resize(base + query.limit);
  }
  return Status::OK();
}

void Database::OnCommittedPut(Oid oid, std::string_view class_name,
                              std::string_view state) {
  // Commits happen on whichever shard thread ran the transaction; the
  // index structures are not internally synchronized.
  std::lock_guard<std::mutex> lock(index_mu_);
  index_.OnCommittedPut(oid, class_name, state);
}

void Database::OnCommittedDelete(Oid oid) {
  std::lock_guard<std::mutex> lock(index_mu_);
  index_.OnCommittedDelete(oid);
}

std::vector<IndexSpec> Database::SpecsFor(const std::string& class_name,
                                          const std::string& attribute,
                                          bool include_subclasses) const {
  std::vector<IndexSpec> specs;
  if (include_subclasses) {
    for (const std::string& cls : catalog_.SubclassesOf(class_name)) {
      specs.push_back(IndexSpec{cls, attribute});
    }
  } else {
    specs.push_back(IndexSpec{class_name, attribute});
  }
  return specs;
}

Status Database::BackfillIndex(const IndexSpec& spec) {
  for (Oid oid : store_.Extent(spec.class_name)) {
    std::string cls, state;
    SENTINEL_RETURN_IF_ERROR(store_.Get(nullptr, oid, &cls, &state));
    index_.OnCommittedPut(oid, cls, state);
  }
  return Status::OK();
}

Status Database::SaveIndexDefs() {
  Encoder enc;
  index_.EncodeSpecs(&enc);
  return store_.SystemPut(kIndexDefsOid, "__index_defs__", enc.Release());
}

Status Database::CreateIndex(const std::string& class_name,
                             const std::string& attribute,
                             bool include_subclasses) {
  if (!catalog_.HasClass(class_name)) {
    return Status::InvalidArgument("unknown class " + class_name);
  }
  std::lock_guard<std::mutex> lock(index_mu_);
  for (const IndexSpec& spec :
       SpecsFor(class_name, attribute, include_subclasses)) {
    Status s = index_.CreateIndex(spec);
    if (s.IsAlreadyExists()) continue;  // Subclass overlap is fine.
    SENTINEL_RETURN_IF_ERROR(s);
    SENTINEL_RETURN_IF_ERROR(BackfillIndex(spec));
  }
  return SaveIndexDefs();
}

Status Database::DropIndex(const std::string& class_name,
                           const std::string& attribute,
                           bool include_subclasses) {
  std::lock_guard<std::mutex> lock(index_mu_);
  bool dropped_any = false;
  for (const IndexSpec& spec :
       SpecsFor(class_name, attribute, include_subclasses)) {
    if (index_.DropIndex(spec).ok()) dropped_any = true;
  }
  if (!dropped_any) {
    return Status::NotFound("no index on " + class_name + "." + attribute);
  }
  return SaveIndexDefs();
}

Result<std::vector<Oid>> Database::FindInstances(
    const std::string& class_name, const std::string& attribute,
    const Value& value, bool include_subclasses) {
  std::lock_guard<std::mutex> lock(index_mu_);
  std::vector<Oid> out;
  bool any_index = false;
  for (const IndexSpec& spec :
       SpecsFor(class_name, attribute, include_subclasses)) {
    Result<std::vector<Oid>> part = index_.Lookup(spec, value);
    if (!part.ok()) continue;  // No index on this subclass.
    any_index = true;
    out.insert(out.end(), part.value().begin(), part.value().end());
  }
  if (!any_index) {
    return Status::NotFound("no index on " + class_name + "." + attribute);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<Oid>> Database::FindInstancesInRange(
    const std::string& class_name, const std::string& attribute,
    const Value& lo, const Value& hi, bool include_subclasses) {
  std::lock_guard<std::mutex> lock(index_mu_);
  std::vector<Oid> out;
  bool any_index = false;
  for (const IndexSpec& spec :
       SpecsFor(class_name, attribute, include_subclasses)) {
    Result<std::vector<Oid>> part = index_.Range(spec, lo, hi);
    if (!part.ok()) continue;
    any_index = true;
    out.insert(out.end(), part.value().begin(), part.value().end());
  }
  if (!any_index) {
    return Status::NotFound("no index on " + class_name + "." + attribute);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status Database::Close() {
  if (!open_) return Status::OK();
  open_ = false;
  // The checkpointer touches the store from its own thread: stop it before
  // anything below starts tearing state down.
  if (checkpointer_ != nullptr) {
    checkpointer_->Stop();
    checkpointer_.reset();
  }
  // Best-effort persistence of rule/event definitions at close — skipped
  // under a simulated crash, where nothing may reach the disk anymore.
  if (!(FailPoints::AnyActive() && FailPoints::Instance().crashed())) {
    Status s = SaveRulesAndEvents();
    if (!s.ok()) {
      SENTINEL_WARN << "event=close_save_rules_failed dir=" << options_.dir
                    << " status=\"" << s.ToString() << "\"";
    }
  }
  // Registered objects are caller-owned and may already be gone by now, so
  // Close must not dereference them; objects that outlive the database must
  // not raise events afterwards (their RaiseContext is dead).
  {
    std::unique_lock<std::shared_mutex> lock(live_mu_);
    live_.clear();
  }
  // Unhook the spill sink before its targets close (trims can no longer
  // happen, but the ordering keeps the teardown obviously safe).
  if (detector_ != nullptr) detector_->SetSpillSink(nullptr);
  for (auto& store : history_stores_) {
    Status s = store->Close();
    if (!s.ok()) {
      SENTINEL_WARN << "event=history_close_failed dir=" << options_.dir
                    << " status=\"" << s.ToString() << "\"";
    }
  }
  return store_.Close();
}

Status Database::RegisterBuiltinClasses() {
  auto ensure = [this](ClassDescriptor desc) -> Status {
    if (catalog_.HasClass(desc.name)) return Status::OK();
    return catalog_.RegisterClass(desc);
  };
  SENTINEL_RETURN_IF_ERROR(ensure(ClassBuilder("Notifiable").Build()));
  SENTINEL_RETURN_IF_ERROR(
      ensure(ClassBuilder("Reactive").Reactive().Build()));
  SENTINEL_RETURN_IF_ERROR(
      ensure(ClassBuilder("Event").Extends("Notifiable").Build()));
  for (const EventClass& cls : EventClasses()) {
    SENTINEL_RETURN_IF_ERROR(
        ensure(ClassBuilder(cls.name).Extends("Event").Build()));
  }
  // Rule is notifiable (consumes events) and reactive (its lifecycle
  // operations generate events — rules can monitor rules).
  SENTINEL_RETURN_IF_ERROR(ensure(
      ClassBuilder("Rule")
          .Extends("Notifiable")
          .Reactive()
          .Notifiable()
          .Method("Fire", {.begin = true, .end = true})
          .Method("Enable", {.begin = false, .end = true})
          .Method("Disable", {.begin = false, .end = true})
          .Build()));
  return store_.SaveCatalog(catalog_);
}

Status Database::RegisterClass(const ClassDescriptor& desc) {
  std::lock_guard<std::recursive_mutex> ddl(ddl_mu_);
  SENTINEL_RETURN_IF_ERROR(catalog_.RegisterClass(desc));
  return store_.SaveCatalog(catalog_);
}

Transaction* Database::current_txn() { return CurrentShard().current_txn; }

void Database::SetCurrentTxn(Transaction* txn) {
  CurrentShard().current_txn = txn;
}

std::unique_ptr<Transaction> Database::Begin() {
  auto txn = store_.txns()->Begin();
  CurrentShard().current_txn = txn.get();
  return txn;
}

Status Database::Commit(Transaction* txn) {
  RaiseShard& shard = CurrentShard();
  if (shard.current_txn == txn) shard.current_txn = nullptr;
  return store_.txns()->Commit(txn);
}

Status Database::Abort(Transaction* txn) {
  RaiseShard& shard = CurrentShard();
  if (shard.current_txn == txn) shard.current_txn = nullptr;
  return store_.txns()->Abort(txn);
}

Status Database::WithTransaction(
    const std::function<Status(Transaction*)>& body) {
  RaiseShard& shard = CurrentShard();
  Transaction* previous = shard.current_txn;
  auto txn = store_.txns()->Begin();
  shard.current_txn = txn.get();
  Status s = body(txn.get());
  if (s.ok() && !txn->abort_requested()) {
    s = Commit(txn.get());
  } else {
    Status abort_status = s.ok() ? Status::Aborted(txn->abort_reason()) : s;
    Abort(txn.get()).ok();
    s = abort_status;
  }
  shard.current_txn = previous;
  return s;
}

void Database::AssignRuleShard(const RulePtr& rule, size_t shard) {
  if (shards_.size() <= 1 || rule == nullptr || rule->shard_bound()) return;
  shard = std::min(shard, shards_.size() - 1);
  rule->BindShard(this, static_cast<int>(shard),
                  &shards_[shard]->scheduler);
}

Status Database::RegisterLiveObject(ReactiveObject* object) {
  if (object == nullptr) return Status::InvalidArgument("null object");
  std::lock_guard<std::recursive_mutex> ddl(ddl_mu_);
  // One catalog lookup both checks the class and primes the object's
  // event-interface cache for its first raise.
  uint64_t epoch = 0;
  std::shared_ptr<const EventInterface> iface =
      catalog_.EventInterfaceOf(object->class_name(), &epoch);
  if (iface == nullptr) {
    return Status::InvalidArgument("unregistered class " +
                                   object->class_name());
  }
  if (object->oid() == kInvalidOid) object->set_oid(store_.NewOid());
  object->AttachContext(this);
  object->CacheEventInterface(std::move(iface), epoch);
  {
    std::unique_lock<std::shared_mutex> lock(live_mu_);
    live_[object->oid()] = object;
  }

  // Class-level rules (inheritance-aware) pick up the new instance, in
  // rule-name order, then the instance-level rules persisted with its oid;
  // the object's consumer list is published once with all of them — with
  // no instance rules, the class's memoized list itself. A class rule not
  // yet owned by a shard is claimed by the class-name hash, so every
  // instance of the class routes to the owner without forwarding; an
  // instance rule follows the instance's oid hash (its raising shard).
  std::vector<RulePtr> instance_rules =
      rule_manager_->RulesWantingInstance(object->oid());
  if (shards_.size() > 1) {
    const size_t class_shard =
        ShardIndexForName(object->class_name(), shards_.size());
    for (const RulePtr& rule :
         rule_manager_->RulesForClass(object->class_name(), catalog_)) {
      AssignRuleShard(rule, class_shard);
    }
    const size_t oid_shard = ShardIndexForOid(object->oid(), shards_.size());
    for (const RulePtr& rule : instance_rules) {
      AssignRuleShard(rule, oid_shard);
    }
  }
  Reactive::ConsumerSnapshot consumers =
      rule_manager_->ConsumersForClass(object->class_name(), catalog_);
  if (!instance_rules.empty()) {
    auto merged = std::make_shared<Reactive::ConsumerList>(*consumers);
    for (const RulePtr& rule : instance_rules) {
      if (std::find(merged->begin(), merged->end(), rule.get()) ==
          merged->end()) {
        merged->push_back(rule.get());
      }
    }
    consumers = std::move(merged);
  }
  return object->SubscribeAll(consumers);
}

Status Database::UnregisterLiveObject(ReactiveObject* object) {
  if (object == nullptr) return Status::InvalidArgument("null object");
  std::lock_guard<std::recursive_mutex> ddl(ddl_mu_);
  std::unique_lock<std::shared_mutex> lock(live_mu_);
  auto it = live_.find(object->oid());
  if (it == live_.end() || it->second != object) {
    return Status::NotFound("object not registered");
  }
  object->AttachContext(nullptr);
  live_.erase(it);
  return Status::OK();
}

ReactiveObject* Database::FindLiveObject(Oid oid) const {
  std::shared_lock<std::shared_mutex> lock(live_mu_);
  auto it = live_.find(oid);
  return it == live_.end() ? nullptr : it->second;
}

Status Database::Persist(Transaction* txn, PersistentObject* object) {
  if (object == nullptr) return Status::InvalidArgument("null object");
  if (object->oid() == kInvalidOid) object->set_oid(store_.NewOid());
  Encoder enc;
  object->SerializeState(&enc);
  return store_.Put(txn, object->oid(), object->class_name(), enc.Release());
}

Result<std::unique_ptr<ReactiveObject>> Database::Materialize(
    Transaction* txn, Oid oid) {
  std::string class_name, state;
  SENTINEL_RETURN_IF_ERROR(store_.Get(txn, oid, &class_name, &state));
  std::lock_guard<std::recursive_mutex> ddl(ddl_mu_);
  std::unique_ptr<ReactiveObject> object;
  auto fit = factories_.find(class_name);
  if (fit != factories_.end()) {
    object = fit->second(oid);
  } else {
    object = std::make_unique<ReactiveObject>(class_name, oid);
  }
  object->set_oid(oid);
  Decoder dec(state);
  SENTINEL_RETURN_IF_ERROR(object->DeserializeState(&dec));
  SENTINEL_RETURN_IF_ERROR(RegisterLiveObject(object.get()));
  return object;
}

void Database::RegisterFactory(const std::string& class_name,
                               ObjectFactory factory) {
  std::lock_guard<std::recursive_mutex> ddl(ddl_mu_);
  factories_[class_name] = std::move(factory);
}

Result<EventPtr> Database::CreatePrimitiveEvent(
    const std::string& signature) {
  SENTINEL_ASSIGN_OR_RETURN(std::shared_ptr<PrimitiveEvent> event,
                            PrimitiveEvent::Create(signature, &catalog_));
  return EventPtr(std::move(event));
}

Result<RulePtr> Database::CreateRule(const RuleSpec& spec) {
  std::lock_guard<std::recursive_mutex> ddl(ddl_mu_);
  return rule_manager_->CreateRule(spec);
}

Status Database::ApplyRuleToClass(const RulePtr& rule,
                                  const std::string& class_name) {
  std::lock_guard<std::recursive_mutex> ddl(ddl_mu_);
  if (!catalog_.HasClass(class_name)) {
    return Status::InvalidArgument("unknown class " + class_name);
  }
  SENTINEL_RETURN_IF_ERROR(rule_manager_->MarkClassLevel(rule, class_name));
  // A class-level rule is owned by the class-name hash shard — the same
  // shard class-default relays route to, so the common gateway case never
  // forwards.
  AssignRuleShard(rule, ShardIndexForName(class_name, shards_.size()));
  // Subscribe every live instance of the class or its subclasses.
  std::shared_lock<std::shared_mutex> lock(live_mu_);
  for (auto& [oid, object] : live_) {
    if (catalog_.IsSubclassOf(object->class_name(), class_name) &&
        !object->IsSubscribed(rule.get())) {
      SENTINEL_RETURN_IF_ERROR(object->Subscribe(rule.get()));
    }
  }
  return Status::OK();
}

Status Database::ApplyRuleToInstance(const RulePtr& rule,
                                     ReactiveObject* object) {
  std::lock_guard<std::recursive_mutex> ddl(ddl_mu_);
  if (object != nullptr) {
    AssignRuleShard(rule, ShardIndexForOid(object->oid(), shards_.size()));
  }
  return rule_manager_->ApplyToInstance(rule, object);
}

Status Database::RemoveRuleFromInstance(const RulePtr& rule,
                                        ReactiveObject* object) {
  std::lock_guard<std::recursive_mutex> ddl(ddl_mu_);
  return rule_manager_->RemoveFromInstance(rule, object);
}

Result<RulePtr> Database::DeclareClassRule(const std::string& class_name,
                                           const RuleSpec& spec) {
  std::lock_guard<std::recursive_mutex> ddl(ddl_mu_);
  SENTINEL_ASSIGN_OR_RETURN(RulePtr rule, rule_manager_->CreateRule(spec));
  Status s = ApplyRuleToClass(rule, class_name);
  if (!s.ok()) {
    rule_manager_->DeleteRule(spec.name).ok();
    return s;
  }
  return rule;
}

Status Database::DeleteRule(const std::string& name) {
  std::lock_guard<std::recursive_mutex> ddl(ddl_mu_);
  SENTINEL_ASSIGN_OR_RETURN(RulePtr rule, rule_manager_->GetRule(name));
  {
    std::shared_lock<std::shared_mutex> lock(live_mu_);
    for (auto& [oid, object] : live_) {
      if (object->IsSubscribed(rule.get())) {
        object->Unsubscribe(rule.get()).ok();
      }
    }
  }
  SENTINEL_RETURN_IF_ERROR(rule_manager_->DeleteRule(name));
  if (rule->oid() != kInvalidOid && store_.Exists(rule->oid())) {
    return WithTransaction([&](Transaction* txn) {
      return store_.Delete(txn, rule->oid());
    });
  }
  return Status::OK();
}

Status Database::SaveRulesAndEvents() {
  std::lock_guard<std::recursive_mutex> ddl(ddl_mu_);
  return WithTransaction([this](Transaction* txn) {
    SENTINEL_RETURN_IF_ERROR(detector_->SaveAll(&store_, txn));
    return rule_manager_->SaveAll(&store_, txn);
  });
}

void Database::PreRaise(const EventOccurrence& occ) {
  const size_t idx = CurrentShardIndex();
  RaiseShard& shard = *shards_[idx];
  if (++shard.raise_depth == 1 &&
      (shard.raise_seq++ & options_.metrics_sample_mask) == 0) {
    shard.raise_start_ns = SteadyNowNs();
  }
  detector_->RecordOccurrence(occ, idx);
  if (tracer_ != nullptr) {
    tracer_->Trace(TraceEntry{TraceEntry::Kind::kOccurrence, occ.timestamp,
                              occ.Key(), sentinel::ToString(occ.params), 0,
                              occ.txn != nullptr ? occ.txn->id() : 0});
  }
  shard.scheduler.BeginRound();
}

void Database::FanOutOccurrence(const EventOccurrence& occ) {
  // The list is read under a shared lock (any shard may be raising);
  // expired handles are pruned under the exclusive lock only when one was
  // seen.
  bool any_expired = false;
  {
    std::shared_lock<std::shared_mutex> lock(observers_mu_);
    for (const std::weak_ptr<OccurrenceObserver>& weak :
         occurrence_observers_) {
      if (ObserverHandle observer = weak.lock()) {
        (*observer)(occ);
      } else {
        any_expired = true;
      }
    }
  }
  if (any_expired) {
    std::unique_lock<std::shared_mutex> lock(observers_mu_);
    occurrence_observers_.erase(
        std::remove_if(
            occurrence_observers_.begin(), occurrence_observers_.end(),
            [](const std::weak_ptr<OccurrenceObserver>& weak) {
              return weak.expired();
            }),
        occurrence_observers_.end());
  }
}

Status Database::ReplayOccurrence(const EventOccurrence& occ) {
  if (!open_) return Status::FailedPrecondition("database not open");
  // Route by oid. The gateway routes a class-default relay's raise by
  // class name instead, so with several shards the per-shard split can
  // differ from the primary's; the merged history does not (DESIGN.md
  // §13.1).
  const size_t idx = ShardIndexForOid(occ.oid, shards_.size());
  detector_->RecordOccurrence(occ, idx);
  FanOutOccurrence(occ);
  return Status::OK();
}

Status Database::Promote(uint64_t max_replayed_seq) {
  SENTINEL_FAILPOINT("repl.promote");
  if (!is_replica()) return Status::OK();
  // New timestamps must extend, never collide with, the replayed history.
  Clock::AdvanceTo(max_replayed_seq);
  // Objects arrived through replication apply, which bypasses NewOid: the
  // allocator floor must clear everything the heap now holds.
  store_.RefreshOidFloor();
  // Pick up the catalog image replication shipped (the in-memory catalog
  // still reflects what this node loaded at open).
  {
    std::lock_guard<std::recursive_mutex> ddl(ddl_mu_);
    Status s = store_.LoadCatalog(&catalog_);
    if (!s.ok() && !s.IsNotFound()) return s;
  }
  replica_.store(false, std::memory_order_release);
  return Status::OK();
}

void Database::PostRaise(const EventOccurrence& occ) {
  RaiseShard& shard = CurrentShard();
  Transaction* txn = occ.txn != nullptr ? occ.txn : shard.current_txn;
  Status s = shard.scheduler.EndRound(txn);
  if (!s.ok()) {
    SENTINEL_DEBUG << "event=rule_round_failed key=\"" << occ.Key()
                   << "\" status=\"" << s.ToString() << "\"";
    // An Aborted status from an immediate rule dooms the transaction.
    if (s.IsAborted() && txn != nullptr && txn->active() &&
        !txn->abort_requested()) {
      txn->RequestAbort(s.message());
    }
  }
  // Remote fan-out happens after the rule round so observers see the
  // occurrence with its local reactions already applied.
  FanOutOccurrence(occ);
  if (--shard.raise_depth == 0 && shard.raise_start_ns != 0) {
    m_raise_notify_ns_->Record(SteadyNowNs() - shard.raise_start_ns);
    shard.raise_start_ns = 0;
  }
}

Database::ObserverHandle Database::AddOccurrenceObserver(
    OccurrenceObserver observer) {
  auto handle = std::make_shared<OccurrenceObserver>(std::move(observer));
  std::unique_lock<std::shared_mutex> lock(observers_mu_);
  occurrence_observers_.push_back(handle);
  return handle;
}

bool Database::ShouldDeliverLocally(Rule* rule, const EventOccurrence& occ) {
  if (shards_.size() <= 1 || rule == nullptr || !rule->shard_bound()) {
    return true;
  }
  const size_t owner = static_cast<size_t>(rule->owner_shard());
  const size_t cur = CurrentShardIndex();
  if (owner == cur || owner >= shards_.size()) return true;

  ForwardedTrigger trigger;
  trigger.rule = rule;
  trigger.occ = occ;
  // The hop outlives the raising transaction's stack frame; the owner runs
  // the rule round decoupled from it (detached-like, as cross-shard rules
  // cannot share the raising shard's transaction anyway).
  trigger.occ.txn = nullptr;
  SpscRing<ForwardedTrigger>& ring = *shards_[owner]->inbox[cur];
  while (!ring.TryPush(trigger)) {
    // Ring full: make progress on our own inbox so two shards forwarding
    // into each other cannot deadlock, then retry.
    m_forward_stalls_->Add();
    if (DrainForwarded() == 0) std::this_thread::yield();
  }
  m_forwarded_->Add();
  return false;
}

size_t Database::DrainForwarded() {
  const size_t idx = CurrentShardIndex();
  RaiseShard& shard = *shards_[idx];
  size_t executed = 0;
  ForwardedTrigger trigger;
  for (auto& ring : shard.inbox) {
    if (ring == nullptr) continue;
    while (ring->TryPop(&trigger)) {
      // Each forwarded trigger gets its own round on the owner's
      // scheduler: detection state and rule execution stay owner-local.
      shard.scheduler.BeginRound();
      trigger.rule->Deliver(trigger.occ);
      Status s = shard.scheduler.EndRound(nullptr);
      if (!s.ok()) {
        SENTINEL_DEBUG << "event=forwarded_round_failed status=\""
                       << s.ToString() << "\"";
      }
      ++executed;
    }
  }
  return executed;
}

size_t Database::DrainAllForwardedShards() {
  if (shards_.size() <= 1) return 0;
  const size_t previous = tls_raise_shard;
  size_t total = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < shards_.size(); ++i) {
      BindRaiseShard(i);
      const size_t n = DrainForwarded();
      total += n;
      if (n > 0) progress = true;
    }
  }
  tls_raise_shard = previous;
  return total;
}

}  // namespace sentinel
