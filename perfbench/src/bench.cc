// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Run structure (see README.md for the why):
//
//   setup     open the database(s), install the workload's rules, start the
//             gateway (+ replicator and follower), connect, warm up
//   round     open-loop phase at a fixed offered rate (latency), then a
//             closed-loop full-window phase (throughput); four rounds in
//             an untraced run
//   verify    the outputs the paper's semantics promise (per-object order,
//             per-rule execution counts, replicated and spilled history)
//
// Spans are timed only at boundaries the benchmark owns: client send/ack,
// subscriber receipt, and the condition/action/observer callbacks it
// registers with the database, which the server calls on its worker
// threads. Every raise carries its request id, so all spans of one raise
// meet at one slot.

#include "bench.h"

#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "core/database.h"
#include "events/operators.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "repl/follower.h"
#include "repl/replicator.h"
#include "util.h"

namespace perfbench {

using namespace sentinel;  // NOLINT
namespace fs = std::filesystem;

namespace {

constexpr int kMaxRounds = 8;
/// Rounds of an untraced run.
constexpr int kUntracedRounds = 4;
/// Share of a round spent in the open loop, where the bounded latencies
/// are measured; the closed loop gets the rest.
constexpr double kOpenShare = 0.75;
/// Rows per section the follower asks for in one poll.
constexpr uint32_t kFollowerBatch = 4096;
/// Rotation size of the primary's occurrence mirror. A tail poll re-reads
/// the active segment from its start, under the lock the raise path
/// appends with; at the 1 MiB default that stall swung the ack p50 between
/// rounds (README.md, "Workloads").
constexpr size_t kMirrorSegmentBytes = 256u << 10;
constexpr int kIdShift = 40;
constexpr int64_t kSeqMask = (int64_t{1} << kIdShift) - 1;
/// Closed-loop raises of the open/closed workloads get ids past every
/// open-loop slot, so they never land in a span array.
constexpr int64_t kClosedSeq = int64_t{1} << 39;

inline int64_t MakeId(int round, int64_t seq) {
  return (int64_t{round} << kIdShift) | seq;
}

uint8_t MethodOf(const std::string& method) {
  if (method == "Reset") return kReset;
  if (method == "Alarm") return kAlarm;
  return kReport;
}

// --- Probe state the server-side callbacks write ----------------------------

enum Span { kCond, kActBegin, kActEnd, kObs, kFol, kNote, kSpanKinds };

/// One measured round: where its raises' spans are recorded.
struct Round {
  size_t slots = 0;   ///< Raises with a span slot (open-loop ids).
  bool trace = false;
  std::atomic<int64_t> origin{0};  ///< Phase origin (steady ns).
  /// Server-side stamps, present when traced.
  std::array<std::vector<std::atomic<int64_t>>, kSpanKinds> spans;
  /// Generator-side stamps, written by one thread per slot.
  std::vector<int64_t> send, ack;
};

/// Per-object order and counts seen at one observation point.
struct Tracker {
  explicit Tracker(size_t slots) : last(slots), count(slots * kMethods) {
    for (auto& l : last) l.store(-1, std::memory_order_relaxed);
  }
  /// One writer per slot (an object is raised on one shard).
  void Saw(size_t slot, uint8_t method, int64_t id) {
    if (slot >= last.size()) {
      violations.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (id <= last[slot].load(std::memory_order_relaxed)) {
      violations.fetch_add(1, std::memory_order_relaxed);
    }
    last[slot].store(id, std::memory_order_relaxed);
    count[slot * kMethods + method].fetch_add(1, std::memory_order_relaxed);
    total.fetch_add(1, std::memory_order_relaxed);
  }
  std::vector<std::atomic<int64_t>> last;
  std::vector<std::atomic<uint64_t>> count;
  std::atomic<uint64_t> violations{0};
  std::atomic<uint64_t> total{0};
};

struct Probe {
  explicit Probe(const WorkloadSpec& s)
      : spec(s), primary(s.oids + kProducers),
        follower(s.oids + kProducers), notified(s.oids + kProducers) {
    for (auto& r : rounds) r.store(nullptr, std::memory_order_relaxed);
  }

  /// Tracker slot of an object: its sensor index, or the extra slot of the
  /// class-default relay its class's Resets target (one per producer).
  size_t SlotFor(const std::string& class_name, uint64_t oid) const {
    if (oid >= kSensorBase && oid < kSensorBase + spec.oids) {
      return static_cast<size_t>(oid - kSensorBase);
    }
    return spec.oids + static_cast<size_t>(ProducerOf(class_name));
  }

  /// The producer raising on `class_name` (the first, when both share it).
  int ProducerOf(const std::string& class_name) const {
    return class_name == spec.classes[0] ? 0 : 1;
  }

  Round* RoundOf(int64_t id) const {
    int64_t r = id >> kIdShift;
    if (r < 0 || r >= kMaxRounds) return nullptr;
    return rounds[static_cast<size_t>(r)].load(std::memory_order_acquire);
  }

  /// The span cell of raise `id`, or nullptr when not recorded.
  std::atomic<int64_t>* Cell(int64_t id, Span kind) const {
    Round* r = RoundOf(id);
    if (r == nullptr) return nullptr;
    auto& v = r->spans[kind];
    size_t k = static_cast<size_t>(id & kSeqMask);
    return k < v.size() ? &v[k] : nullptr;
  }

  void Stamp(int64_t id, Span kind) const {
    if (std::atomic<int64_t>* c = Cell(id, kind)) {
      c->store(NowNs(), std::memory_order_relaxed);
    }
  }

  const WorkloadSpec& spec;
  std::array<std::atomic<Round*>, kMaxRounds> rounds;
  std::atomic<uint64_t> cond_calls{0};
  std::atomic<uint64_t> passed{0};     ///< Condition held: the rule fires.
  std::atomic<uint64_t> fired{0};      ///< Immediate-rule action runs.
  std::atomic<uint64_t> seq_fired{0};  ///< Deferred Seq-rule action runs.
  std::atomic<uint64_t> action_errors{0};
  Tracker primary;
  Tracker follower;
  Tracker notified;
};

int64_t IdOf(const ValueList& params) {
  return params.size() == 3 && params[0].is_int() ? params[0].AsInt() : -1;
}

/// Reads sensor `idx`'s state object inside the rule's transaction and
/// checks that it is that sensor's (set-up stamps the index at its front).
Status ReadState(Database* db, Transaction* txn, uint64_t idx) {
  if (txn == nullptr || !txn->active()) {
    return Status::FailedPrecondition("rule ran outside its transaction");
  }
  std::string cls, state;
  SENTINEL_RETURN_IF_ERROR(db->store()->Get(txn, kStateBase + idx, &cls,
                                            &state));
  uint64_t v = ~uint64_t{0};
  if (state.size() >= sizeof(v)) std::memcpy(&v, state.data(), sizeof(v));
  return v == idx ? Status::OK()
                  : Status::Corruption("state object of sensor " +
                                       std::to_string(idx) + " is wrong");
}

/// The workload's distinct reactive classes.
std::vector<std::string> Classes(const WorkloadSpec& spec) {
  std::vector<std::string> out = {spec.classes[0]};
  if (spec.classes[1] != spec.classes[0]) out.push_back(spec.classes[1]);
  return out;
}

bool IsSensorClass(const WorkloadSpec& spec, const std::string& name) {
  return name == spec.classes[0] || name == spec.classes[1];
}

Status RegisterClasses(Database* db, const WorkloadSpec& spec) {
  for (const std::string& name : Classes(spec)) {
    SENTINEL_RETURN_IF_ERROR(db->RegisterClass(
        ClassBuilder(name)
            .Reactive()
            .Method("Report", {.end = true})
            .Method("Reset", {.end = true})
            .Method("Alarm", {.end = true})
            .Build()));
  }
  return db->RegisterClass(ClassBuilder("State").Build());
}

/// Registers the benchmark's named conditions/actions on `db`, writing to
/// `probe`.
Status RegisterFunctions(Database* db, Probe* probe) {
  FunctionRegistry* fns = db->functions();
  const int64_t pass = probe->spec.pass_per_mille;
  SENTINEL_RETURN_IF_ERROR(fns->RegisterCondition(
      "bench.cond", [probe, pass](const RuleContext& ctx) {
        probe->cond_calls.fetch_add(1, std::memory_order_relaxed);
        const ValueList& p = ctx.params();
        int64_t id = IdOf(p);
        if (id < 0) return false;
        probe->Stamp(id, kCond);
        if (p[2].AsInt() >= pass) return false;
        probe->passed.fetch_add(1, std::memory_order_relaxed);
        return true;
      }));
  SENTINEL_RETURN_IF_ERROR(
      fns->RegisterAction("bench.noop", [probe](RuleContext& ctx) {
        int64_t id = IdOf(ctx.params());
        probe->Stamp(id, kActBegin);
        probe->fired.fetch_add(1, std::memory_order_relaxed);
        probe->Stamp(id, kActEnd);
        return Status::OK();
      }));
  SENTINEL_RETURN_IF_ERROR(
      fns->RegisterAction("bench.read", [probe](RuleContext& ctx) {
        int64_t id = IdOf(ctx.params());
        probe->Stamp(id, kActBegin);
        const EventOccurrence& occ = ctx.detection->last();
        Status s = ReadState(ctx.db, ctx.txn, occ.oid - kSensorBase);
        if (!s.ok()) probe->action_errors.fetch_add(1);
        probe->fired.fetch_add(1, std::memory_order_relaxed);
        probe->Stamp(id, kActEnd);
        return s;
      }));
  return fns->RegisterAction("bench.seq", [probe](RuleContext& ctx) {
    const EventOccurrence& last = ctx.detection->last();
    if (!IsSensorClass(probe->spec, last.class_name) ||
        MethodOf(last.method) != kReset) {
      probe->action_errors.fetch_add(1);
    }
    probe->seq_fired.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  });
}

Status DeclareRule(Database* db, const std::string& class_name,
                   const std::string& name, EventPtr event,
                   const std::string& condition, const std::string& action,
                   CouplingMode coupling) {
  RuleSpec rule;
  rule.name = name;
  rule.event = std::move(event);
  rule.condition_name = condition;
  rule.action_name = action;
  rule.coupling = coupling;
  return db->DeclareClassRule(class_name, rule).status();
}

/// Installs the workload's rules on `db`, per reactive class.
Status InstallRules(Database* db, const WorkloadSpec& spec) {
  for (const std::string& c : Classes(spec)) {
    auto report = db->CreatePrimitiveEvent("end " + c + "::Report");
    SENTINEL_RETURN_IF_ERROR(report.status());
    if (spec.kind == Kind::kIngest) {
      SENTINEL_RETURN_IF_ERROR(DeclareRule(db, c, "bench_filter_" + c,
                                           *report, "bench.cond", "bench.noop",
                                           CouplingMode::kImmediate));
      continue;
    }
    SENTINEL_RETURN_IF_ERROR(DeclareRule(db, c, "bench_read_" + c, *report,
                                         "bench.cond", "bench.read",
                                         CouplingMode::kImmediate));
    auto reset = db->CreatePrimitiveEvent("end " + c + "::Reset");
    SENTINEL_RETURN_IF_ERROR(reset.status());
    SENTINEL_RETURN_IF_ERROR(
        DeclareRule(db, c, "bench_seq_" + c,
                    Seq(*report, *reset, ParameterContext::kRecent), "",
                    "bench.seq", CouplingMode::kDeferred));
  }
  return Status::OK();
}

/// Creates the `n` sensor state objects, each `bytes` long with its index
/// at the front, 500 per commit.
Status PopulateState(Database* db, size_t n, size_t bytes) {
  if (bytes < sizeof(uint64_t)) return Status::OK();  // No state objects.
  std::string state(bytes, 's');
  for (size_t start = 0; start < n; start += 500) {
    SENTINEL_RETURN_IF_ERROR(db->WithTransaction([&](Transaction* txn) {
      for (size_t i = start; i < std::min(n, start + 500); ++i) {
        const uint64_t idx = i;
        std::memcpy(state.data(), &idx, sizeof(idx));
        SENTINEL_RETURN_IF_ERROR(
            db->store()->Put(txn, kStateBase + i, "State", state));
      }
      return Status::OK();
    }));
  }
  return Status::OK();
}

uint64_t DirBytes(const fs::path& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

// --- Environment --------------------------------------------------------------

/// Stats at one instant, for deltas.
struct Snap {
  net::GatewayStats gw;
  MetricsSnapshot db;
  Usage usage;
  double steal_s = 0;
  uint64_t dir_bytes = 0;
  uint64_t passed = 0;  ///< Benchmark condition passes (rule firings).

  uint64_t Counter(const std::string& name) const {
    auto it = db.counters.find(name);
    return it == db.counters.end() ? 0 : it->second;
  }
  HistogramSnapshot Hist(const std::string& name) const {
    auto it = db.histograms.find(name);
    return it == db.histograms.end() ? HistogramSnapshot{} : it->second;
  }
};

struct Env;
bool SettleRules(Env* env);

/// Acked raises per (object slot, method), plus the rule executions they
/// imply: what every observation point must have seen once the run drains.
struct Expected {
  explicit Expected(const WorkloadSpec& s)
      : spec(&s), count((s.oids + kProducers) * kMethods, 0) {}

  void Add(const RaiseSpec& r) {
    const size_t slot = r.method == kReset ? spec->oids + r.producer
                                           : r.oid_idx;
    ++count[slot * kMethods + r.method];
    if (r.method == kReport) {
      if (r.sel < spec->pass_per_mille) ++pass;
    } else if (r.method == kReset) {
      ++resets;
    }
  }
  void Merge(const Expected& other) {
    for (size_t i = 0; i < count.size(); ++i) count[i] += other.count[i];
    pass += other.pass;
    resets += other.resets;
  }
  uint64_t Of(size_t slot, uint8_t method) const {
    return count[slot * kMethods + method];
  }

  const WorkloadSpec* spec;
  std::vector<uint64_t> count;
  uint64_t pass = 0;    ///< Reports whose benchmark condition passes.
  uint64_t resets = 0;  ///< Resets (each fires its class's sequence rule).
};

struct Env {
  Env(const WorkloadSpec& s, fs::path d, int side)
      : spec(s), dir(std::move(d)), side_cpu(side), probe(s), expected(s) {}
  ~Env() { Teardown(); }

  Status Setup();
  void Teardown();
  Snap Take() const;

  const WorkloadSpec& spec;
  fs::path dir;
  int side_cpu;  ///< Where the follower runs; -1 = wherever the caller is.
  /// The follower tails the primary during open loops only in a traced
  /// run, where its lag is measured: each tail poll re-reads the mirror's
  /// active segment under the lock the raise path appends with, and the
  /// untraced figures moved with the standby's timing (README.md,
  /// "Workloads"). Otherwise it catches up once, before verification.
  bool standby_tails = false;
  Probe probe;

  std::unique_ptr<Database> db;
  std::unique_ptr<repl::Replicator> replicator;
  std::unique_ptr<net::GatewayServer> server;
  std::unique_ptr<Database> fdb;
  std::unique_ptr<repl::Follower> follower;
  Database::ObserverHandle primary_obs, follower_obs;

  // Producers: TCP connections, each with a Publisher for the warm-up and
  // the closed loop (the open loop writes raw frames to the connection).
  std::vector<std::unique_ptr<net::Connection>> conns;
  std::vector<std::unique_ptr<net::Publisher>> pubs;
  std::unique_ptr<net::Connection> sub_conn;
  std::unique_ptr<net::Subscriber> sub;

  std::vector<std::unique_ptr<Round>> rounds;

  Expected expected;
};

Snap Env::Take() const {
  Snap s;
  s.gw = server->stats();
  s.db = db->StatsSnapshot();
  s.usage = Usage::Now();
  s.steal_s = StealSeconds();
  s.dir_bytes = DirBytes(dir / "primary");
  s.passed = probe.passed.load();
  return s;
}

Status Env::Setup() {
  fs::remove_all(dir);
  fs::create_directories(dir / "primary");
  Database::Options dbo = spec.db;
  dbo.dir = (dir / "primary").string();
  auto opened = Database::Open(dbo);
  SENTINEL_RETURN_IF_ERROR(opened.status());
  db = std::move(opened).value();
  SENTINEL_RETURN_IF_ERROR(RegisterClasses(db.get(), spec));
  SENTINEL_RETURN_IF_ERROR(RegisterFunctions(db.get(), &probe));
  SENTINEL_RETURN_IF_ERROR(
      PopulateState(db.get(), spec.oids, spec.state_bytes));
  SENTINEL_RETURN_IF_ERROR(InstallRules(db.get(), spec));

  Probe* pr = &probe;
  primary_obs = db->AddOccurrenceObserver([pr](const EventOccurrence& occ) {
    int64_t id = IdOf(occ.params);
    if (!IsSensorClass(pr->spec, occ.class_name) || id < 0) return;
    pr->primary.Saw(pr->SlotFor(occ.class_name, occ.oid),
                    MethodOf(occ.method), id);
    pr->Stamp(id, kObs);
  });

  server = std::make_unique<net::GatewayServer>(db.get(), spec.server);
  if (spec.follower) {
    repl::ReplicatorOptions ro;
    ro.mirror_dir = (dir / "primary" / "repllog").string();
    ro.mirror_segment_bytes = kMirrorSegmentBytes;
    replicator = std::make_unique<repl::Replicator>(db.get(), ro);
    SENTINEL_RETURN_IF_ERROR(replicator->Start());
    server->SetReplication(replicator.get());
  }
  SENTINEL_RETURN_IF_ERROR(server->Start());

  if (spec.follower) {
    // The standby gets a CPU of its own, as it would a machine: its
    // database, catch-up and polling thread start on side_cpu.
    ScopedCpu on_side(side_cpu);
    fs::create_directories(dir / "follower");
    Database::Options fo = spec.db;
    fo.dir = (dir / "follower").string();
    fo.replica = true;
    auto fopened = Database::Open(fo);
    SENTINEL_RETURN_IF_ERROR(fopened.status());
    fdb = std::move(fopened).value();
    follower_obs =
        fdb->AddOccurrenceObserver([pr](const EventOccurrence& occ) {
          int64_t id = IdOf(occ.params);
          if (!IsSensorClass(pr->spec, occ.class_name) || id < 0) return;
          pr->follower.Saw(pr->SlotFor(occ.class_name, occ.oid),
                           MethodOf(occ.method), id);
          pr->Stamp(id, kFol);
        });
    repl::FollowerOptions fopt;
    fopt.port = server->port();
    fopt.max_items = kFollowerBatch;
    follower = std::make_unique<repl::Follower>(fdb.get(), fopt);
    bool caught_up = false;
    for (int i = 0; i < 1000 && !caught_up; ++i) {
      SENTINEL_RETURN_IF_ERROR(follower->CatchUpOnce(&caught_up));
    }
    if (!caught_up) return Status::Internal("follower never caught up");
  }

  for (int p = 0; p < kProducers; ++p) {
    auto conn = net::Connection::Dial("127.0.0.1", server->port());
    SENTINEL_RETURN_IF_ERROR(conn.status());
    conns.push_back(std::move(conn).value());
    pubs.push_back(
        std::make_unique<net::Publisher>(conns.back().get(), spec.window));
  }

  // Warm-up: one Alarm per object through its producer (materializes the
  // server's relay objects and warms connections and codecs).
  std::vector<net::RaiseEventMsg> warm[kProducers];
  for (uint32_t i = 0; i < spec.oids; ++i) {
    RaiseSpec r;
    r.oid_idx = i;
    r.method = kAlarm;
    r.producer = static_cast<uint8_t>(ProducerFor(i));
    net::RaiseEventMsg msg;
    msg.oid = WireOid(r);
    msg.class_name = ClassOf(spec, r);
    msg.method = "Alarm";
    msg.params = {Value(MakeId(0, i)), Value(int64_t{-1}), Value(int64_t{0})};
    warm[r.producer].push_back(std::move(msg));
    expected.Add(r);
  }
  // Then one passing Report per producer, so each class's sequence rule
  // has an initiator before the first measured Reset.
  for (int p = 0; p < kProducers && spec.kind == Kind::kReplicated; ++p) {
    RaiseSpec r;
    while (ProducerFor(r.oid_idx) != p) ++r.oid_idx;
    r.producer = static_cast<uint8_t>(p);
    net::RaiseEventMsg msg;
    msg.oid = WireOid(r);
    msg.class_name = ClassOf(spec, r);
    msg.method = "Report";
    msg.params = {Value(MakeId(0, static_cast<int64_t>(spec.oids) + p)),
                  Value(int64_t{-1}), Value(int64_t{0})};
    warm[p].push_back(std::move(msg));
    expected.Add(r);
  }
  for (int p = 0; p < kProducers; ++p) {
    uint64_t rejected = 0;
    SENTINEL_RETURN_IF_ERROR(pubs[static_cast<size_t>(p)]->RaisePipelined(
        warm[p], &rejected));
    if (rejected != 0) return Status::Internal("warm-up raises rejected");
  }
  if (!SettleRules(this)) return Status::Internal("warm-up rules never ran");

  auto sc = net::Connection::Dial("127.0.0.1", server->port());
  SENTINEL_RETURN_IF_ERROR(sc.status());
  sub_conn = std::move(sc).value();
  sub = std::make_unique<net::Subscriber>(sub_conn.get());
  for (const std::string& c : Classes(spec)) {
    SENTINEL_RETURN_IF_ERROR(sub->Subscribe("end " + c + "::Alarm"));
  }
  return Status::OK();
}

void Env::Teardown() {
  sub.reset();
  sub_conn.reset();
  pubs.clear();
  conns.clear();
  if (follower) follower->Stop();
  if (server) server->Stop();
  if (replicator) replicator->Stop().ok();
  follower.reset();
  follower_obs.reset();
  if (fdb) fdb->Close().ok();
  fdb.reset();
  server.reset();
  replicator.reset();
  primary_obs.reset();
  if (db) db->Close().ok();
  db.reset();
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// --- Rounds -----------------------------------------------------------------------

struct RoundResult {
  int index = 0;
  bool trace = false;
  uint64_t attempted = 0;
  uint64_t acked = 0;       ///< Every OK ack, both phases.
  uint64_t open_acked = 0;
  uint64_t failed = 0;
  /// Closed-loop rate: trimmed mean over the phase's windows.
  double throughput_eps = 0;
  std::vector<double> window_rates;
  double throughput_mean_eps = 0;  ///< Whole-phase mean.
  /// Process CPU per acked raise in the closed loop: trimmed mean over
  /// its windows.
  double cpu_us_per_event = 0;
  std::vector<double> window_cpu_us;
  double ingress_depth_p99 = 0;  ///< Sampled in the closed loop.
  Series ack_us, notify_us, late_us, follower_ms;
  std::vector<std::string> problems;
  Snap s0, s1, s2;
  std::map<std::string, double> spans;  ///< Traced span medians.
};

/// One open-loop producer lane: a TCP connection.
struct Lane {
  net::Connection* conn = nullptr;
  std::vector<uint32_t> order;  ///< Open-loop raise indices, send order.
  std::string frames;           ///< Their encoded frames, concatenated.
  std::vector<uint32_t> off;    ///< Frame i spans [off[i], off[i+1]).
  std::vector<uint8_t> ok;      ///< Per position: acked OK with right oid.
  uint64_t reset_relay = 0;     ///< Learned from the first Reset ack.
  std::string error;
};

void SettleAcks(Lane* lane, const std::vector<RaiseSpec>& open, size_t* got,
                uint32_t count, uint8_t code, uint64_t payload, int64_t t,
                Round* round) {
  for (uint32_t c = 0; c < count && *got < lane->order.size(); ++c) {
    const uint32_t idx = lane->order[*got];
    const RaiseSpec& r = open[idx];
    bool good = code == 0;
    if (good && r.method == kReset) {
      if (lane->reset_relay == 0) lane->reset_relay = payload;
      good = payload == lane->reset_relay;
    } else if (good) {
      good = payload == WireOid(r);
    }
    lane->ok[*got] = good ? 1 : 0;
    round->ack[idx] = t;
    ++*got;
  }
}

void ReadLane(Lane* lane, const std::vector<RaiseSpec>& open, Round* round) {
  size_t got = 0;
  while (got < lane->order.size()) {
    net::Frame frame;
    Status s = lane->conn->ReadFrame(&frame);
    if (!s.ok()) {
      lane->error = "ack read: " + s.ToString();
      return;
    }
    const int64_t t = NowNs();
    if (frame.type == net::FrameType::kBatchStatusReply) {
      auto batch = net::BatchStatusReplyMsg::Decode(frame.body);
      if (!batch.ok()) {
        lane->error = "bad batch ack: " + batch.status().ToString();
        return;
      }
      for (const auto& run : batch->runs) {
        SettleAcks(lane, open, &got, run.count, run.code, run.payload, t,
                   round);
      }
    } else if (frame.type == net::FrameType::kStatusReply) {
      auto one = net::StatusReplyMsg::Decode(frame.body);
      if (!one.ok()) {
        lane->error = "bad ack: " + one.status().ToString();
        return;
      }
      SettleAcks(lane, open, &got, 1, one->code, one->payload, t, round);
    } else {
      lane->error = "unexpected frame type on a producer";
      return;
    }
  }
}

/// The subscriber thread: long-polls until told to stop, recording
/// receipt times and checking per-object order.
struct NoteLoop {
  std::atomic<bool> stop{false};
  Series latency_us;  ///< Scheduled/timed raises only, by due time.
  std::string error;

  NoteLoop() { latency_us.Reserve(size_t{1} << 20); }

  void Run(Env* env) {
    Probe& probe = env->probe;
    while (!stop.load(std::memory_order_acquire)) {
      auto batch = env->sub->Fetch(512, 20);
      if (!batch.ok()) {
        error = "fetch: " + batch.status().ToString();
        return;
      }
      const int64_t t = NowNs();
      for (const net::Notification& n : *batch) {
        int64_t id = IdOf(n.params);
        if (id < 0) continue;
        probe.notified.Saw(probe.SlotFor(n.class_name, n.oid),
                           MethodOf(n.method), id);
        if (Round* r = probe.RoundOf(id)) {
          int64_t due = n.params[1].AsInt();
          if (due >= 0) {
            latency_us.Add(
                due, static_cast<double>(t - r->origin.load() - due) / 1e3);
          }
        }
        probe.Stamp(id, kNote);
      }
    }
  }
};

void WaitFor(const std::function<bool()>& done, double seconds) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  while (!done() && NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// Waits until the rule executions the acked raises imply have all run.
bool SettleRules(Env* env) {
  WaitFor(
      [env] {
        return env->probe.fired.load() == env->expected.pass &&
               env->probe.seq_fired.load() == env->expected.resets;
      },
      10);
  return env->probe.fired.load() == env->expected.pass &&
         env->probe.seq_fired.load() == env->expected.resets;
}

std::unique_ptr<Round> NewRound(size_t slots, bool trace) {
  auto round = std::make_unique<Round>();
  round->slots = slots;
  round->trace = trace;
  round->send.assign(slots, 0);
  round->ack.assign(slots, 0);
  for (int k = 0; k < kSpanKinds; ++k) {
    if (trace) {
      round->spans[static_cast<size_t>(k)] =
          std::vector<std::atomic<int64_t>>(slots);
    }
  }
  return round;
}

/// Throughput windows: two per second of the phase (at least 10).
int RateWindows(double seconds) {
  return std::max(10, static_cast<int>(2 * seconds));
}

/// What the main thread records while a closed-loop phase runs: process
/// CPU seconds at each of the windows + 1 boundaries of [t0, t1), and the
/// summed depth of the ingress queues every 2 ms.
struct PhaseSamples {
  std::vector<double> cpu_at;
  std::vector<double> depth;
};

/// Samples until t1 (the calling thread sleeps in between).
PhaseSamples SamplePhase(Database* db, int64_t t0, int64_t t1, int windows) {
  std::vector<Gauge*> gauges;
  for (size_t shard = 0; shard < db->raise_shards(); ++shard) {
    gauges.push_back(db->metrics()->gauge(
        "net.ingress.depth" +
        (shard == 0 ? std::string() : ".s" + std::to_string(shard))));
  }
  PhaseSamples out;
  for (int w = 0; w <= windows; ++w) {
    const int64_t boundary = t0 + (t1 - t0) * w / windows;
    for (int64_t now = NowNs(); now < boundary; now = NowNs()) {
      double depth = 0;
      for (Gauge* g : gauges) {
        if (g != nullptr) depth += static_cast<double>(g->Value());
      }
      out.depth.push_back(depth);
      SleepUntilNs(std::min(boundary, now + 2000000));
    }
    out.cpu_at.push_back(Usage::Now().cpu_s);
  }
  return out;
}

/// Process CPU per acked raise in each window, in µs.
std::vector<double> CpuPerEvent(const std::vector<double>& cpu_at,
                                const std::vector<double>& rates,
                                double window_s) {
  std::vector<double> per;
  for (size_t w = 0; w + 1 < cpu_at.size() && w < rates.size(); ++w) {
    const double events = rates[w] * window_s;
    if (events > 0) per.push_back((cpu_at[w + 1] - cpu_at[w]) * 1e6 / events);
  }
  return per;
}

/// Closed-loop full-window phase: each producer streams pipelined batches
/// cycled from its pool until `seconds` pass. Returns acked raises.
uint64_t ClosedLoop(Env* env, const Inputs& in, int round, double seconds,
                    RoundResult* res) {
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  std::vector<Expected> sent(kProducers, Expected(env->spec));
  Series done[kProducers];  ///< Raises acked, stamped per batch.
  uint64_t acked[kProducers] = {0, 0};
  uint64_t failed[kProducers] = {0, 0};
  std::string errors[kProducers];
  const int64_t t0 = NowNs();
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      const auto& pool = in.pool[p];
      std::vector<net::RaiseEventMsg> msgs(env->spec.batch);
      for (auto& m : msgs) m.class_name = env->spec.classes[p];
      size_t pos = 0;
      int64_t k = 0;
      while (NowNs() < deadline) {
        for (auto& m : msgs) {
          const RaiseSpec& r = pool[pos++ % pool.size()];
          m.oid = WireOid(r);
          m.method = MethodName(r.method);
          m.params = {Value(MakeId(round, kClosedSeq + 2 * k++ + p)),
                      Value(int64_t{-1}), Value(int64_t{r.sel})};
        }
        uint64_t rejected = 0;
        Status s = env->pubs[static_cast<size_t>(p)]->RaisePipelined(
            msgs, &rejected);
        if (!s.ok() || rejected != 0) {
          failed[p] += msgs.size();
          errors[p] = s.ok() ? "closed-loop raises rejected" : s.ToString();
          return;
        }
        for (size_t j = 0; j < msgs.size(); ++j) {
          sent[static_cast<size_t>(p)].Add(
              pool[(pos - msgs.size() + j) % pool.size()]);
        }
        acked[p] += msgs.size();
        done[p].Add(NowNs(), static_cast<double>(msgs.size()));
      }
    });
  }
  const int windows = RateWindows(seconds);
  PhaseSamples samples = SamplePhase(env->db.get(), t0, deadline, windows);
  for (auto& t : threads) t.join();
  const int64_t t1 = NowNs();
  uint64_t total = 0;
  Series all;
  for (int p = 0; p < kProducers; ++p) {
    all.Append(done[p]);
    env->expected.Merge(sent[static_cast<size_t>(p)]);
    total += acked[p];
    res->failed += failed[p];
    res->attempted += acked[p] + failed[p];
    if (!errors[p].empty()) res->problems.push_back(errors[p]);
  }
  res->window_rates = all.WindowRates(t0, deadline, windows);
  res->throughput_eps = TrimmedMean(res->window_rates);
  res->window_cpu_us =
      CpuPerEvent(samples.cpu_at, res->window_rates, seconds / windows);
  res->cpu_us_per_event = TrimmedMean(res->window_cpu_us);
  res->ingress_depth_p99 = Quantile(&samples.depth, 0.99);
  res->throughput_mean_eps =
      static_cast<double>(total) / (static_cast<double>(t1 - t0) / 1e9);
  return total;
}

uint64_t ExpectedNotes(const Env& env) {
  uint64_t n = 0;
  for (size_t s = 0; s < env.spec.oids; ++s) n += env.expected.Of(s, kAlarm);
  // Warm-up Alarms precede the subscription.
  return n - env.spec.oids;
}

/// Ends a round: rules settle, every notification arrives, the
/// end-of-round stats are taken, and a tailing follower catches up with
/// everything, untimed, before the next round's open loop.
void FinishRound(Env* env, NoteLoop* notes, std::thread* note_thread,
                 RoundResult* res) {
  if (!SettleRules(env)) res->problems.push_back("rules did not settle");
  const uint64_t want = ExpectedNotes(*env);
  Probe& probe = env->probe;
  WaitFor([&] { return probe.notified.total.load() >= want; }, 10);
  notes->stop.store(true, std::memory_order_release);
  note_thread->join();
  if (!notes->error.empty()) res->problems.push_back(notes->error);
  res->notify_us = std::move(notes->latency_us);
  res->s2 = env->Take();
  if (env->follower && env->standby_tails) {
    ScopedCpu on_side(env->side_cpu);
    const int64_t deadline = NowNs() + 30 * int64_t{1000000000};
    bool caught_up = false;
    while ((!caught_up || probe.follower.total < probe.primary.total) &&
           NowNs() < deadline) {
      Status s = env->follower->CatchUpOnce(&caught_up);
      if (!s.ok()) {
        res->problems.push_back("follower catch-up: " + s.ToString());
        break;
      }
    }
  }
}

/// One round of an open-loop + closed-loop workload.
RoundResult RunStreamRound(Env* env, const Inputs& in, int index,
                           double seconds, bool trace) {
  const WorkloadSpec& spec = env->spec;
  RoundResult res;
  res.index = index;
  res.trace = trace;
  const size_t n_open = std::min(
      in.open.size(),
      static_cast<size_t>(spec.open_rate_eps * seconds * kOpenShare));
  env->rounds.push_back(NewRound(n_open, trace));
  Round* round = env->rounds.back().get();

  // Encode every scheduled raise before the clock starts.
  Lane lanes[kProducers];
  for (int p = 0; p < kProducers; ++p) {
    lanes[p].conn = env->conns[static_cast<size_t>(p)].get();
  }
  const double interval_ns = 1e9 / spec.open_rate_eps;
  Encoder enc;
  net::RaiseEventMsg msg;
  for (size_t i = 0; i < n_open; ++i) {
    const RaiseSpec& r = in.open[i];
    Lane& lane = lanes[r.producer];
    msg.oid = WireOid(r);
    msg.class_name = ClassOf(spec, r);
    msg.method = MethodName(r.method);
    msg.params = {Value(MakeId(index, static_cast<int64_t>(i))),
                  Value(static_cast<int64_t>(static_cast<double>(i) *
                                             interval_ns)),
                  Value(int64_t{r.sel})};
    enc.Clear();
    msg.Encode(&enc);
    lane.order.push_back(static_cast<uint32_t>(i));
    lane.off.push_back(static_cast<uint32_t>(lane.frames.size()));
    lane.conn->EncodeFrameTo(net::FrameType::kRaiseEvent, enc.buffer(),
                             &lane.frames);
  }
  for (Lane& lane : lanes) {
    lane.off.push_back(static_cast<uint32_t>(lane.frames.size()));
    lane.ok.assign(lane.order.size(), 0);
  }
  std::vector<int64_t> late(n_open, 0);
  res.ack_us.Reserve(n_open);
  res.late_us.Reserve(n_open);

  NoteLoop notes;
  res.s0 = env->Take();
  env->probe.rounds[static_cast<size_t>(index)].store(
      round, std::memory_order_release);
  std::thread note_thread([&] { notes.Run(env); });
  std::thread readers[kProducers];
  for (int p = 0; p < kProducers; ++p) {
    readers[p] = std::thread([&, p] { ReadLane(&lanes[p], in.open, round); });
  }

  // --- Open loop: the sender (this thread) never waits on acks. --------
  if (env->follower && env->standby_tails) {
    ScopedCpu on_side(env->side_cpu);
    Status s = env->follower->Start();
    if (!s.ok()) res.problems.push_back("follower start: " + s.ToString());
  }
  const int64_t origin = NowNs() + 2000000;
  round->origin.store(origin);
  size_t pos[kProducers] = {0, 0};
  std::string batch[kProducers];
  std::string send_error;
  for (size_t next = 0; next < n_open && send_error.empty();) {
    const int64_t due = origin + static_cast<int64_t>(
                                     static_cast<double>(next) * interval_ns);
    int64_t now = NowNs();
    if (due > now) {
      SleepUntilNs(due);
      continue;
    }
    size_t end = next;
    while (end < n_open && end - next < 256 &&
           origin + static_cast<int64_t>(static_cast<double>(end) *
                                         interval_ns) <= now) {
      ++end;
    }
    for (int p = 0; p < kProducers; ++p) batch[p].clear();
    for (size_t i = next; i < end; ++i) {
      const int p = in.open[i].producer;
      Lane& lane = lanes[p];
      const size_t k = pos[p]++;
      std::string_view frame(lane.frames.data() + lane.off[k],
                             lane.off[k + 1] - lane.off[k]);
      round->send[i] = now;
      late[i] = now - (origin + static_cast<int64_t>(static_cast<double>(i) *
                                                     interval_ns));
      batch[p].append(frame);
    }
    for (int p = 0; p < kProducers; ++p) {
      if (!batch[p].empty()) {
        Status s = lanes[p].conn->SendRaw(batch[p]);
        if (!s.ok()) send_error = "send: " + s.ToString();
      }
    }
    next = end;
  }
  for (auto& t : readers) t.join();
  if (!send_error.empty()) res.problems.push_back(send_error);

  for (Lane& lane : lanes) {
    if (!lane.error.empty()) res.problems.push_back(lane.error);
    for (size_t k = 0; k < lane.order.size(); ++k) {
      const RaiseSpec& r = in.open[lane.order[k]];
      ++res.attempted;
      if (lane.ok[k]) {
        env->expected.Add(r);
        ++res.open_acked;
      } else {
        ++res.failed;
      }
    }
  }
  for (size_t i = 0; i < n_open; ++i) {
    const int64_t due =
        static_cast<int64_t>(static_cast<double>(i) * interval_ns);
    res.late_us.Add(due, static_cast<double>(late[i]) / 1e3);
    if (round->ack[i] != 0) {
      res.ack_us.Add(due,
                     static_cast<double>(round->ack[i] - origin - due) / 1e3);
    }
  }
  if (!SettleRules(env)) res.problems.push_back("rules did not settle");
  res.s1 = env->Take();

  // --- Closed loop: throughput. ------------------------------------------
  if (env->follower) env->follower->Stop();
  res.acked = res.open_acked +
              ClosedLoop(env, in, index, seconds * (1 - kOpenShare), &res);
  FinishRound(env, &notes, &note_thread, &res);
  return res;
}

/// Span medians of a traced round, plus follower lag (always).
void CollectSpans(const Env& env, const Inputs& in, Round* round,
                  RoundResult* res) {
  const WorkloadSpec& spec = env.spec;
  const double interval_ns = 1e9 / spec.open_rate_eps;
  const int64_t origin = round->origin.load();
  auto at = [&](Span kind, size_t k) -> int64_t {
    const auto& v = round->spans[kind];
    return k < v.size() ? v[k].load(std::memory_order_relaxed) : 0;
  };
  std::vector<double> dispatch, rounds, action, to_ack, to_note, ack_to_fol;
  for (size_t k = 0; k < round->slots; ++k) {
    const int64_t send = round->send[k], ack = round->ack[k];
    const int64_t cond = at(kCond, k), obs = at(kObs, k);
    const int64_t ab = at(kActBegin, k), ae = at(kActEnd, k);
    const int64_t note = at(kNote, k), fol = at(kFol, k);
    if (fol != 0 && k < in.open.size()) {
      const int64_t due =
          origin + static_cast<int64_t>(static_cast<double>(k) * interval_ns);
      res->follower_ms.Add(due - origin, static_cast<double>(fol - due) / 1e6);
    }
    if (!round->trace || send == 0) continue;
    if (cond != 0) dispatch.push_back(static_cast<double>(cond - send) / 1e3);
    if (cond != 0 && obs >= cond) {
      rounds.push_back(static_cast<double>(obs - cond) / 1e3);
    }
    if (ab != 0 && ae != 0) action.push_back(static_cast<double>(ae - ab) / 1e3);
    if (obs != 0 && ack != 0) {
      to_ack.push_back(static_cast<double>(ack - obs) / 1e3);
    }
    if (obs != 0 && note != 0) {
      to_note.push_back(static_cast<double>(note - obs) / 1e3);
    }
    if (ack != 0 && fol != 0) {
      ack_to_fol.push_back(static_cast<double>(fol - ack) / 1e6);
    }
  }
  if (!round->trace) return;
  res->spans["net.send_to_dispatch_us"] = Median(dispatch);
  res->spans["rules.round_us"] = Median(rounds);
  res->spans["rules.action_us"] = Median(action);
  res->spans["txn.post_raise_to_ack_us"] = Median(to_ack);
  res->spans["net.post_raise_to_notify_us"] = Median(to_note);
  res->spans["repl.ack_to_apply_ms"] = Median(ack_to_fol);
}

RoundResult RunRound(Env* env, const Inputs& in, int index, double seconds,
                     bool trace) {
  RoundResult res = RunStreamRound(env, in, index, seconds, trace);
  CollectSpans(*env, in, env->rounds.back().get(), &res);
  return res;
}

// --- Direct calls into single layers (traced runs) -------------------------------

/// The raises a direct measurement replays: the open-loop schedule, then
/// the closed-loop pools.
std::vector<RaiseSpec> DirectInputs(const Inputs& in, size_t n) {
  std::vector<RaiseSpec> out(in.open.begin(),
                             in.open.begin() + std::min(n, in.open.size()));
  for (size_t i = 0; out.size() < n && i < in.pool[0].size(); ++i) {
    out.push_back(in.pool[0][i]);
    if (i < in.pool[1].size() && out.size() < n) out.push_back(in.pool[1][i]);
  }
  return out;
}

net::RaiseEventMsg ToMsg(const WorkloadSpec& spec, const RaiseSpec& r,
                         int64_t id) {
  net::RaiseEventMsg m;
  m.oid = WireOid(r);
  m.class_name = ClassOf(spec, r);
  m.method = MethodName(r.method);
  m.params = {Value(id), Value(int64_t{-1}), Value(int64_t{r.sel})};
  return m;
}

void MeasureWire(const WorkloadSpec& spec,
                 const std::vector<RaiseSpec>& raises,
                 std::map<std::string, double>* out) {
  std::vector<net::RaiseEventMsg> msgs;
  for (size_t i = 0; i < raises.size(); ++i) {
    msgs.push_back(ToMsg(spec, raises[i], MakeId(0, static_cast<int64_t>(i))));
  }
  std::vector<std::string> frames(msgs.size());
  std::vector<double> enc_ns, dec_ns;
  Encoder enc;
  uint64_t bad = 0;
  for (int rep = 0; rep < 5; ++rep) {
    int64_t t0 = NowNs();
    for (size_t i = 0; i < msgs.size(); ++i) {
      enc.Clear();
      msgs[i].Encode(&enc);
      frames[i].clear();
      net::EncodeFrame(net::FrameType::kRaiseEvent, enc.buffer(), &frames[i],
                       net::kProtocolV2);
    }
    int64_t t1 = NowNs();
    for (const std::string& f : frames) {
      net::Frame frame;
      size_t consumed = 0;
      Status error;
      if (net::TryDecodeFrame(f, net::kDefaultMaxFrameBody, &frame,
                              &consumed, &error) != net::DecodeProgress::kFrame ||
          !net::RaiseEventMsg::Decode(frame.body).ok()) {
        ++bad;
      }
    }
    int64_t t2 = NowNs();
    const double n = static_cast<double>(std::max<size_t>(msgs.size(), 1));
    enc_ns.push_back(static_cast<double>(t1 - t0) / n);
    dec_ns.push_back(static_cast<double>(t2 - t1) / n);
  }
  (*out)["net.wire_encode_ns"] = Median(enc_ns);
  (*out)["net.wire_decode_ns"] = bad == 0 ? Median(dec_ns) : -1;
}

Result<std::unique_ptr<Database>> OpenScratch(const fs::path& dir,
                                              Database::Options options) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  options.dir = dir.string();
  return Database::Open(options);
}

/// In-process raises with the workload's rules and no transport.
Status MeasureCoreRaise(const WorkloadSpec& spec,
                        const std::vector<RaiseSpec>& raises,
                        const fs::path& dir,
                        std::map<std::string, double>* out) {
  Database::Options options = spec.db;
  options.raise_shards = 1;  // One raising thread: nothing to forward to.
  auto opened = OpenScratch(dir, options);
  SENTINEL_RETURN_IF_ERROR(opened.status());
  std::unique_ptr<Database> db = std::move(opened).value();
  Probe probe(spec);
  SENTINEL_RETURN_IF_ERROR(RegisterClasses(db.get(), spec));
  SENTINEL_RETURN_IF_ERROR(RegisterFunctions(db.get(), &probe));
  SENTINEL_RETURN_IF_ERROR(
      PopulateState(db.get(), spec.oids, spec.state_bytes));
  SENTINEL_RETURN_IF_ERROR(InstallRules(db.get(), spec));
  // A Reset's object stands in for its class's default relay.
  auto oid_of = [&](const RaiseSpec& r) -> uint64_t {
    return r.method == kReset ? kSensorBase + spec.oids + r.producer
                              : WireOid(r);
  };
  std::map<uint64_t, std::unique_ptr<ReactiveObject>> objects;
  for (const RaiseSpec& r : raises) {
    auto& obj = objects[oid_of(r)];
    if (obj == nullptr) {
      obj = std::make_unique<ReactiveObject>(ClassOf(spec, r),
                                             static_cast<Oid>(oid_of(r)));
      SENTINEL_RETURN_IF_ERROR(db->RegisterLiveObject(obj.get()));
    }
  }
  auto raise = [&](size_t i) {
    const RaiseSpec& r = raises[i];
    ReactiveObject* obj = objects[oid_of(r)].get();
    return db->WithTransaction([&](Transaction*) {
      obj->RaiseEvent(MethodName(r.method), EventModifier::kEnd,
                      {Value(MakeId(0, static_cast<int64_t>(i))),
                       Value(int64_t{-1}), Value(int64_t{r.sel})});
      return Status::OK();
    });
  };
  const size_t warm = raises.size() / 10;
  for (size_t i = 0; i < warm; ++i) SENTINEL_RETURN_IF_ERROR(raise(i));
  const int64_t t0 = NowNs();
  for (size_t i = warm; i < raises.size(); ++i) {
    SENTINEL_RETURN_IF_ERROR(raise(i));
  }
  const int64_t t1 = NowNs();
  (*out)["core.raise_ns"] =
      static_cast<double>(t1 - t0) /
      static_cast<double>(std::max<size_t>(raises.size() - warm, 1));
  for (auto& [oid, obj] : objects) db->UnregisterLiveObject(obj.get()).ok();
  SENTINEL_RETURN_IF_ERROR(db->Close());
  fs::remove_all(dir);
  return Status::OK();
}

/// One-write commits from two threads, each bound to its own raise shard
/// and writing its own objects, through a 100 µs group-commit window with
/// WAL-size checkpoints: how a writing workload commits. Reports the
/// commit latency and that database's WAL sync, group-commit batch and
/// checkpoint figures (the benchmark's workloads write only in set-up).
Status MeasureCommit(const std::vector<RaiseSpec>& raises,
                     const fs::path& dir,
                     std::map<std::string, double>* out) {
  Database::Options options;
  options.raise_shards = kProducers;
  options.group_commit_window_us = 100;
  options.checkpoint_wal_bytes = 512u << 10;
  auto opened = OpenScratch(dir, options);
  SENTINEL_RETURN_IF_ERROR(opened.status());
  std::unique_ptr<Database> db = std::move(opened).value();
  SENTINEL_RETURN_IF_ERROR(db->RegisterClass(ClassBuilder("State").Build()));
  constexpr size_t kCommits = 1500;  // Per thread.
  std::vector<double> ns[kProducers];
  Status failed[kProducers];
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      Database::BindRaiseShard(static_cast<size_t>(p));
      std::string state(320, 's');
      for (size_t i = 0; i < kCommits && failed[p].ok(); ++i) {
        const RaiseSpec& r = raises[(2 * i + p) % raises.size()];
        const Oid oid = kStateBase + static_cast<Oid>(p) * 1000000 +
                        r.oid_idx % 4096;
        const int64_t t0 = NowNs();
        failed[p] = db->WithTransaction([&](Transaction* txn) {
          return db->store()->Put(txn, oid, "State", state);
        });
        ns[p].push_back(static_cast<double>(NowNs() - t0));
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& s : failed) SENTINEL_RETURN_IF_ERROR(s);
  std::vector<double> all = ns[0];
  all.insert(all.end(), ns[1].begin(), ns[1].end());
  const MetricsSnapshot snap = db->StatsSnapshot();
  auto hist = [&](const std::string& name) {
    auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? HistogramSnapshot{} : it->second;
  };
  auto counter = [&](const std::string& name) {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0
                                     : static_cast<double>(it->second);
  };
  const HistogramSnapshot sync = hist("txn.wal_sync_ns");
  const HistogramSnapshot batch = hist("storage.group_commit_batch");
  (*out)["txn.commit_ns"] = Median(all);
  (*out)["txn.wal_sync_p50_us"] = sync.p50 / 1e3;
  (*out)["txn.wal_sync_p99_us"] = sync.p99 / 1e3;
  (*out)["txn.commits_per_fsync"] =
      Ratio(static_cast<double>(batch.sum), static_cast<double>(batch.count));
  (*out)["storage.checkpoints"] = counter("storage.checkpoints");
  SENTINEL_RETURN_IF_ERROR(db->Close());
  fs::remove_all(dir);
  return Status::OK();
}

/// Follower catch-up over a fixed backlog of the workload's raises.
Status MeasureCatchUp(const WorkloadSpec& spec,
                      const std::vector<RaiseSpec>& raises,
                      const fs::path& dir,
                      std::map<std::string, double>* out) {
  Database::Options options = FindWorkload("history_repl")->db;
  auto opened = OpenScratch(dir / "primary", options);
  SENTINEL_RETURN_IF_ERROR(opened.status());
  std::unique_ptr<Database> db = std::move(opened).value();
  SENTINEL_RETURN_IF_ERROR(RegisterClasses(db.get(), spec));
  repl::ReplicatorOptions ro;
  ro.mirror_dir = (dir / "primary" / "repllog").string();
  auto replicator = std::make_unique<repl::Replicator>(db.get(), ro);
  SENTINEL_RETURN_IF_ERROR(replicator->Start());
  std::map<uint64_t, std::unique_ptr<ReactiveObject>> objects;
  for (size_t i = 0; i < raises.size(); ++i) {
    const uint64_t oid = kSensorBase + raises[i].oid_idx;
    auto& obj = objects[oid];
    if (obj == nullptr) {
      obj = std::make_unique<ReactiveObject>(ClassOf(spec, raises[i]),
                                             static_cast<Oid>(oid));
      SENTINEL_RETURN_IF_ERROR(db->RegisterLiveObject(obj.get()));
    }
    SENTINEL_RETURN_IF_ERROR(db->WithTransaction([&](Transaction*) {
      obj->RaiseEvent("Report", EventModifier::kEnd,
                      {Value(MakeId(0, static_cast<int64_t>(i))),
                       Value(int64_t{-1}), Value(int64_t{raises[i].sel})});
      return Status::OK();
    }));
  }
  auto server = std::make_unique<net::GatewayServer>(db.get());
  server->SetReplication(replicator.get());
  SENTINEL_RETURN_IF_ERROR(server->Start());
  Database::Options fo = options;
  fo.replica = true;
  auto fopened = OpenScratch(dir / "follower", fo);
  SENTINEL_RETURN_IF_ERROR(fopened.status());
  std::unique_ptr<Database> fdb = std::move(fopened).value();
  Status result;
  {
    repl::FollowerOptions fopt;
    fopt.port = server->port();
    repl::Follower follower(fdb.get(), fopt);
    bool caught_up = false;
    const int64_t t0 = NowNs();
    for (int i = 0; i < 100000 && !caught_up && result.ok(); ++i) {
      result = follower.CatchUpOnce(&caught_up);
    }
    const int64_t t1 = NowNs();
    if (result.ok() && follower.applied_ordinal() != raises.size()) {
      result = Status::Internal("catch-up replayed " +
                                std::to_string(follower.applied_ordinal()) +
                                " of " + std::to_string(raises.size()));
    }
    (*out)["repl.catchup_eps"] =
        static_cast<double>(raises.size()) /
        (static_cast<double>(t1 - t0) / 1e9);
    follower.Stop();
  }
  server->Stop();
  replicator->Stop().ok();
  fdb->Close().ok();
  for (auto& [oid, obj] : objects) db->UnregisterLiveObject(obj.get()).ok();
  db->Close().ok();
  fs::remove_all(dir);
  return result;
}

/// The shm transport alone: the workload's raises pushed through a
/// LocalPublisher into a scratch gateway running the workload's rules.
/// First pipelined as in the closed loop (rate and intake counters), then
/// one synchronous raise at a time, each timed from the push to the
/// benchmark condition (shmtp.send_to_dispatch_us).
Status MeasureShm(const WorkloadSpec& spec,
                  const std::vector<RaiseSpec>& raises, size_t n_single,
                  const fs::path& dir, std::map<std::string, double>* out) {
  auto opened = OpenScratch(dir, spec.db);
  SENTINEL_RETURN_IF_ERROR(opened.status());
  std::unique_ptr<Database> db = std::move(opened).value();
  Probe probe(spec);
  SENTINEL_RETURN_IF_ERROR(RegisterClasses(db.get(), spec));
  SENTINEL_RETURN_IF_ERROR(RegisterFunctions(db.get(), &probe));
  SENTINEL_RETURN_IF_ERROR(InstallRules(db.get(), spec));
  net::ServerOptions so = spec.server;
  so.shm_segment = "/sentinel-perfbench-direct-" + std::to_string(::getpid());
  net::GatewayServer server(db.get(), so);
  SENTINEL_RETURN_IF_ERROR(server.Start());
  net::LocalPublisher::Options lo;
  lo.segment = so.shm_segment;
  lo.port = server.port();
  lo.window = spec.window;
  auto lp = net::LocalPublisher::Open(lo);
  Status result = lp.status();
  if (result.ok() && !(*lp)->via_shm()) {
    result = Status::Internal("LocalPublisher fell back to TCP");
  }
  std::vector<net::RaiseEventMsg> msgs;
  for (size_t i = 0; i < raises.size(); ++i) {
    msgs.push_back(
        ToMsg(spec, raises[i], MakeId(0, static_cast<int64_t>(i))));
  }
  const size_t warm = msgs.size() / 10;
  auto push = [&](size_t from, size_t to) {
    for (size_t i = from; i < to && result.ok(); i += spec.batch) {
      std::vector<net::RaiseEventMsg> batch(
          msgs.begin() + static_cast<ptrdiff_t>(i),
          msgs.begin() + static_cast<ptrdiff_t>(std::min(to, i + spec.batch)));
      uint64_t rejected = 0;
      result = (*lp)->RaisePipelined(batch, &rejected);
      if (result.ok() && rejected != 0) {
        result = Status::Internal("direct shm raises rejected");
      }
    }
  };
  if (result.ok()) push(0, warm);
  const net::GatewayStats g0 = server.stats();
  const int64_t t0 = NowNs();
  if (result.ok()) push(warm, msgs.size());
  const int64_t t1 = NowNs();
  const net::GatewayStats g1 = server.stats();
  auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  (*out)["shmtp.direct_eps"] =
      static_cast<double>(msgs.size() - warm) /
      (static_cast<double>(t1 - t0) / 1e9);
  (*out)["shmtp.frames_per_batch"] =
      Ratio(d(g0.shm_frames, g1.shm_frames), d(g0.shm_batches, g1.shm_batches));
  (*out)["shmtp.parks_per_kframe"] = Ratio(
      1000 * d(g0.shm_parks, g1.shm_parks), d(g0.shm_frames, g1.shm_frames));
  (*out)["shmtp.wakeups_per_park"] = Ratio(
      d(g0.shm_wakeups, g1.shm_wakeups), d(g0.shm_parks, g1.shm_parks));

  // Single raises: the condition stamps them through a traced round.
  std::unique_ptr<Round> round =
      NewRound(std::min(n_single, raises.size()), true);
  probe.rounds[1].store(round.get(), std::memory_order_release);
  for (size_t k = 0; k < round->slots && result.ok(); ++k) {
    const net::RaiseEventMsg m =
        ToMsg(spec, raises[k], MakeId(1, static_cast<int64_t>(k)));
    round->send[k] = NowNs();
    auto got = (*lp)->Raise(m.class_name, m.method, EventModifier::kEnd,
                            m.params, m.oid);
    if (!got.ok()) result = got.status();
  }
  std::vector<double> dispatch;
  for (size_t k = 0; k < round->slots; ++k) {
    const int64_t cond = round->spans[kCond][k].load();
    if (cond != 0) {
      dispatch.push_back(static_cast<double>(cond - round->send[k]) / 1e3);
    }
  }
  (*out)["shmtp.send_to_dispatch_us"] = Median(dispatch);
  if (lp.ok()) lp->reset();
  server.Stop();
  probe.rounds[1].store(nullptr);
  db->Close().ok();
  fs::remove_all(dir);
  return result;
}

// --- Verification -----------------------------------------------------------------

/// Checks one observation point against the acked raises.
void CheckTracker(const Env& env, const Tracker& t, const std::string& where,
                  std::vector<std::string>* problems) {
  uint64_t mismatched = 0;
  for (size_t i = 0; i < env.expected.count.size(); ++i) {
    if (t.count[i].load() != env.expected.count[i]) ++mismatched;
  }
  if (mismatched != 0) {
    problems->push_back(where + ": " + std::to_string(mismatched) +
                        " (object, method) counts differ from acked raises");
  }
  if (t.violations.load() != 0) {
    problems->push_back(where + ": " + std::to_string(t.violations.load()) +
                        " occurrences out of per-object order");
  }
}

bool SameHistory(const std::vector<EventOccurrence>& a,
                 const std::vector<EventOccurrence>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].timestamp.seq != b[i].timestamp.seq || a[i].oid != b[i].oid ||
        a[i].method != b[i].method || a[i].params != b[i].params) {
      return false;
    }
  }
  return true;
}

void VerifyReplica(Env* env, std::vector<std::string>* problems) {
  // The follower: stop tailing, then catch up synchronously until it has
  // replayed every record of the primary's mirror.
  env->follower->Stop();
  ScopedCpu on_side(env->side_cpu);
  const uint64_t mirrored = env->replicator->mirror()->TotalRecords();
  const int64_t deadline = NowNs() + 60 * int64_t{1000000000};
  while (env->follower->applied_ordinal() != mirrored && NowNs() < deadline) {
    bool caught_up = false;
    Status s = env->follower->CatchUpOnce(&caught_up);
    if (!s.ok()) {
      problems->push_back("follower catch-up: " + s.ToString());
      break;
    }
    if (caught_up && env->follower->applied_ordinal() != mirrored) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  if (env->follower->applied_ordinal() != mirrored) {
    problems->push_back("follower replayed " +
                        std::to_string(env->follower->applied_ordinal()) +
                        " of " + std::to_string(mirrored) +
                        " mirror records");
  }
  CheckTracker(*env, env->probe.follower, "follower observer", problems);
  env->server->Stop();  // Quiesce before reading the primary.
  std::vector<EventOccurrence> ph, fh, spilled;
  Status ps = env->db->HistoryScan({}, &ph, true);
  Status fs2 = env->fdb->HistoryScan({}, &fh, true);
  if (!ps.ok() || !fs2.ok() || !SameHistory(ph, fh)) {
    problems->push_back("follower history differs from the primary's (" +
                        std::to_string(fh.size()) + " vs " +
                        std::to_string(ph.size()) + " rows)");
  }
  // The spilled history survives a clean primary Close and reopen.
  Status scanned = env->db->HistoryScan({}, &spilled, false);
  env->replicator->Stop().ok();
  env->primary_obs.reset();
  Status closed = env->db->Close();
  env->db.reset();
  Database::Options options = env->spec.db;
  options.dir = (env->dir / "primary").string();
  auto reopened = Database::Open(options);
  if (!scanned.ok() || !closed.ok() || !reopened.ok()) {
    problems->push_back("primary close/reopen failed");
    return;
  }
  std::vector<EventOccurrence> after;
  Status rescanned = (*reopened)->HistoryScan({}, &after, false);
  if (!rescanned.ok() || spilled.empty() || !SameHistory(spilled, after)) {
    problems->push_back("spilled history after reopen: " +
                        std::to_string(after.size()) + " rows, " +
                        std::to_string(spilled.size()) + " before");
  }
  (*reopened)->Close().ok();
}

void Verify(Env* env, std::vector<std::string>* problems) {
  Probe& probe = env->probe;
  CheckTracker(*env, probe.primary, "primary observer", problems);
  uint64_t reports = 0;
  for (size_t s = 0; s < env->spec.oids; ++s) {
    reports += env->expected.Of(s, kReport);
  }
  if (probe.cond_calls.load() != reports) {
    problems->push_back("condition evaluated " +
                        std::to_string(probe.cond_calls.load()) +
                        " times for " + std::to_string(reports) + " Reports");
  }
  if (probe.fired.load() != env->expected.pass) {
    problems->push_back("rule fired " + std::to_string(probe.fired.load()) +
                        " times; the seeded condition passes " +
                        std::to_string(env->expected.pass));
  }
  if (probe.seq_fired.load() != env->expected.resets) {
    problems->push_back("sequence rule fired " +
                        std::to_string(probe.seq_fired.load()) +
                        " times for " + std::to_string(env->expected.resets) +
                        " Resets");
  }
  if (probe.action_errors.load() != 0) {
    problems->push_back(std::to_string(probe.action_errors.load()) +
                        " rule actions failed");
  }
  if (probe.notified.total.load() != ExpectedNotes(*env)) {
    problems->push_back("received " +
                        std::to_string(probe.notified.total.load()) +
                        " notifications for " +
                        std::to_string(ExpectedNotes(*env)) +
                        " notifying raises");
  }
  if (probe.notified.violations.load() != 0) {
    problems->push_back("notifications out of per-object order");
  }
  if (env->server->stats().notifications_dropped != 0) {
    problems->push_back("server dropped notifications");
  }
  if (env->spec.follower) VerifyReplica(env, problems);
}

std::string RoundJson(const RoundResult& r) {
  JsonObject o;
  o.Int("round", r.index)
      .Bool("trace", r.trace)
      .Int("attempted", static_cast<int64_t>(r.attempted))
      .Int("acked", static_cast<int64_t>(r.acked))
      .Int("failed", static_cast<int64_t>(r.failed))
      .Num("throughput_eps", r.throughput_eps)
      .Num("throughput_mean_eps", r.throughput_mean_eps)
      .Num("cpu_us_per_event", r.cpu_us_per_event)
      .Num("cpu_us_per_event_round",
           Ratio((r.s2.usage.cpu_s - r.s0.usage.cpu_s) * 1e6,
                 static_cast<double>(r.acked)))
      .Int("ack_samples", static_cast<int64_t>(r.ack_us.size()))
      .Num("ack_p50_us", r.ack_us.P50())
      .Num("ack_p90_windowed_us", r.ack_us.Windowed(0.9))
      .Num("ack_p99_us", r.ack_us.Q(0.99))
      .Num("ack_p99_windowed_us", r.ack_us.Windowed(0.99))
      .Num("ack_p999_us", r.ack_us.Q(0.999))
      .Int("notify_samples", static_cast<int64_t>(r.notify_us.size()))
      .Num("notify_p50_us", r.notify_us.P50())
      .Num("notify_p99_us", r.notify_us.Q(0.99))
      .Num("notify_p90_windowed_us", r.notify_us.Windowed(0.9))
      .Num("notify_p99_windowed_us", r.notify_us.Windowed(0.99))
      .Num("host_steal_s", r.s2.steal_s - r.s0.steal_s)
      .Num("late_p50_us", r.late_us.P50())
      .Num("late_p99_us", r.late_us.Q(0.99))
      .Int("follower_samples", static_cast<int64_t>(r.follower_ms.size()))
      .Num("follower_lag_p50_ms", r.follower_ms.P50())
      .Num("follower_lag_p99_ms", r.follower_ms.Q(0.99))
      .Raw("window_rates", JsonArray(r.window_rates))
      .Raw("window_cpu_us_per_event", JsonArray(r.window_cpu_us))
      .Raw("window_ack_p50_us", JsonArray(r.ack_us.WindowQuantiles(10, 0.5)))
      .Raw("window_ack_p99_us",
           JsonArray(r.ack_us.WindowQuantiles(10, 0.99)));
  return o.Render();
}

}  // namespace

RunOutput RunWorkload(const RunOptions& options) {
  const WorkloadSpec& spec = *options.spec;
  RunOutput out;
  JsonObject detail;
  auto fail = [&](const std::string& why) {
    out.correct = false;
    out.problems.push_back(why);
  };

  // Inputs, and the generator self-check: the same seed reproduces the
  // digest, another seed changes it.
  const size_t n_open =
      static_cast<size_t>(spec.open_rate_eps * options.seconds * kOpenShare);
  const Inputs in = Generate(spec, options.seed, n_open);
  const bool same = Generate(spec, options.seed, n_open).digest == in.digest;
  const bool differs =
      Generate(spec, options.seed + 1, n_open).digest != in.digest;
  if (!same || !differs) fail("generator self-check failed");
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(in.digest));

  // Setup: timed repeatedly in an untraced run (at least 5 times and 5 s,
  // at most 400 times); the median is setup_s. A traced run sets up once.
  const int min_setups = options.trace ? 1 : 5;
  const int max_setups = options.trace ? 1 : 400;
  std::vector<double> setup_s;
  double setup_total_s = 0;
  std::unique_ptr<Env> env;
  for (int i = 0; i < max_setups && (i < min_setups || setup_total_s < 5);
       ++i) {
    env.reset();
    env = std::make_unique<Env>(
        spec, fs::path(options.work_dir) / ("setup" + std::to_string(i)),
        options.side_cpu);
    env->standby_tails = options.trace;
    const int64_t t0 = NowNs();
    Status s = env->Setup();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_total_s += setup_s.back();
    if (!s.ok()) {
      fail("setup: " + s.ToString());
      out.detail_json = detail.Render();
      return out;
    }
  }

  // Rounds alternate the open and the closed loop, so that each figure is
  // drawn from the whole run rather than from one half of it (the host's
  // speed drifts over seconds). Each round takes the next slice of the
  // open-loop schedule. A traced run is one untraced round, then a traced
  // one.
  const int n_rounds = options.trace ? 2 : kUntracedRounds;
  std::vector<RoundResult> rounds;
  for (int k = 0; k < n_rounds; ++k) {
    Inputs slice;
    const size_t per = in.open.size() / static_cast<size_t>(n_rounds);
    slice.open.assign(in.open.begin() + static_cast<ptrdiff_t>(k * per),
                      in.open.begin() + static_cast<ptrdiff_t>((k + 1) * per));
    slice.pool[0] = in.pool[0];
    slice.pool[1] = in.pool[1];
    rounds.push_back(RunRound(env.get(), slice, k + 1,
                              options.seconds / n_rounds,
                              options.trace && k == 1));
  }
  const double peak_rss = PeakRssMb();
  for (const RoundResult& r : rounds) {
    out.attempted += r.attempted;
    out.failed += r.failed;
    for (const std::string& p : r.problems) fail(p);
  }
  // Missing notifications count as failures too.
  const uint64_t notes = env->probe.notified.total.load();
  const uint64_t want_notes = ExpectedNotes(*env);
  if (notes < want_notes) out.failed += want_notes - notes;

  const RoundResult& last = rounds.back();

  // Load-validity guard: the generator, not the server, fell behind when
  // its own lateness is both large and most of the measured tail. Such a
  // run is marked (detail "valid", per-layer loadgen.valid) rather than
  // failed: its outputs are still checked and correct.
  for (const RoundResult& r : rounds) {
    const double lp99 = r.late_us.Q(0.99), ap99 = r.ack_us.Q(0.99);
    if (lp99 > 1000 && lp99 > 0.5 * ap99) {
      out.valid = false;
      out.problems.push_back("generator fell behind: late p99 " +
                             std::to_string(lp99) + " us");
    }
  }

  // Verification runs after the measured rounds and before teardown.
  std::vector<std::string> problems;
  Verify(env.get(), &problems);
  for (const std::string& p : problems) fail(p);

  auto delta = [&](const std::string& name) {
    return static_cast<double>(last.s2.Counter(name) - last.s0.Counter(name));
  };
  const double acked = static_cast<double>(last.acked);
  if (!options.trace) {
    // Each latency is a trimmed mean over the one-second windows of all
    // rounds: it moves in proportion to the share of the run the host was
    // slow in, where a quantile over the run jumps between its speeds.
    std::vector<double> ack50, note50;
    auto add = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    const int lat_windows = std::max(1, static_cast<int>(
                                            options.seconds / n_rounds *
                                            kOpenShare));
    for (const RoundResult& r : rounds) {
      add(&ack50, r.ack_us.WindowQuantiles(lat_windows, 0.5));
      add(&note50, r.notify_us.WindowQuantiles(lat_windows, 0.5));
    }
    out.metrics["setup_s"] = Median(setup_s);
    out.metrics["ack_p50_us"] = TrimmedMean(ack50);
    out.metrics["notify_p50_us"] = TrimmedMean(note50);
    out.metrics["peak_rss_mb"] = peak_rss;
  } else {
    const RoundResult& base = rounds.front();
    const net::GatewayStats& g0 = last.s0.gw;
    const net::GatewayStats& g2 = last.s2.gw;
    auto gd = [](uint64_t a, uint64_t b) {
      return static_cast<double>(b - a);
    };
    auto& m = out.metrics;
    for (const auto& [k, v] : last.spans) m[k] = v;
    m["repl.follower_lag_p50_ms"] = last.follower_ms.P50();
    m["repl.follower_lag_p99_ms"] = last.follower_ms.Windowed(0.99);
    m["tail.ack_p99_us"] = last.ack_us.Windowed(0.99);
    m["tail.notify_p99_us"] = last.notify_us.Windowed(0.99);
    m["net.batched_ack_ratio"] = Ratio(gd(g0.batched_acks, g2.batched_acks),
                                       acked);
    m["net.ingress_depth_p99"] = last.ingress_depth_p99;
    m["net.rejected_ratio"] =
        Ratio(gd(g0.backpressure_rejections, g2.backpressure_rejections),
              static_cast<double>(last.attempted));
    m["net.inline_raise_ratio"] =
        Ratio(gd(g0.inline_raises, g2.inline_raises), acked);
    m["net.notifications_dropped"] =
        gd(g0.notifications_dropped, g2.notifications_dropped);
    // Exact per-raise counts over the scheduled phase (repeat per seed).
    const double open_acked = static_cast<double>(last.open_acked);
    m["events.occurrences_per_raise"] =
        Ratio(static_cast<double>(last.s1.Counter("events.occurrences") -
                                  last.s0.Counter("events.occurrences")),
              open_acked);
    m["rules.fired_per_raise"] =
        Ratio(static_cast<double>(last.s1.passed - last.s0.passed),
              open_acked);
    m["rules.dispatch_p50_ns"] = last.s2.Hist("rules.dispatch_ns").p50;
    const double hits = delta("storage.pool.hits");
    const double misses = delta("storage.pool.misses");
    m["storage.pool_hit_ratio"] = Ratio(hits, hits + misses);
    m["storage.bytes_per_event"] =
        Ratio(static_cast<double>(last.s2.dir_bytes) -
                  static_cast<double>(last.s0.dir_bytes),
              acked);
    m["histlog.appends_per_kevent"] =
        Ratio(1000 * delta("histlog.appends"), acked);
    m["proc.ctxsw_per_event"] = Ratio(
        static_cast<double>(last.s2.usage.ctxsw - last.s0.usage.ctxsw), acked);
    // The closed loop's rate and CPU cost, from the untraced round. They
    // carry no bound: the host moved them up to 2x between runs (README.md,
    // "End-to-end metrics").
    m["loadgen.closed_loop_eps"] = base.throughput_eps;
    m["proc.cpu_us_per_event"] = base.cpu_us_per_event;
    m["loadgen.late_p99_us"] = last.late_us.Q(0.99);
    m["loadgen.valid"] = out.valid ? 1 : 0;
    m["trace.overhead_frac"] =
        1 - Ratio(last.throughput_eps, base.throughput_eps);
    m["trace.overhead_ack_p50_frac"] =
        Ratio(last.ack_us.P50(), base.ack_us.P50()) - 1;
    m["error_rate"] = Ratio(static_cast<double>(out.failed),
                            static_cast<double>(out.attempted));

    // Direct calls into single layers, on this workload's inputs.
    const std::vector<RaiseSpec> direct = DirectInputs(
        in, spec.kind == Kind::kReplicated ? 5000 : 20000);
    MeasureWire(spec, direct, &m);
    const fs::path scratch = fs::path(options.work_dir) / "direct";
    Status s = MeasureCoreRaise(spec, direct, scratch / "core", &m);
    if (s.ok()) s = MeasureCommit(direct, scratch / "commit", &m);
    if (s.ok()) {
      s = MeasureCatchUp(spec, DirectInputs(in, 20000), scratch / "catchup",
                         &m);
    }
    // The shm transport on the ingest workload's own inputs; history_repl
    // does not exercise it, and reads 0.
    for (const char* k : {"shmtp.send_to_dispatch_us", "shmtp.direct_eps",
                          "shmtp.frames_per_batch", "shmtp.parks_per_kframe",
                          "shmtp.wakeups_per_park"}) {
      m[k] = 0;
    }
    if (s.ok() && spec.kind == Kind::kIngest) {
      s = MeasureShm(spec, DirectInputs(in, 100000), 5000, scratch / "shm",
                     &m);
    }
    if (!s.ok()) fail("direct layer measurement: " + s.ToString());
  }

  std::string round_json = "[";
  for (size_t i = 0; i < rounds.size(); ++i) {
    if (i > 0) round_json += ",";
    round_json += RoundJson(rounds[i]);
  }
  round_json += "]";
  std::string setups_json = "[";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.6f", i > 0 ? "," : "", setup_s[i]);
    setups_json += buf;
  }
  setups_json += "]";
  detail.Str("input_digest", digest)
      .Bool("generator_self_check", same && differs)
      .Int("open_loop_raises", static_cast<int64_t>(n_open))
      .Raw("setup_s_samples", setups_json)
      .Raw("rounds", round_json)
      .Int("generator_threads", 4)
      .Int("tcp_connections",
           static_cast<int64_t>(kProducers + 1 + (spec.follower ? 1 : 0)));
  out.detail_json = detail.Render();
  env.reset();
  return out;
}

}  // namespace perfbench
