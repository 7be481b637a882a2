// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Crash torture: a rule-driven workload is killed at failpoints woven
// through every layer (storage, WAL, transaction commit, rule scheduling),
// the database is reopened, and recovery invariants are asserted:
//
//   I1 (atomicity)  — the user write and the deferred-rule write of one
//                     transaction either both survive or both vanish
//                     (`bal` on the account == `count` on the audit).
//   I2 (durability) — every acknowledged commit survives; nothing newer
//                     than the last attempt appears.
//   I3 (boundary)   — a crash before the commit record is durable loses
//                     exactly the in-flight transaction; a crash after
//                     (txn.commit.durable, store.apply_put) loses nothing.
//   I4 (usability)  — the reopened database accepts new transactions.
//
// The workload: transaction i raises `end Acct::Set(i)` and writes
// bal := i; a *deferred* rule writes count := i into a separate audit
// object at the commit point, inside the same transaction.

#include <gtest/gtest.h>

#include <string>

#include "common/failpoint.h"
#include "core/database.h"

#include "../test_util.h"

namespace sentinel {
namespace {

using testing_util::TempDir;

struct WorkloadResult {
  int attempted = 0;        ///< Iterations started.
  int acked = 0;            ///< Highest i whose commit returned OK.
  Status first_error = Status::OK();
};

class CrashTortureTest : public ::testing::Test {
 protected:
  CrashTortureTest() { FailPoints::Instance().Reset(); }
  ~CrashTortureTest() override { FailPoints::Instance().Reset(); }

  /// Opens the database, registers the schema and the deferred audit rule,
  /// and persists the account and audit objects with bal = count = 0.
  /// Returns the opened database; oids land in acct_oid_/audit_oid_.
  std::unique_ptr<Database> OpenWorld(const std::string& dir) {
    auto opened = Database::Open({.dir = dir});
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<Database> db = std::move(opened).value();
    if (!db->catalog()->HasClass("Acct")) {
      EXPECT_TRUE(db->RegisterClass(
          ClassBuilder("Acct").Reactive()
              .Method("Set", {.end = true}).Build()).ok());
      EXPECT_TRUE(
          db->RegisterClass(ClassBuilder("Audit").Reactive().Build()).ok());
    }
    return db;
  }

  /// Declares the deferred audit rule: on `end Acct::Set(i)` it writes
  /// count := i into `audit` at the commit point, inside the same txn. Any
  /// previously loaded incarnation (whose lambda action cannot survive
  /// persistence) is dropped first.
  void DeclareAuditRule(Database* db, ReactiveObject* audit) {
    db->DeleteRule("audit-count").ok();
    auto event = db->CreatePrimitiveEvent("end Acct::Set");
    ASSERT_TRUE(event.ok());
    RuleSpec spec;
    spec.name = "audit-count";
    spec.event = event.value();
    spec.coupling = CouplingMode::kDeferred;
    spec.action = [db, audit](RuleContext& ctx) -> Status {
      audit->SetAttr(ctx.txn, "count", ctx.params()[0]);
      return db->Persist(ctx.txn, audit);
    };
    auto rule = db->DeclareClassRule("Acct", spec);
    ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  }

  /// Wires the live objects and the deferred rule into a fresh world and
  /// persists the initial images with bal = count = 0.
  void Wire(Database* db, ReactiveObject* acct, ReactiveObject* audit) {
    ASSERT_TRUE(db->RegisterLiveObject(acct).ok());
    ASSERT_TRUE(db->RegisterLiveObject(audit).ok());
    acct->SetAttrRaw("bal", Value(int64_t{0}));
    audit->SetAttrRaw("count", Value(int64_t{0}));
    ASSERT_TRUE(db->WithTransaction([&](Transaction* txn) {
      SENTINEL_RETURN_IF_ERROR(db->Persist(txn, acct));
      return db->Persist(txn, audit);
    }).ok());
    acct_oid_ = acct->oid();
    audit_oid_ = audit->oid();
    DeclareAuditRule(db, audit);
  }

  /// Runs up to `iterations` account updates, stopping at the first failed
  /// commit (a crashed "process" cannot go on).
  WorkloadResult RunWorkload(Database* db, ReactiveObject* acct,
                             int iterations) {
    WorkloadResult result;
    for (int i = 1; i <= iterations; ++i) {
      ++result.attempted;
      Status s = db->WithTransaction([&](Transaction* txn) {
        MethodEventScope scope(acct, "Set", {Value(int64_t{i})});
        acct->SetAttr(txn, "bal", Value(int64_t{i}));
        return db->Persist(txn, acct);
      });
      if (!s.ok()) {
        result.first_error = s;
        break;
      }
      result.acked = i;
    }
    return result;
  }

  /// "Kills the process": closes through the crash-aware paths (unsynced
  /// data is discarded), drops the handles, clears the simulated crash.
  void Kill(std::unique_ptr<Database> db, ReactiveObject* acct,
            ReactiveObject* audit) {
    db->UnregisterLiveObject(acct).ok();
    db->UnregisterLiveObject(audit).ok();
    db->Close().ok();  // May fail under injection; that's the point.
    db.reset();
    FailPoints::Instance().Reset();
  }

  /// Reopens the directory and checks I1/I2/I4. `expect_exact` >= 0 pins
  /// the recovered value (I3); -1 accepts any value in [acked, attempted].
  void VerifyRecovery(const std::string& dir, const WorkloadResult& result,
                      int expect_exact = -1) {
    std::unique_ptr<Database> db = OpenWorld(dir);

    auto acct = db->Materialize(nullptr, acct_oid_);
    ASSERT_TRUE(acct.ok()) << acct.status().ToString();
    auto audit = db->Materialize(nullptr, audit_oid_);
    ASSERT_TRUE(audit.ok()) << audit.status().ToString();
    DeclareAuditRule(db.get(), audit.value().get());

    Value bal = acct.value()->GetAttr("bal");
    Value count = audit.value()->GetAttr("count");
    ASSERT_TRUE(bal.is_int()) << bal.ToString();

    // I1: the user write and the rule write moved in lockstep.
    EXPECT_EQ(bal, count) << "atomicity broken: bal=" << bal.ToString()
                          << " count=" << count.ToString();

    // I2: no acked commit lost, nothing from the future.
    int64_t recovered = bal.AsInt();
    EXPECT_GE(recovered, int64_t{result.acked});
    EXPECT_LE(recovered, int64_t{result.attempted});

    // I3: scenario-specific exact expectation.
    if (expect_exact >= 0) {
      EXPECT_EQ(recovered, int64_t{expect_exact});
    }

    // I4: the database still works — run one more committed update.
    int next = static_cast<int>(recovered) + 1;
    EXPECT_TRUE(db->WithTransaction([&](Transaction* txn) {
      MethodEventScope scope(acct.value().get(), "Set",
                             {Value(int64_t{next})});
      acct.value()->SetAttr(txn, "bal", Value(int64_t{next}));
      return db->Persist(txn, acct.value().get());
    }).ok());
    EXPECT_EQ(acct.value()->GetAttr("bal"), Value(int64_t{next}));
    EXPECT_EQ(audit.value()->GetAttr("count"), Value(int64_t{next}));

    db->UnregisterLiveObject(acct.value().get()).ok();
    db->UnregisterLiveObject(audit.value().get()).ok();
    ASSERT_TRUE(db->Close().ok());
  }

  /// One full torture cycle: setup, arm `spec`, run, kill, verify.
  void Torture(const std::string& tag, const std::string& spec,
               int iterations, int expect_exact,
               int expect_min_acked = -1) {
    TempDir dir(tag);
    ReactiveObject acct("Acct"), audit("Audit");
    std::unique_ptr<Database> db = OpenWorld(dir.path());
    Wire(db.get(), &acct, &audit);

    // Armed only now, so setup transactions never trip the failpoint.
    ASSERT_TRUE(FailPoints::Instance().EnableFromSpec(spec).ok()) << spec;
    WorkloadResult result = RunWorkload(db.get(), &acct, iterations);
    if (expect_min_acked >= 0) {
      EXPECT_GE(result.acked, expect_min_acked);
    }
    Kill(std::move(db), &acct, &audit);

    VerifyRecovery(dir.path(), result, expect_exact);
  }

  Oid acct_oid_ = kInvalidOid;
  Oid audit_oid_ = kInvalidOid;
};

// --- Pre-durability kills: the in-flight transaction must vanish. ----------

TEST_F(CrashTortureTest, CrashAtCommitEntry) {
  // Dies entering the 3rd workload commit: exactly 2 survive.
  Torture("commit-entry", "txn.commit.begin=crash@hit(3)", 10, 2);
}

TEST_F(CrashTortureTest, CrashDuringWalAppend) {
  // Dies somewhere inside the WAL write of a later commit; whatever was
  // acked must survive, the in-flight transaction must not.
  TempDir dir("wal-append");
  ReactiveObject acct("Acct"), audit("Audit");
  std::unique_ptr<Database> db = OpenWorld(dir.path());
  Wire(db.get(), &acct, &audit);

  ASSERT_TRUE(
      FailPoints::Instance().EnableFromSpec("wal.append=crash@hit(9)").ok());
  WorkloadResult result = RunWorkload(db.get(), &acct, 10);
  EXPECT_FALSE(result.first_error.ok());  // The crash cut a commit short.
  Kill(std::move(db), &acct, &audit);
  VerifyRecovery(dir.path(), result, result.acked);
}

TEST_F(CrashTortureTest, TornWalAppend) {
  // The record is cut after 6 bytes — a torn tail recovery must skip.
  TempDir dir("wal-torn");
  ReactiveObject acct("Acct"), audit("Audit");
  std::unique_ptr<Database> db = OpenWorld(dir.path());
  Wire(db.get(), &acct, &audit);

  ASSERT_TRUE(FailPoints::Instance()
                  .EnableFromSpec("wal.append=partial(6)@hit(9)").ok());
  WorkloadResult result = RunWorkload(db.get(), &acct, 10);
  EXPECT_FALSE(result.first_error.ok());
  Kill(std::move(db), &acct, &audit);
  VerifyRecovery(dir.path(), result, result.acked);
}

TEST_F(CrashTortureTest, CrashAtWalSync) {
  // The commit record reached the stdio buffer but was never synced; the
  // crash-aware close throws the buffer away, so the transaction is gone.
  Torture("wal-sync", "wal.sync=crash@hit(3)", 10, 2);
}

// --- Post-durability kills: the transaction MUST survive recovery. ---------

TEST_F(CrashTortureTest, CrashAfterCommitDurable) {
  // Dies between WAL sync and heap apply of commit 4: the caller saw an
  // error, but the commit record is durable — recovery must redo it.
  Torture("durable", "txn.commit.durable=crash@hit(4)", 10, 4);
}

TEST_F(CrashTortureTest, CrashDuringHeapApply) {
  // store.apply_put sees two puts per commit (account + audit); hit 7 dies
  // mid-apply of commit 4 — already durable, so it must survive whole.
  Torture("apply", "store.apply_put=crash@hit(7)", 10, 4);
}

// --- Storage-layer kills. ---------------------------------------------------

TEST_F(CrashTortureTest, CrashDuringCheckpointPageWrite) {
  TempDir dir("ckpt-page");
  ReactiveObject acct("Acct"), audit("Audit");
  std::unique_ptr<Database> db = OpenWorld(dir.path());
  Wire(db.get(), &acct, &audit);

  WorkloadResult result = RunWorkload(db.get(), &acct, 5);
  ASSERT_EQ(result.acked, 5);
  // Die on the first page write of an explicit checkpoint. The WAL has not
  // been truncated yet, so replay covers whatever the heap is missing.
  ASSERT_TRUE(FailPoints::Instance()
                  .EnableFromSpec("disk.write_page=crash").ok());
  EXPECT_FALSE(db->store()->Checkpoint().ok());
  Kill(std::move(db), &acct, &audit);
  VerifyRecovery(dir.path(), result, 5);
}

TEST_F(CrashTortureTest, CrashEnteringBufferPoolFlush) {
  TempDir dir("ckpt-flush");
  ReactiveObject acct("Acct"), audit("Audit");
  std::unique_ptr<Database> db = OpenWorld(dir.path());
  Wire(db.get(), &acct, &audit);

  WorkloadResult result = RunWorkload(db.get(), &acct, 4);
  ASSERT_EQ(result.acked, 4);
  ASSERT_TRUE(FailPoints::Instance()
                  .EnableFromSpec("bufferpool.flush_all=crash").ok());
  EXPECT_FALSE(db->store()->Checkpoint().ok());
  Kill(std::move(db), &acct, &audit);
  VerifyRecovery(dir.path(), result, 4);
}

TEST_F(CrashTortureTest, CrashAtCheckpointEntry) {
  // Dies at the very first step of the fuzzy checkpoint, before the stable
  // LSN is captured: the heap and the WAL are both exactly as the workload
  // left them, so recovery replays everything.
  TempDir dir("ckpt-entry");
  ReactiveObject acct("Acct"), audit("Audit");
  std::unique_ptr<Database> db = OpenWorld(dir.path());
  Wire(db.get(), &acct, &audit);

  WorkloadResult result = RunWorkload(db.get(), &acct, 5);
  ASSERT_EQ(result.acked, 5);
  ASSERT_TRUE(
      FailPoints::Instance().EnableFromSpec("store.checkpoint=crash").ok());
  EXPECT_FALSE(db->store()->Checkpoint().ok());
  Kill(std::move(db), &acct, &audit);
  VerifyRecovery(dir.path(), result, 5);
}

TEST_F(CrashTortureTest, CrashAtWalTruncateRenameStep) {
  // Dies inside TruncateTo after the truncated copy is fully written but
  // before the atomic rename swaps it in: the old log must still be the
  // one recovery reads (the tmp file is garbage to be ignored).
  TempDir dir("ckpt-rename");
  ReactiveObject acct("Acct"), audit("Audit");
  std::unique_ptr<Database> db = OpenWorld(dir.path());
  Wire(db.get(), &acct, &audit);

  WorkloadResult result = RunWorkload(db.get(), &acct, 6);
  ASSERT_EQ(result.acked, 6);
  ASSERT_TRUE(FailPoints::Instance()
                  .EnableFromSpec("wal.truncate.rename=crash").ok());
  EXPECT_FALSE(db->store()->Checkpoint().ok());
  Kill(std::move(db), &acct, &audit);
  VerifyRecovery(dir.path(), result, 6);
}

TEST_F(CrashTortureTest, CrashDuringHistorySegmentRotate) {
  // The history spill path dies while sealing a segment. Spill failures
  // must never fail a raise (history is a cache), and the reopened store
  // serves whatever prefix survived.
  TempDir dir("hist-rotate");
  Database::Options opts;
  opts.dir = dir.path();
  opts.occurrence_log_capacity = 4;
  opts.history_spill = true;
  opts.history_segment_bytes = 64;  // Rotate every record or two.
  auto opened = Database::Open(opts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<Database> db = std::move(opened).value();
  ASSERT_TRUE(db->RegisterClass(
      ClassBuilder("Acct").Reactive()
          .Method("Set", {.end = true}).Build()).ok());
  ReactiveObject acct("Acct");
  ASSERT_TRUE(db->RegisterLiveObject(&acct).ok());

  for (int i = 1; i <= 10; ++i) {
    acct.RaiseEvent("Set", EventModifier::kEnd, {Value(int64_t{i})});
  }
  ASSERT_TRUE(FailPoints::Instance()
                  .EnableFromSpec("histlog.rotate=crash").ok());
  // Raises keep succeeding even though every spill now fails.
  for (int i = 11; i <= 20; ++i) {
    acct.RaiseEvent("Set", EventModifier::kEnd, {Value(int64_t{i})});
  }
  EXPECT_EQ(db->metrics()->counter("events.occurrences")->Value(), 20u);
  db->UnregisterLiveObject(&acct).ok();
  db->Close().ok();
  db.reset();
  FailPoints::Instance().Reset();

  // Reopen: the store recovers (possibly truncating a torn tail) and the
  // surviving history is a clean prefix of what was spilled.
  opened = Database::Open(opts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  db = std::move(opened).value();
  std::vector<EventOccurrence> got;
  ASSERT_TRUE(db->HistoryScan({}, &got).ok());
  EXPECT_LE(got.size(), 16u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].params[0].AsInt(),
              static_cast<int64_t>(i + 1));
  }
  ASSERT_TRUE(db->Close().ok());
}

// --- Rule-scheduling kills. -------------------------------------------------

TEST_F(CrashTortureTest, DeferredRuleFaultAbortsOnlyThatTransaction) {
  // Not a crash: the deferred rule work of commit 3 fails with Aborted.
  // That transaction rolls back; the ones before and after commit fine.
  TempDir dir("deferred");
  ReactiveObject acct("Acct"), audit("Audit");
  std::unique_ptr<Database> db = OpenWorld(dir.path());
  Wire(db.get(), &acct, &audit);

  ASSERT_TRUE(FailPoints::Instance()
                  .EnableFromSpec("scheduler.deferred=aborted@hit(3)").ok());
  WorkloadResult result;
  int failures = 0;
  for (int i = 1; i <= 6; ++i) {
    ++result.attempted;
    Status s = db->WithTransaction([&](Transaction* txn) {
      MethodEventScope scope(&acct, "Set", {Value(int64_t{i})});
      acct.SetAttr(txn, "bal", Value(int64_t{i}));
      return db->Persist(txn, &acct);
    });
    if (s.ok()) {
      result.acked = i;
    } else {
      ++failures;
      EXPECT_TRUE(s.IsAborted()) << s.ToString();
      // The abort rolled the in-memory attribute back.
      EXPECT_EQ(acct.GetAttr("bal"), Value(int64_t{i - 1}));
    }
  }
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(result.acked, 6);
  Kill(std::move(db), &acct, &audit);
  VerifyRecovery(dir.path(), result, 6);
}

TEST_F(CrashTortureTest, CrashInsideDeferredRuleWork) {
  // The simulated process dies while running deferred rule work at the
  // commit point of transaction 2 — before its WAL records exist.
  Torture("deferred-crash", "scheduler.deferred=crash@hit(2)", 10, 1);
}

// --- Crash during recovery itself (replay idempotence). ---------------------

TEST_F(CrashTortureTest, RecoveryIsIdempotentUnderCrashReplayCrash) {
  TempDir dir("replay");
  ReactiveObject acct("Acct"), audit("Audit");
  WorkloadResult result;
  {
    std::unique_ptr<Database> db = OpenWorld(dir.path());
    Wire(db.get(), &acct, &audit);
    result = RunWorkload(db.get(), &acct, 6);
    ASSERT_EQ(result.acked, 6);
    // Crash with all six commits in the WAL and (at least some) heap state
    // unflushed: reopen will have real replay work to do. The checkpoint
    // dies at its WAL-truncation step, after the flush — the log survives.
    ASSERT_TRUE(
        FailPoints::Instance().EnableFromSpec("wal.truncate=crash").ok());
    EXPECT_FALSE(db->store()->Checkpoint().ok());
    Kill(std::move(db), &acct, &audit);
  }

  // First reopen attempt: die in the middle of replaying the WAL.
  ASSERT_TRUE(FailPoints::Instance()
                  .EnableFromSpec("store.apply_put=crash@hit(5)").ok());
  {
    auto failed = Database::Open({.dir = dir.path()});
    EXPECT_FALSE(failed.ok());
  }
  FailPoints::Instance().Reset();

  // Second reopen attempt: die again, later in the replay.
  ASSERT_TRUE(FailPoints::Instance()
                  .EnableFromSpec("store.apply_put=crash@hit(9)").ok());
  {
    auto failed = Database::Open({.dir = dir.path()});
    EXPECT_FALSE(failed.ok());
  }
  FailPoints::Instance().Reset();

  // Third time through, replay runs to completion over a heap that already
  // absorbed two partial replays — redo must be idempotent.
  VerifyRecovery(dir.path(), result, 6);
}

TEST_F(CrashTortureTest, CrashBeforeReplayLeavesWalIntact) {
  TempDir dir("pre-replay");
  ReactiveObject acct("Acct"), audit("Audit");
  WorkloadResult result;
  {
    std::unique_ptr<Database> db = OpenWorld(dir.path());
    Wire(db.get(), &acct, &audit);
    // Commit 4's sync crashes: three durable commits, one lost tail.
    ASSERT_TRUE(
        FailPoints::Instance().EnableFromSpec("wal.sync=crash@hit(4)").ok());
    result = RunWorkload(db.get(), &acct, 10);
    ASSERT_EQ(result.acked, 3);
    Kill(std::move(db), &acct, &audit);
  }
  // Die right at the recovery entry point — before anything is applied.
  ASSERT_TRUE(
      FailPoints::Instance().EnableFromSpec("store.recover=crash").ok());
  {
    auto failed = Database::Open({.dir = dir.path()});
    EXPECT_FALSE(failed.ok());
  }
  FailPoints::Instance().Reset();
  VerifyRecovery(dir.path(), result, 3);
}

// --- Randomized sweep: seeded probability across many points. ---------------

TEST_F(CrashTortureTest, SeededRandomKillSweep) {
  // Each seed arms low-probability crash points across layers and runs the
  // workload until something fires (or it survives). Whatever happens, the
  // recovery invariants must hold. Seeds are fixed: failures reproduce.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    FailPoints::Instance().Reset();
    TempDir dir("sweep" + std::to_string(seed));
    ReactiveObject acct("Acct"), audit("Audit");
    std::unique_ptr<Database> db = OpenWorld(dir.path());
    Wire(db.get(), &acct, &audit);

    std::string spec =
        "wal.append=crash@prob(0.01," + std::to_string(seed) + ");" +
        "wal.sync=crash@prob(0.02," + std::to_string(seed + 100) + ");" +
        "txn.commit.begin=crash@prob(0.02," + std::to_string(seed + 200) +
        ");" +
        "store.apply_put=crash@prob(0.01," + std::to_string(seed + 300) +
        ")";
    ASSERT_TRUE(FailPoints::Instance().EnableFromSpec(spec).ok());
    WorkloadResult result = RunWorkload(db.get(), &acct, 40);
    bool crashed = FailPoints::Instance().crashed();
    Kill(std::move(db), &acct, &audit);

    SCOPED_TRACE("seed " + std::to_string(seed) +
                 (crashed ? " crashed" : " survived"));
    VerifyRecovery(dir.path(), result);
    acct_oid_ = kInvalidOid;
    audit_oid_ = kInvalidOid;
  }
}

}  // namespace
}  // namespace sentinel
