// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "events/detector.h"

#include <gtest/gtest.h>

#include "../test_util.h"

namespace sentinel {
namespace {

using testing_util::MakeOccurrence;
using testing_util::TempDir;

EventPtr Prim(const std::string& text) {
  auto result = PrimitiveEvent::Create(text);
  EXPECT_TRUE(result.ok());
  return result.value();
}

TEST(DetectorTest, RegisterLookupUnregister) {
  MetricsRegistry metrics;
  EventDetector detector(metrics);
  EventPtr e = Prim("end A::M");
  ASSERT_TRUE(detector.RegisterEvent("e", e).ok());
  EXPECT_TRUE(detector.RegisterEvent("e", e).IsAlreadyExists());
  EXPECT_TRUE(detector.RegisterEvent("null", nullptr).IsInvalidArgument());
  auto fetched = detector.GetEvent("e");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched.value().get(), e.get());
  EXPECT_EQ(detector.EventNames(), (std::vector<std::string>{"e"}));
  ASSERT_TRUE(detector.UnregisterEvent("e").ok());
  EXPECT_TRUE(detector.UnregisterEvent("e").IsNotFound());
  EXPECT_TRUE(detector.GetEvent("e").status().IsNotFound());
}

TEST(DetectorTest, OccurrenceLogTracksCountsAndCaps) {
  MetricsRegistry metrics;
  EventDetector detector(metrics);
  detector.set_log_capacity(3);
  for (int i = 0; i < 5; ++i) {
    detector.RecordOccurrence(MakeOccurrence(1, "A", "M"));
  }
  detector.RecordOccurrence(MakeOccurrence(2, "B", "N"));
  EXPECT_EQ(metrics.counter("events.occurrences")->Value(), 6u);
  EXPECT_EQ(detector.occurrence_log().size(), 3u);  // Capped.
}

TEST(DetectorTest, TrimmedCounterTracksEvictions) {
  MetricsRegistry metrics;
  EventDetector detector(metrics);
  const Counter* trimmed = metrics.counter("events.log_trimmed");
  detector.set_log_capacity(3);
  EXPECT_EQ(detector.log_capacity(), 3u);
  EXPECT_EQ(trimmed->Value(), 0u);
  for (int i = 0; i < 5; ++i) {
    detector.RecordOccurrence(MakeOccurrence(1, "A", "M"));
  }
  EXPECT_EQ(trimmed->Value(), 2u);
  // Shrinking the cap trims immediately, oldest first.
  detector.set_log_capacity(1);
  EXPECT_EQ(detector.occurrence_log().size(), 1u);
  EXPECT_EQ(trimmed->Value(), 4u);
  // Growing it never resurrects anything.
  detector.set_log_capacity(100);
  EXPECT_EQ(detector.occurrence_log().size(), 1u);
  EXPECT_EQ(trimmed->Value(), 4u);
}

TEST(DetectorTest, AdvanceTimeReachesRegisteredRoots) {
  MetricsRegistry metrics;
  EventDetector detector(metrics);
  EventPtr plus = Plus(Prim("end A::M"), 100);
  ASSERT_TRUE(detector.RegisterEvent("delayed", plus).ok());

  class Collector : public EventListener {
   public:
    void OnEvent(Event*, const EventDetection&) override { ++count; }
    int count = 0;
  } collector;
  plus->AddListener(&collector);

  EventOccurrence occ = MakeOccurrence(1, "A", "M");
  occ.timestamp.micros = 1000;
  plus->Notify(occ);
  detector.AdvanceTime(Timestamp{1100, 0});
  EXPECT_EQ(collector.count, 1);
}

TEST(DetectorTest, FindByOidSearchesNamedTrees) {
  MetricsRegistry metrics;
  EventDetector detector(metrics);
  EventPtr e = Prim("end A::M");
  e->set_oid(4242);
  ASSERT_TRUE(detector.RegisterEvent("e", e).ok());
  auto found = detector.FindByOid(4242);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value().get(), e.get());
  EXPECT_TRUE(detector.FindByOid(999).status().IsNotFound());
  EXPECT_TRUE(detector.FindByOid(kInvalidOid).status().IsInvalidArgument());
}

TEST(DetectorTest, UnregisterEvictsOidIndex) {
  MetricsRegistry metrics;
  EventDetector detector(metrics);
  EventPtr e = Prim("end A::M");
  e->set_oid(77);
  ASSERT_TRUE(detector.RegisterEvent("e", e).ok());
  ASSERT_TRUE(detector.FindByOid(77).ok());
  ASSERT_TRUE(detector.UnregisterEvent("e").ok());
  // The index entry must not outlive the registry entry, or FindByOid
  // would resurrect events the user deleted.
  EXPECT_TRUE(detector.FindByOid(77).status().IsNotFound());
}

TEST(DetectorTest, UnregisterKeepsAliasedOidIndexed) {
  MetricsRegistry metrics;
  EventDetector detector(metrics);
  EventPtr e = Prim("end A::M");
  e->set_oid(77);
  ASSERT_TRUE(detector.RegisterEvent("a", e).ok());
  ASSERT_TRUE(detector.RegisterEvent("b", e).ok());
  ASSERT_TRUE(detector.UnregisterEvent("a").ok());
  EXPECT_TRUE(detector.FindByOid(77).ok());  // "b" still names it.
  ASSERT_TRUE(detector.UnregisterEvent("b").ok());
  EXPECT_TRUE(detector.FindByOid(77).status().IsNotFound());
}

class DetectorPersistenceTest : public ::testing::Test {
 protected:
  DetectorPersistenceTest() : dir_("detector") {
    EXPECT_TRUE(store_.Open(dir_.path()).ok());
  }

  Status SaveInTxn(EventDetector* detector) {
    auto txn = store_.txns()->Begin();
    SENTINEL_RETURN_IF_ERROR(detector->SaveAll(&store_, txn.get()));
    return store_.txns()->Commit(txn.get());
  }

  TempDir dir_;
  MetricsRegistry metrics_;
  ObjectStore store_{metrics_};
};

TEST_F(DetectorPersistenceTest, SaveAndLoadComplexGraph) {
  EventDetector detector(metrics_);
  // Seq(And(p1, p2), Or(p3, p1)) — shares p1 across two operators.
  EventPtr p1 = Prim("end A::M");
  EventPtr p2 = Prim("end B::N");
  EventPtr p3 = Prim("end C::P");
  EventPtr tree = Seq(And(p1, p2, ParameterContext::kCumulative),
                      Or(p3, p1));
  ASSERT_TRUE(detector.RegisterEvent("tree", tree).ok());
  ASSERT_TRUE(detector.RegisterEvent("p1-alias", p1).ok());
  ASSERT_TRUE(SaveInTxn(&detector).ok());

  EventDetector restored(metrics_);
  ASSERT_TRUE(restored.LoadAll(&store_).ok());
  EXPECT_EQ(restored.event_count(), 2u);

  auto root = restored.GetEvent("tree");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root.value()->Describe(),
            "Seq(And(end A::M, end B::N), Or(end C::P, end A::M))");
  // Shared node is restored as one object, not duplicated.
  auto alias = restored.GetEvent("p1-alias");
  ASSERT_TRUE(alias.ok());
  auto* seq = dynamic_cast<Sequence*>(root.value().get());
  ASSERT_NE(seq, nullptr);
  auto* conj = dynamic_cast<Conjunction*>(seq->left());
  ASSERT_NE(conj, nullptr);
  EXPECT_EQ(conj->left(), alias.value().get());
  EXPECT_EQ(conj->context(), ParameterContext::kCumulative);

  // The restored graph actually detects.
  class Collector : public EventListener {
   public:
    void OnEvent(Event*, const EventDetection& det) override {
      detections.push_back(det);
    }
    std::vector<EventDetection> detections;
  } collector;
  root.value()->AddListener(&collector);
  root.value()->Notify(MakeOccurrence(1, "A", "M"));
  root.value()->Notify(MakeOccurrence(2, "B", "N"));  // And completes.
  root.value()->Notify(MakeOccurrence(3, "C", "P"));  // Seq terminates.
  ASSERT_EQ(collector.detections.size(), 1u);
}

TEST_F(DetectorPersistenceTest, SnoopOperatorsRoundTrip) {
  EventDetector detector(metrics_);
  EventPtr any = Any(2, {Prim("end A::M"), Prim("end B::N"),
                         Prim("end C::P")});
  EventPtr notev = Not(Prim("end D::Q"), Prim("end X::F"), Prim("end E::R"));
  EventPtr periodic = Periodic(Prim("end F::S"), 12345, Prim("end G::T"));
  EventPtr plus = Plus(Prim("end H::U"), 777);
  EventPtr aperiodic =
      Aperiodic(Prim("end I::V"), Prim("end J::W"), Prim("end K::X"));
  EventPtr every = Every(5, Prim("end L::Y"));
  ASSERT_TRUE(detector.RegisterEvent("any", any).ok());
  ASSERT_TRUE(detector.RegisterEvent("not", notev).ok());
  ASSERT_TRUE(detector.RegisterEvent("periodic", periodic).ok());
  ASSERT_TRUE(detector.RegisterEvent("plus", plus).ok());
  ASSERT_TRUE(detector.RegisterEvent("aperiodic", aperiodic).ok());
  ASSERT_TRUE(detector.RegisterEvent("every", every).ok());
  ASSERT_TRUE(SaveInTxn(&detector).ok());

  EventDetector restored(metrics_);
  ASSERT_TRUE(restored.LoadAll(&store_).ok());
  EXPECT_EQ(restored.event_count(), 6u);
  EXPECT_EQ(restored.GetEvent("any").value()->Describe(),
            "Any(2, end A::M, end B::N, end C::P)");
  EXPECT_EQ(restored.GetEvent("not").value()->Describe(),
            "Not(end D::Q, !end X::F, end E::R)");
  auto* per = dynamic_cast<PeriodicEvent*>(
      restored.GetEvent("periodic").value().get());
  ASSERT_NE(per, nullptr);
  EXPECT_EQ(per->period_micros(), 12345);
  auto* pl = dynamic_cast<PlusEvent*>(restored.GetEvent("plus").value().get());
  ASSERT_NE(pl, nullptr);
  EXPECT_EQ(pl->delta_micros(), 777);
  EXPECT_EQ(restored.GetEvent("aperiodic").value()->Describe(),
            "Aperiodic(end I::V, end J::W, end K::X)");
  auto* ev =
      dynamic_cast<EveryEvent*>(restored.GetEvent("every").value().get());
  ASSERT_NE(ev, nullptr);
  EXPECT_EQ(ev->n(), 5u);
  EXPECT_EQ(ev->Describe(), "Every(5, end L::Y)");
}

TEST_F(DetectorPersistenceTest, SaveIsIdempotentAcrossCalls) {
  EventDetector detector(metrics_);
  EventPtr e = Prim("end A::M");
  ASSERT_TRUE(detector.RegisterEvent("e", e).ok());
  ASSERT_TRUE(SaveInTxn(&detector).ok());
  Oid first_oid = e->oid();
  ASSERT_TRUE(SaveInTxn(&detector).ok());  // Second save: same oid, update.
  EXPECT_EQ(e->oid(), first_oid);
  EventDetector restored(metrics_);
  ASSERT_TRUE(restored.LoadAll(&store_).ok());
  EXPECT_EQ(restored.event_count(), 1u);
}

TEST_F(DetectorPersistenceTest, LoadOnEmptyStoreIsOk) {
  EventDetector detector(metrics_);
  ASSERT_TRUE(detector.LoadAll(&store_).ok());
  EXPECT_EQ(detector.event_count(), 0u);
}

TEST_F(DetectorPersistenceTest, LoadAllRebuildsOidIndex) {
  EventDetector detector(metrics_);
  EventPtr left = Prim("end A::M");
  EventPtr right = Prim("end B::N");
  ASSERT_TRUE(detector.RegisterEvent("seq", Seq(left, right)).ok());
  ASSERT_TRUE(SaveInTxn(&detector).ok());
  Oid leaf_oid = left->oid();
  ASSERT_NE(leaf_oid, kInvalidOid);

  EventDetector restored(metrics_);
  ASSERT_TRUE(restored.LoadAll(&store_).ok());
  // Interior (non-root) nodes are findable by oid too — rules persist
  // child-event references as oids and resolve them through this path.
  auto found = restored.FindByOid(leaf_oid);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value()->Describe(), "end A::M");
}

TEST_F(DetectorPersistenceTest, LoadAllRejectsTrailingIndexGarbage) {
  EventDetector detector(metrics_);
  EventPtr e = Prim("end A::M");
  ASSERT_TRUE(detector.RegisterEvent("e", e).ok());
  ASSERT_TRUE(SaveInTxn(&detector).ok());

  // Rewrite the name index: valid content followed by stray bytes, as a
  // truncated count or spliced record would leave behind.
  Encoder index;
  index.PutU32(1);
  index.PutString("e");
  index.PutU64(e->oid());
  std::string bytes = index.Release();
  bytes += "\x07garbage";
  auto txn = store_.txns()->Begin();
  ASSERT_TRUE(
      store_.Put(txn.get(), kEventIndexOid, "__event_index__", bytes).ok());
  ASSERT_TRUE(store_.txns()->Commit(txn.get()).ok());

  EventDetector restored(metrics_);
  Status s = restored.LoadAll(&store_);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

}  // namespace
}  // namespace sentinel
