// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// The persisted form of event nodes and the operators' wiring of their
// children: golden bytes for one node of every event class, detection by
// operators whose children alias one another, parameter contexts across a
// reload, damaged graphs, and seeded mutations of stored nodes.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "events/detector.h"

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

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

std::string StateOf(const Event& node) {
  Encoder enc;
  node.SerializeState(&enc);
  return enc.Release();
}

// --- Golden bytes ------------------------------------------------------------

// One node of each of the ten event classes over leaves with fixed oids
// 0x11, 0x22 and 0x33. The four parameter contexts are spread over the
// operators that take one. A change to any of these strings changes what
// existing databases hold on disk.
TEST(EventGoldenTest, EveryClassEncodesToItsGoldenBytes) {
  auto leaf = std::make_shared<PrimitiveEvent>(
      EventSignature::Parse("end A::M").value());
  leaf->RestrictToInstance(0x77);
  leaf->set_exact_class(true);
  EventPtr c1 = leaf;
  EventPtr c2 = Prim("begin B::N");
  EventPtr c3 = Prim("end C::P");
  c1->set_oid(0x11);
  c2->set_oid(0x22);
  c3->set_oid(0x33);

  const std::vector<std::pair<EventPtr, std::string>> golden = {
      {c1,
       "0a000000656e6420413a3a4d2829"
       "7700000000000000"
       "01"},
      {And(c1, c2, ParameterContext::kRecent),
       "00"
       "1100000000000000"
       "2200000000000000"},
      {Or(c2, c1, ParameterContext::kChronicle),
       "01"
       "2200000000000000"
       "1100000000000000"},
      {Seq(c1, c3, ParameterContext::kContinuous),
       "02"
       "1100000000000000"
       "3300000000000000"},
      {Any(2, {c1, c2, c3}),
       "02000000"
       "03000000"
       "1100000000000000"
       "2200000000000000"
       "3300000000000000"},
      {Not(c1, c2, c3, ParameterContext::kCumulative),
       "03"
       "1100000000000000"
       "2200000000000000"
       "3300000000000000"},
      {Aperiodic(c3, c2, c1),
       "3300000000000000"
       "2200000000000000"
       "1100000000000000"},
      {Periodic(c1, 12345, c3),
       "3930000000000000"
       "1100000000000000"
       "3300000000000000"},
      {Plus(c2, 777),
       "0903000000000000"
       "2200000000000000"},
      {Every(4, c3),
       "04000000"
       "3300000000000000"},
  };
  std::vector<std::string> classes;
  for (const auto& [node, hex] : golden) {
    SCOPED_TRACE(node->class_name());
    classes.push_back(node->class_name());
    EXPECT_EQ(Hex(StateOf(*node)), hex);
  }
  EXPECT_EQ(classes, (std::vector<std::string>{
                         "PrimitiveEvent", "Conjunction", "Disjunction",
                         "Sequence", "AnyEvent", "NotEvent", "AperiodicEvent",
                         "PeriodicEvent", "PlusEvent", "EveryEvent"}));
}

// --- Children that alias one another -----------------------------------------

/// Feeds `stream` (A or B per character) through `root`, the i-th
/// occurrence at 1000 * (i + 1) micros, then advances time to `until`.
/// Renders each detection as its constituents joined by '+': a stream
/// position for a fed occurrence, "t<micros>" for a timer firing.
std::string Detections(const EventPtr& root, const std::string& stream,
                       int64_t until) {
  class Collector : public EventListener {
   public:
    void OnEvent(Event*, const EventDetection& det) override {
      detections.push_back(det);
    }
    std::vector<EventDetection> detections;
  } collector;
  root->AddListener(&collector);
  std::map<uint64_t, size_t> position;  // seq -> stream position
  for (size_t i = 0; i < stream.size(); ++i) {
    EventOccurrence occ = stream[i] == 'A' ? MakeOccurrence(1, "A", "M")
                                           : MakeOccurrence(2, "B", "N");
    occ.timestamp.micros = 1000 * static_cast<int64_t>(i + 1);
    position[occ.timestamp.seq] = i;
    root->Notify(occ);
  }
  root->AdvanceTime(Timestamp{until, 0});
  root->RemoveListener(&collector);
  std::string out;
  for (const EventDetection& det : collector.detections) {
    if (!out.empty()) out += ' ';
    for (size_t k = 0; k < det.constituents.size(); ++k) {
      const EventOccurrence& occ = det.constituents[k];
      if (k > 0) out += '+';
      if (occ.class_name == "__timer__") {
        out.append("t").append(std::to_string(occ.timestamp.micros));
      } else {
        auto it = position.find(occ.timestamp.seq);
        out += it == position.end() ? "?" : std::to_string(it->second);
      }
    }
  }
  return out;
}

// Operators given the same child object twice: which role the shared child
// plays decides every detection below. Each case gets its own leaves.
TEST(AliasedChildrenTest, SharedChildPlaysOneRole) {
  const std::string stream = "ABAABBAB";
  struct Case {
    const char* name;
    std::function<EventPtr(EventPtr a, EventPtr b)> build;
    std::string expected;
  };
  const std::vector<Case> cases = {
      {"Not(a,b,b)", [](EventPtr a, EventPtr b) { return Not(a, b, b); },
       ""},
      {"Not(a,a,b)", [](EventPtr a, EventPtr b) { return Not(a, a, b); },
       "0+1 2+4 3+5 6+7"},
      {"Aperiodic(a,b,b)",
       [](EventPtr a, EventPtr b) { return Aperiodic(a, b, b); }, ""},
      {"Aperiodic(a,a,b)",
       [](EventPtr a, EventPtr b) { return Aperiodic(a, a, b); }, ""},
      {"Periodic(a,t,a)",
       [](EventPtr a, EventPtr) { return Periodic(a, 3000, a); },
       "0+t4000 0+t7000 0+t10000 2+t6000 2+t9000 3+t7000 3+t10000 "
       "6+t10000"},
      {"Any(2,{a,a,b})",
       [](EventPtr a, EventPtr b) { return Any(2, {a, a, b}); },
       "0+1 2+4 3+5 6+7"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    EXPECT_EQ(Detections(c.build(Prim("end A::M"), Prim("end B::N")),
                         stream, 10000),
              c.expected);
  }
}

// --- Graphs through the store ------------------------------------------------

class EventGraphStoreTest : public ::testing::Test {
 protected:
  EventGraphStoreTest() : dir_("event_graph") {
    EXPECT_TRUE(store_.Open(dir_.path()).ok());
  }

  Status Save(EventDetector* detector) {
    auto txn = store_.txns()->Begin();
    SENTINEL_RETURN_IF_ERROR(detector->SaveAll(&store_, txn.get()));
    return store_.txns()->Commit(txn.get());
  }

  /// Saves `root` as the only named event of a fresh detector.
  Status SaveOne(const EventPtr& root) {
    EventDetector detector(metrics_);
    SENTINEL_RETURN_IF_ERROR(detector.RegisterEvent("root", root));
    return Save(&detector);
  }

  /// Overwrites the stored state of `oid`, keeping its class.
  Status Rewrite(Oid oid, const std::string& state) {
    std::string class_name, old;
    SENTINEL_RETURN_IF_ERROR(store_.Get(nullptr, oid, &class_name, &old));
    auto txn = store_.txns()->Begin();
    SENTINEL_RETURN_IF_ERROR(store_.Put(txn.get(), oid, class_name, state));
    return store_.txns()->Commit(txn.get());
  }

  Status Erase(Oid oid) {
    auto txn = store_.txns()->Begin();
    SENTINEL_RETURN_IF_ERROR(store_.Delete(txn.get(), oid));
    return store_.txns()->Commit(txn.get());
  }

  std::string Stored(Oid oid) {
    std::string class_name, state;
    EXPECT_TRUE(store_.Get(nullptr, oid, &class_name, &state).ok());
    return state;
  }

  TempDir dir_;
  MetricsRegistry metrics_;
  ObjectStore store_{metrics_};
};

// A restored Conjunction, Sequence or Not pairs under its own parameter
// context: fed A, A, B, B it detects exactly what the graph it was saved
// from detects.
TEST_F(EventGraphStoreTest, ParameterContextSurvivesReload) {
  using Build = std::function<EventPtr(ParameterContext)>;
  const std::vector<std::pair<const char*, Build>> ops = {
      {"And",
       [](ParameterContext ctx) {
         return And(Prim("end A::M"), Prim("end B::N"), ctx);
       }},
      {"Seq",
       [](ParameterContext ctx) {
         return Seq(Prim("end A::M"), Prim("end B::N"), ctx);
       }},
      {"Not",
       [](ParameterContext ctx) {
         return Not(Prim("end A::M"), Prim("end X::F"), Prim("end B::N"),
                    ctx);
       }},
  };
  for (const auto& [name, build] : ops) {
    for (ParameterContext ctx :
         {ParameterContext::kRecent, ParameterContext::kChronicle,
          ParameterContext::kContinuous, ParameterContext::kCumulative}) {
      SCOPED_TRACE(std::string(name).append(" ").append(ToString(ctx)));
      ASSERT_TRUE(SaveOne(build(ctx)).ok());
      EventDetector restored(metrics_);
      ASSERT_TRUE(restored.LoadAll(&store_).ok());
      EXPECT_EQ(Detections(restored.GetEvent("root").value(), "AABB", 0),
                Detections(build(ctx), "AABB", 0));
    }
  }
}

// Each of the nine operators over a child whose stored node is gone: the
// load is Corruption and leaves the registry empty.
TEST_F(EventGraphStoreTest, MissingChildIsCorruption) {
  const std::vector<std::function<EventPtr(EventPtr lost)>> ops = {
      [](EventPtr lost) { return And(Prim("end A::M"), lost); },
      [](EventPtr lost) { return Or(lost, Prim("end A::M")); },
      [](EventPtr lost) { return Seq(Prim("end A::M"), lost); },
      [](EventPtr lost) {
        return Any(2, {Prim("end A::M"), Prim("end B::N"), lost});
      },
      [](EventPtr lost) {
        return Not(Prim("end A::M"), lost, Prim("end B::N"));
      },
      [](EventPtr lost) {
        return Aperiodic(Prim("end A::M"), Prim("end B::N"), lost);
      },
      [](EventPtr lost) { return Periodic(lost, 100, Prim("end A::M")); },
      [](EventPtr lost) { return Plus(lost, 100); },
      [](EventPtr lost) { return Every(3, lost); },
  };
  for (const auto& build : ops) {
    EventPtr lost = Prim("end Z::Gone");
    EventPtr root = build(lost);
    SCOPED_TRACE(root->class_name());
    ASSERT_TRUE(SaveOne(root).ok());
    {
      EventDetector whole(metrics_);
      ASSERT_TRUE(whole.LoadAll(&store_).ok());
    }
    ASSERT_TRUE(Erase(lost->oid()).ok());
    EventDetector restored(metrics_);
    Status s = restored.LoadAll(&store_);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_EQ(restored.event_count(), 0u);
    // The next operator's graph must load on its own.
    ASSERT_TRUE(Erase(root->oid()).ok());
  }
}

// A child oid that leads back to its parent, directly or through another
// operator, is Corruption; so are bytes after a node's last field.
TEST_F(EventGraphStoreTest, CyclesAndTrailingBytesAreCorruption) {
  EventPtr a = Prim("end A::M");
  EventPtr inner = Every(2, Prim("end B::N"));
  auto outer = std::make_shared<Disjunction>(a, inner);
  ASSERT_TRUE(SaveOne(outer).ok());
  const std::string outer_state = Stored(outer->oid());
  const std::string inner_state = Stored(inner->oid());

  auto load = [&] {
    EventDetector restored(metrics_);
    Status s = restored.LoadAll(&store_);
    if (!s.ok()) {
      EXPECT_EQ(restored.event_count(), 0u);
    }
    return s;
  };
  auto with_child = [](const std::string& state, size_t at, Oid oid) {
    std::string out = state;
    out.replace(at, sizeof(oid), reinterpret_cast<const char*>(&oid),
                sizeof(oid));
    return out;
  };
  {
    SCOPED_TRACE("Or whose right child is itself");
    ASSERT_TRUE(Rewrite(outer->oid(),
                        with_child(outer_state, 1 + 8, outer->oid()))
                    .ok());
    Status s = load();
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  }
  {
    SCOPED_TRACE("Every whose child is the Or above it");
    ASSERT_TRUE(Rewrite(outer->oid(), outer_state).ok());
    ASSERT_TRUE(
        Rewrite(inner->oid(), with_child(inner_state, 4, outer->oid())).ok());
    Status s = load();
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  }
  {
    SCOPED_TRACE("a byte after the Every's last field");
    ASSERT_TRUE(Rewrite(inner->oid(), inner_state + '\x01').ok());
    Status s = load();
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  }
  ASSERT_TRUE(Rewrite(inner->oid(), inner_state).ok());
  EXPECT_TRUE(load().ok());
}

/// Eight occurrences cycling through A::M, B::N and C::P, 1 ms apart,
/// then time advanced past the last of them.
void Feed(const EventPtr& root) {
  const char* kClasses[] = {"A", "B", "C"};
  const char* kMethods[] = {"M", "N", "P"};
  for (int i = 0; i < 8; ++i) {
    EventOccurrence occ = MakeOccurrence(1, kClasses[i % 3], kMethods[i % 3]);
    occ.timestamp.micros = 1000 * (i + 1);
    root->Notify(occ);
  }
  root->AdvanceTime(Timestamp{9000, 0});
}

// Seeded hostile nodes: mutations of the stored state of one node of every
// event class and of the name index. LoadAll returns a Status without
// crashing or throwing; when it accepts the bytes, every named root still
// describes itself and detects over a fixed stream. Each run takes the next
// seed from a per-process counter, so --gtest_repeat covers more of them.
TEST_F(EventGraphStoreTest, MutatedNodesFailOrStillDetect) {
  static uint32_t iteration = 0;
  const uint32_t seed = iteration++;
  SCOPED_TRACE(std::string("seed ").append(std::to_string(seed)));
  std::mt19937 rng(seed);
  auto below = [&](size_t n) {
    return static_cast<size_t>(std::uniform_int_distribution<size_t>(
        0, n - 1)(rng));
  };

  EventPtr a = Prim("end A::M");
  EventPtr b = Prim("end B::N");
  EventPtr c = Prim("end C::P");
  const std::vector<std::pair<const char*, EventPtr>> roots = {
      {"and", And(a, b, ParameterContext::kRecent)},
      {"or", Or(b, c)},
      {"seq", Seq(a, c, ParameterContext::kCumulative)},
      {"any", Any(2, {a, b, c})},
      {"not", Not(a, b, c, ParameterContext::kContinuous)},
      {"aperiodic", Aperiodic(a, b, c)},
      {"periodic", Periodic(a, 1500, c)},
      {"plus", Plus(b, 2500)},
      {"every", Every(2, c)},
      {"leaf", a},
  };
  EventDetector detector(metrics_);
  for (const auto& [name, root] : roots) {
    ASSERT_TRUE(detector.RegisterEvent(name, root).ok());
  }
  ASSERT_TRUE(Save(&detector).ok());

  std::vector<Oid> targets = {kEventIndexOid};
  for (const auto& [name, root] : roots) targets.push_back(root->oid());
  for (Oid target : targets) {
    SCOPED_TRACE(OidToString(target));
    const std::string original = Stored(target);
    for (int round = 0; round < 200; ++round) {
      std::string state = original;
      auto put_u32 = [&](uint32_t v) {
        if (state.size() < 4) return;
        state.replace(below(state.size() - 3), 4,
                      reinterpret_cast<const char*>(&v), 4);
      };
      switch (below(5)) {
        case 0:  // Truncation.
          state.resize(below(state.size()));
          break;
        case 1:  // One to three flipped bytes.
          for (size_t i = 1 + below(3); i > 0; --i) {
            state[below(state.size())] ^= static_cast<char>(1 + below(255));
          }
          break;
        case 2:  // A u32 (a count, a length) claiming everything.
          put_u32(0xFFFFFFFFu);
          break;
        case 3:  // A random u32.
          put_u32(static_cast<uint32_t>(rng()));
          break;
        default:  // Appended bytes.
          for (size_t i = 1 + below(8); i > 0; --i) {
            state.push_back(static_cast<char>(below(256)));
          }
          break;
      }
      ASSERT_TRUE(Rewrite(target, state).ok());
      EventDetector restored(metrics_);
      Status s = Status::Internal("not loaded");
      ASSERT_NO_THROW(s = restored.LoadAll(&store_)) << "round " << round;
      if (!s.ok()) continue;
      for (const std::string& name : restored.EventNames()) {
        EventPtr root = restored.GetEvent(name).value();
        EXPECT_FALSE(root->Describe().empty());
        Feed(root);
      }
    }
    ASSERT_TRUE(Rewrite(target, original).ok());
  }
}

}  // namespace
}  // namespace sentinel
