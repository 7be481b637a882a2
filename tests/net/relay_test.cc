// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Relay semantics: the server-side reactive objects the gateway makes for
// oids it has not seen. These pin what a remote raise means — which object
// it lands on, which rules it reaches and in what order — so the relay
// maps can change shape without changing behaviour. The differential test
// checks that raising through relays is indistinguishable from raising the
// same events on locally registered objects.
//
// The test thread reads what the worker wrote either through atomics and
// locks (rule actions' counters, live_object_count) or after Stop() has
// joined the worker, so every read is ordered after the raises it checks.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "test_util.h"

namespace sentinel {
namespace net {
namespace {

/// Counts deliveries without recording them (safe to read cross-thread).
class CountingConsumer : public Notifiable {
 public:
  void Notify(const EventOccurrence&) override { ++count; }
  std::atomic<uint64_t> count{0};
};

class RelayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tmp_ = std::make_unique<testing_util::TempDir>("relay");
    auto opened = Database::Open({.dir = tmp_->path()});
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db_ = std::move(opened).value();
    for (const char* name : {"Sensor", "Valve"}) {
      ASSERT_TRUE(db_->RegisterClass(ClassBuilder(name)
                                         .Reactive()
                                         .Method("Report", {.end = true})
                                         .Method("Alarm", {.end = true})
                                         .Build())
                      .ok());
    }
    server_ = std::make_unique<GatewayServer>(db_.get(), ServerOptions{});
    Status s = server_->Start();
    ASSERT_TRUE(s.ok()) << s.ToString();
    auto conn = Connection::Dial("127.0.0.1", server_->port());
    ASSERT_TRUE(conn.ok()) << conn.status().ToString();
    conn_ = std::move(conn).value();
    pub_ = std::make_unique<Publisher>(conn_.get());
  }

  void TearDown() override {
    pub_.reset();
    conn_.reset();
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    db_->Close().ok();
    db_.reset();
    tmp_.reset();
  }

  /// A class-level immediate rule on `signature` whose action bumps
  /// `*count` and appends the rule's name to `order_`.
  void AddRule(const std::string& name, const std::string& signature,
               std::atomic<uint64_t>* count) {
    auto event = db_->CreatePrimitiveEvent(signature);
    ASSERT_TRUE(event.ok()) << event.status().ToString();
    RuleSpec spec;
    spec.name = name;
    spec.event = *event;
    spec.action = [this, name, count](RuleContext&) {
      if (count != nullptr) ++*count;
      std::lock_guard<std::mutex> lock(order_mu_);
      order_.push_back(name);
      return Status::OK();
    };
    auto rule = db_->DeclareClassRule(EventSignature::Parse(signature)
                                          ->class_name,
                                      spec);
    ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  }

  Result<uint64_t> Raise(const std::string& cls, uint64_t oid,
                         const std::string& method = "Report") {
    return pub_->Raise(cls, method, EventModifier::kEnd, {Value(int64_t{1})},
                       oid);
  }

  std::vector<std::string> TakeOrder() {
    std::lock_guard<std::mutex> lock(order_mu_);
    return std::exchange(order_, {});
  }

  std::unique_ptr<testing_util::TempDir> tmp_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<GatewayServer> server_;
  std::unique_ptr<Connection> conn_;
  std::unique_ptr<Publisher> pub_;
  std::mutex order_mu_;
  std::vector<std::string> order_;
};

TEST_F(RelayTest, ApplicationObjectWinsOverRelay) {
  // The rule's action runs after the worker's last touch of the raised
  // object, so reading `fired` orders this thread after that raise.
  std::atomic<uint64_t> fired{0};
  AddRule("count", "end Sensor::Report", &fired);

  // Registered before any remote raise: the raise lands on it, no relay.
  ReactiveObject app("Sensor", 5000);
  CountingConsumer app_seen;
  ASSERT_TRUE(db_->RegisterLiveObject(&app).ok());
  ASSERT_TRUE(app.Subscribe(&app_seen).ok());
  const size_t live_before = db_->live_object_count();
  auto oid = Raise("Sensor", 5000);
  ASSERT_TRUE(oid.ok()) << oid.status().ToString();
  EXPECT_EQ(*oid, 5000u);
  EXPECT_EQ(fired.load(), 1u);
  EXPECT_EQ(app_seen.count.load(), 1u);
  EXPECT_EQ(db_->live_object_count(), live_before);

  // The oid names a Sensor: a raise claiming another class is refused.
  EXPECT_TRUE(Raise("Valve", 5000).status().IsInvalidArgument());

  // Registered after a relay exists for the oid: it displaces the relay.
  ASSERT_TRUE(Raise("Sensor", 6000).ok());  // Makes the relay.
  EXPECT_EQ(fired.load(), 2u);
  ReactiveObject late("Sensor", 6000);
  CountingConsumer late_seen;
  ASSERT_TRUE(db_->RegisterLiveObject(&late).ok());
  ASSERT_TRUE(late.Subscribe(&late_seen).ok());
  ASSERT_TRUE(Raise("Sensor", 6000).ok());
  EXPECT_EQ(fired.load(), 3u);
  EXPECT_EQ(late_seen.count.load(), 1u);

  // Once the application object leaves, the relay serves the oid again.
  ASSERT_TRUE(db_->UnregisterLiveObject(&late).ok());
  ASSERT_TRUE(Raise("Sensor", 6000).ok());
  EXPECT_EQ(fired.load(), 4u);
  EXPECT_EQ(late_seen.count.load(), 1u);
  ASSERT_TRUE(db_->UnregisterLiveObject(&app).ok());
}

TEST_F(RelayTest, ClassRuleDdlAfterRelaysReachesEveryRelay) {
  const std::vector<uint64_t> oids = {0, 11, 12, 13, 14, 15};
  for (uint64_t oid : oids) ASSERT_TRUE(Raise("Sensor", oid).ok());

  std::atomic<uint64_t> fired{0};
  AddRule("late", "end Sensor::Report", &fired);
  for (uint64_t oid : oids) ASSERT_TRUE(Raise("Sensor", oid).ok());
  EXPECT_EQ(fired.load(), oids.size());

  ASSERT_TRUE(db_->DeleteRule("late").ok());
  for (uint64_t oid : oids) ASSERT_TRUE(Raise("Sensor", oid).ok());
  EXPECT_EQ(fired.load(), oids.size());
}

TEST_F(RelayTest, OneDefaultRelayPerClass) {
  const size_t live_before = db_->live_object_count();
  auto second_conn = Connection::Dial("127.0.0.1", server_->port());
  ASSERT_TRUE(second_conn.ok());
  Publisher second(second_conn->get());

  std::map<std::string, std::vector<uint64_t>> seen;
  for (int i = 0; i < 4; ++i) {
    for (const char* cls : {"Sensor", "Valve"}) {
      Publisher& pub = i % 2 == 0 ? *pub_ : second;
      auto oid = pub.Raise(cls, "Report", EventModifier::kEnd, {}, 0);
      ASSERT_TRUE(oid.ok()) << oid.status().ToString();
      seen[cls].push_back(*oid);
    }
  }
  for (const auto& [cls, oids] : seen) {
    for (uint64_t oid : oids) EXPECT_EQ(oid, oids.front()) << cls;
  }
  EXPECT_NE(seen["Sensor"].front(), seen["Valve"].front());
  EXPECT_EQ(db_->live_object_count(), live_before + 2);

  // The default relay's oid addresses that same relay explicitly.
  auto again = Raise("Sensor", seen["Sensor"].front());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(db_->live_object_count(), live_before + 2);
}

TEST_F(RelayTest, ClassRulesFireInRuleNameOrderThenCreationOrder) {
  // Created out of name order, before the relay exists: a new object
  // subscribes its class rules in rule-name order.
  AddRule("rule_b", "end Sensor::Report", nullptr);
  AddRule("rule_a", "end Sensor::Report", nullptr);
  ASSERT_TRUE(Raise("Sensor", 21).ok());
  EXPECT_EQ(TakeOrder(), (std::vector<std::string>{"rule_a", "rule_b"}));

  // Created after the relay exists: appended behind the others.
  AddRule("rule_0", "end Sensor::Report", nullptr);
  ASSERT_TRUE(Raise("Sensor", 21).ok());
  EXPECT_EQ(TakeOrder(),
            (std::vector<std::string>{"rule_a", "rule_b", "rule_0"}));

  // A relay made now subscribes all three in name order.
  ASSERT_TRUE(Raise("Sensor", 22).ok());
  EXPECT_EQ(TakeOrder(),
            (std::vector<std::string>{"rule_0", "rule_a", "rule_b"}));
}

/// One raise of the differential workload.
struct Step {
  std::string cls;
  uint64_t oid;
  std::string method;
  ValueList params;
};

/// What an occurrence says, minus its timestamp and transaction.
using Seen = std::tuple<Oid, std::string, std::string, int, ValueList>;

Seen Describe(const EventOccurrence& occ) {
  return {occ.oid, occ.class_name, occ.method,
          static_cast<int>(occ.modifier), occ.params};
}

/// Two rules per class: one on Report whose condition passes a third of
/// the raises, one on Alarm.
void InstallDifferentialRules(Database* db,
                              std::map<std::string, uint64_t>* fired,
                              std::mutex* mu) {
  for (const std::string cls : {"Sensor", "Valve"}) {
    for (const std::string method : {"Report", "Alarm"}) {
      const std::string name = cls + "_" + method;
      RuleSpec spec;
      spec.name = name;
      spec.event = *db->CreatePrimitiveEvent("end " + cls + "::" + method);
      spec.condition = [](const RuleContext& ctx) {
        return ctx.params().size() == 2 && ctx.params()[1].AsInt() % 3 == 0;
      };
      spec.action = [fired, mu, name](RuleContext&) {
        std::lock_guard<std::mutex> lock(*mu);
        ++(*fired)[name];
        return Status::OK();
      };
      ASSERT_TRUE(db->DeclareClassRule(cls, spec).ok());
    }
  }
}

TEST_F(RelayTest, SeededRelayRaisesMatchLocalObjects) {
  // 48 oids over two classes, first contact in a seeded order, 400 raises.
  std::mt19937_64 rng(20260917);
  std::vector<Step> steps;
  for (int i = 0; i < 400; ++i) {
    const uint64_t idx = rng() % 48;
    Step step;
    step.cls = idx % 2 == 0 ? "Sensor" : "Valve";
    step.oid = 700000 + idx;
    step.method = rng() % 4 == 0 ? "Alarm" : "Report";
    step.params = {Value(int64_t{i}), Value(static_cast<int64_t>(rng() % 9))};
    steps.push_back(std::move(step));
  }

  // Through the gateway: every oid is first seen by the relay maps.
  std::mutex mu;
  std::map<std::string, uint64_t> remote_fired;
  InstallDifferentialRules(db_.get(), &remote_fired, &mu);
  std::vector<RaiseEventMsg> msgs;
  for (const Step& step : steps) {
    RaiseEventMsg msg;
    msg.class_name = step.cls;
    msg.method = step.method;
    msg.oid = step.oid;
    msg.params = step.params;
    msgs.push_back(std::move(msg));
  }
  ASSERT_TRUE(pub_->RaisePipelined(msgs).ok());
  server_->Stop();

  // Locally: the same raises on application objects registered on first
  // use, in the same order.
  testing_util::TempDir local_dir("relay_local");
  auto opened = Database::Open({.dir = local_dir.path()});
  ASSERT_TRUE(opened.ok());
  std::unique_ptr<Database> local = std::move(opened).value();
  for (const char* name : {"Sensor", "Valve"}) {
    ASSERT_TRUE(local->RegisterClass(ClassBuilder(name)
                                         .Reactive()
                                         .Method("Report", {.end = true})
                                         .Method("Alarm", {.end = true})
                                         .Build())
                    .ok());
  }
  std::map<std::string, uint64_t> local_fired;
  InstallDifferentialRules(local.get(), &local_fired, &mu);
  std::map<uint64_t, std::unique_ptr<ReactiveObject>> objects;
  for (const Step& step : steps) {
    std::unique_ptr<ReactiveObject>& object = objects[step.oid];
    if (object == nullptr) {
      object = std::make_unique<ReactiveObject>(step.cls, step.oid);
      ASSERT_TRUE(local->RegisterLiveObject(object.get()).ok());
    }
    ASSERT_TRUE(local
                    ->WithTransaction([&](Transaction*) {
                      object->RaiseEvent(step.method, EventModifier::kEnd,
                                         step.params);
                      return Status::OK();
                    })
                    .ok());
  }

  // Same rule executions...
  EXPECT_FALSE(remote_fired.empty());
  EXPECT_EQ(remote_fired, local_fired);
  for (const std::string name : {"Sensor_Report", "Sensor_Alarm",
                                 "Valve_Report", "Valve_Alarm"}) {
    auto remote_rule = db_->rules()->GetRule(name);
    auto local_rule = local->rules()->GetRule(name);
    ASSERT_TRUE(remote_rule.ok() && local_rule.ok());
    EXPECT_EQ((*remote_rule)->triggered_count(),
              (*local_rule)->triggered_count())
        << name;
    EXPECT_EQ((*remote_rule)->fired_count(), (*local_rule)->fired_count())
        << name;
    // ...and the same occurrences recorded by each rule (paper §4.2).
    std::vector<Seen> remote_recorded, local_recorded;
    for (const EventOccurrence& occ : (*remote_rule)->recorded()) {
      remote_recorded.push_back(Describe(occ));
    }
    for (const EventOccurrence& occ : (*local_rule)->recorded()) {
      local_recorded.push_back(Describe(occ));
    }
    EXPECT_EQ(remote_recorded, local_recorded) << name;
  }

  // Same ordered occurrence history.
  std::vector<Seen> remote_history, local_history;
  for (const EventOccurrence& occ : db_->detector()->MergedLog()) {
    remote_history.push_back(Describe(occ));
  }
  for (const EventOccurrence& occ : local->detector()->MergedLog()) {
    local_history.push_back(Describe(occ));
  }
  EXPECT_EQ(remote_history.size(), steps.size());
  EXPECT_EQ(remote_history, local_history);

  for (auto& [oid, object] : objects) {
    local->UnregisterLiveObject(object.get()).ok();
  }
  local->Close().ok();
}

}  // namespace
}  // namespace net
}  // namespace sentinel
