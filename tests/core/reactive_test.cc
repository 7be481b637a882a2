// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "core/reactive.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "../test_util.h"

namespace sentinel {
namespace {

using testing_util::MakeOccurrence;

/// Simple consumer counting deliveries.
class CountingConsumer : public Notifiable {
 public:
  void Notify(const EventOccurrence& occ) override {
    Record(occ);
    last = occ;
    ++count;
    if (on_notify) on_notify();
  }

  int count = 0;
  EventOccurrence last;
  std::function<void()> on_notify;
};

TEST(ReactiveTest, SubscribeUnsubscribeSemantics) {
  Reactive producer;
  CountingConsumer consumer;
  EXPECT_EQ(producer.consumer_count(), 0u);
  EXPECT_TRUE(producer.Subscribe(&consumer).ok());
  EXPECT_TRUE(producer.Subscribe(&consumer).IsAlreadyExists());
  EXPECT_TRUE(producer.IsSubscribed(&consumer));
  EXPECT_EQ(producer.consumer_count(), 1u);
  EXPECT_TRUE(producer.Unsubscribe(&consumer).ok());
  EXPECT_TRUE(producer.Unsubscribe(&consumer).IsNotFound());
  EXPECT_TRUE(producer.Subscribe(nullptr).IsInvalidArgument());
}

TEST(ReactiveTest, NotifyReachesAllConsumers) {
  Reactive producer;
  CountingConsumer a, b;
  ASSERT_TRUE(producer.Subscribe(&a).ok());
  ASSERT_TRUE(producer.Subscribe(&b).ok());
  producer.NotifyConsumers(MakeOccurrence(1, "C", "M"));
  EXPECT_EQ(a.count, 1);
  EXPECT_EQ(b.count, 1);
}

TEST(ReactiveTest, SubscribeAllPublishesOnceInOrderAndSharesTheList) {
  std::vector<char> order;
  CountingConsumer a, b, c;
  a.on_notify = [&] { order.push_back('a'); };
  b.on_notify = [&] { order.push_back('b'); };
  c.on_notify = [&] { order.push_back('c'); };
  auto list = std::make_shared<const Reactive::ConsumerList>(
      Reactive::ConsumerList{&b, &a});

  // Two fresh producers adopt the same list; one later diverges alone.
  Reactive first, second;
  ASSERT_TRUE(first.SubscribeAll(list).ok());
  ASSERT_TRUE(second.SubscribeAll(list).ok());
  ASSERT_TRUE(second.Subscribe(&c).ok());
  first.NotifyConsumers(MakeOccurrence(1, "C", "M"));
  EXPECT_EQ(order, (std::vector<char>{'b', 'a'}));
  order.clear();
  second.NotifyConsumers(MakeOccurrence(2, "C", "M"));
  EXPECT_EQ(order, (std::vector<char>{'b', 'a', 'c'}));

  // Merging keeps what is there and appends each newcomer once.
  Reactive third;
  ASSERT_TRUE(third.Subscribe(&a).ok());
  ASSERT_TRUE(third
                  .SubscribeAll(std::make_shared<const Reactive::ConsumerList>(
                      Reactive::ConsumerList{&c, &a, &c, &b}))
                  .ok());
  order.clear();
  third.NotifyConsumers(MakeOccurrence(3, "C", "M"));
  EXPECT_EQ(order, (std::vector<char>{'a', 'c', 'b'}));

  // A repeat in a list adopted by an empty producer is dropped too.
  Reactive fourth;
  ASSERT_TRUE(fourth
                  .SubscribeAll(std::make_shared<const Reactive::ConsumerList>(
                      Reactive::ConsumerList{&c, &c}))
                  .ok());
  EXPECT_EQ(fourth.consumer_count(), 1u);

  // A null consumer is refused with nothing subscribed.
  Reactive fifth;
  EXPECT_TRUE(fifth
                  .SubscribeAll(std::make_shared<const Reactive::ConsumerList>(
                      Reactive::ConsumerList{&a, nullptr}))
                  .IsInvalidArgument());
  EXPECT_TRUE(fifth.SubscribeAll(nullptr).IsInvalidArgument());
  EXPECT_EQ(fifth.consumer_count(), 0u);
}

TEST(ReactiveTest, UnsubscribeDuringNotifyIsSafe) {
  Reactive producer;
  CountingConsumer a, b, c;
  ASSERT_TRUE(producer.Subscribe(&a).ok());
  ASSERT_TRUE(producer.Subscribe(&b).ok());
  ASSERT_TRUE(producer.Subscribe(&c).ok());
  // a unsubscribes b and c mid-round; c must be skipped in this round.
  a.on_notify = [&]() {
    producer.Unsubscribe(&b).ok();
    producer.Unsubscribe(&c).ok();
  };
  producer.NotifyConsumers(MakeOccurrence(1, "C", "M"));
  EXPECT_EQ(a.count, 1);
  EXPECT_EQ(c.count, 0);
  EXPECT_EQ(producer.consumer_count(), 1u);
}

TEST(ReactiveTest, SubscribeDuringNotifyDoesNotAffectCurrentRound) {
  Reactive producer;
  CountingConsumer a, late;
  ASSERT_TRUE(producer.Subscribe(&a).ok());
  a.on_notify = [&]() { producer.Subscribe(&late).ok(); };
  producer.NotifyConsumers(MakeOccurrence(1, "C", "M"));
  EXPECT_EQ(late.count, 0);  // Snapshot excludes newcomers.
  producer.NotifyConsumers(MakeOccurrence(1, "C", "M"));
  EXPECT_EQ(late.count, 1);
}

// --- ReactiveObject ---------------------------------------------------------

/// RaiseContext stub recording pre/post calls.
class StubContext : public RaiseContext {
 public:
  explicit StubContext(const ClassCatalog* catalog) : catalog_(catalog) {}

  const ClassCatalog* catalog() const override { return catalog_; }
  Transaction* current_txn() override { return txn; }
  void PreRaise(const EventOccurrence& occ) override {
    pre.push_back(occ.Key());
  }
  void PostRaise(const EventOccurrence& occ) override {
    post.push_back(occ.Key());
  }

  Transaction* txn = nullptr;
  std::vector<std::string> pre;
  std::vector<std::string> post;

 private:
  const ClassCatalog* catalog_;
};

void FillCatalog(ClassCatalog* catalog) {
  EXPECT_TRUE(catalog->RegisterClass(
      ClassBuilder("Employee")
          .Reactive()
          .Method("SetSalary", {.begin = true, .end = true})
          .Method("Promote", {.begin = false, .end = true})
          .Method("GetName")
          .Build()).ok());
}

TEST(ReactiveObjectTest, RaiseHonorsEventInterface) {
  ClassCatalog catalog;
  FillCatalog(&catalog);
  StubContext context(&catalog);
  ReactiveObject obj("Employee", 7);
  obj.AttachContext(&context);
  CountingConsumer consumer;
  ASSERT_TRUE(obj.Subscribe(&consumer).ok());

  obj.RaiseEvent("SetSalary", EventModifier::kBegin, {Value(100.0)});
  EXPECT_EQ(consumer.count, 1);
  // Promote raises only eom; bom is suppressed by the event interface.
  obj.RaiseEvent("Promote", EventModifier::kBegin, {});
  EXPECT_EQ(consumer.count, 1);
  obj.RaiseEvent("Promote", EventModifier::kEnd, {});
  EXPECT_EQ(consumer.count, 2);
  // Undesignated and unknown methods raise nothing.
  obj.RaiseEvent("GetName", EventModifier::kEnd, {});
  obj.RaiseEvent("Ghost", EventModifier::kEnd, {});
  EXPECT_EQ(consumer.count, 2);
  EXPECT_EQ(obj.raised_count(), 2u);
}

TEST(ReactiveObjectTest, CachedEventInterfaceFollowsCatalogDdl) {
  ClassCatalog catalog;
  FillCatalog(&catalog);
  StubContext context(&catalog);
  ReactiveObject obj("Contractor", 9);
  obj.AttachContext(&context);
  CountingConsumer consumer;
  ASSERT_TRUE(obj.Subscribe(&consumer).ok());

  // Unregistered class: nothing is designated, and that answer is cached.
  obj.RaiseEvent("Bill", EventModifier::kEnd, {});
  EXPECT_EQ(consumer.count, 0);
  // Registering the class moves the catalog's epoch: the next raise sees it.
  ASSERT_TRUE(catalog.RegisterClass(ClassBuilder("Contractor")
                                        .Extends("Employee")
                                        .Method("Bill", {.end = true})
                                        .Build())
                  .ok());
  obj.RaiseEvent("Bill", EventModifier::kEnd, {});
  obj.RaiseEvent("Promote", EventModifier::kEnd, {});  // Inherited.
  obj.RaiseEvent("Promote", EventModifier::kBegin, {});
  EXPECT_EQ(consumer.count, 2);
}

TEST(ReactiveObjectTest, OccurrenceCarriesPaperTuple) {
  ClassCatalog catalog;
  FillCatalog(&catalog);
  StubContext context(&catalog);
  ReactiveObject obj("Employee", 42);
  obj.AttachContext(&context);
  CountingConsumer consumer;
  ASSERT_TRUE(obj.Subscribe(&consumer).ok());
  obj.RaiseEvent("SetSalary", EventModifier::kEnd, {Value(55000.0)});
  // Oid + Class + Method + Actual parameters + Time stamp (§3.1).
  EXPECT_EQ(consumer.last.oid, 42u);
  EXPECT_EQ(consumer.last.class_name, "Employee");
  EXPECT_EQ(consumer.last.method, "SetSalary");
  EXPECT_EQ(consumer.last.modifier, EventModifier::kEnd);
  ASSERT_EQ(consumer.last.params.size(), 1u);
  EXPECT_EQ(consumer.last.params[0], Value(55000.0));
  EXPECT_GT(consumer.last.timestamp.seq, 0u);
}

TEST(ReactiveObjectTest, PrePostBracketDelivery) {
  ClassCatalog catalog;
  FillCatalog(&catalog);
  StubContext context(&catalog);
  ReactiveObject obj("Employee", 7);
  obj.AttachContext(&context);
  obj.RaiseEvent("SetSalary", EventModifier::kEnd, {});
  ASSERT_EQ(context.pre.size(), 1u);
  ASSERT_EQ(context.post.size(), 1u);
  EXPECT_EQ(context.pre[0], "end Employee::SetSalary");
  // Suppressed events do not touch the context.
  obj.RaiseEvent("GetName", EventModifier::kEnd, {});
  EXPECT_EQ(context.pre.size(), 1u);
}

TEST(ReactiveObjectTest, UnboundObjectRaisesUnconditionally) {
  ReactiveObject obj("Anything", 1);
  CountingConsumer consumer;
  ASSERT_TRUE(obj.Subscribe(&consumer).ok());
  obj.RaiseEvent("AnyMethod", EventModifier::kBegin, {});
  EXPECT_EQ(consumer.count, 1);
}

TEST(ReactiveObjectTest, MethodEventScopeRaisesBomAndEom) {
  ClassCatalog catalog;
  FillCatalog(&catalog);
  StubContext context(&catalog);
  ReactiveObject obj("Employee", 7);
  obj.AttachContext(&context);
  CountingConsumer consumer;
  ASSERT_TRUE(obj.Subscribe(&consumer).ok());
  {
    MethodEventScope scope(&obj, "SetSalary", {Value(1.0)});
    EXPECT_EQ(consumer.count, 1);  // bom raised on entry.
    EXPECT_EQ(consumer.last.modifier, EventModifier::kBegin);
  }
  EXPECT_EQ(consumer.count, 2);  // eom raised on exit.
  EXPECT_EQ(consumer.last.modifier, EventModifier::kEnd);
}

TEST(ReactiveObjectTest, SetAttrUndoneOnAbort) {
  LockManager locks;
  Transaction txn(1, &locks);
  ReactiveObject obj("Employee", 7);
  obj.SetAttrRaw("salary", Value(100));
  obj.SetAttr(&txn, "salary", Value(200));
  obj.SetAttr(&txn, "salary", Value(300));
  EXPECT_EQ(obj.GetAttr("salary"), Value(300));
  txn.RunUndos();
  EXPECT_EQ(obj.GetAttr("salary"), Value(100));
}

TEST(ReactiveObjectTest, SetAttrWithoutTxnIsPermanent) {
  ReactiveObject obj("Employee", 7);
  obj.SetAttr(nullptr, "x", Value(1));
  EXPECT_EQ(obj.GetAttr("x"), Value(1));
}

}  // namespace
}  // namespace sentinel
