// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// IngressQueue under fire: 8 producer threads, FIFO-per-producer ordering,
// backpressure at capacity, and clean shutdown with items in flight.

#include "net/ingress_queue.h"

#include <gtest/gtest.h>

#include "net/session.h"

#include <atomic>
#include <map>
#include <thread>
#include <vector>

namespace sentinel {
namespace net {
namespace {

using std::chrono::milliseconds;

IngressItem Item(uint64_t session, uint64_t seq) {
  IngressItem item;
  item.session = std::make_shared<Session>(session, /*fd=*/-1);
  Encoder enc;
  enc.PutU64(seq);
  item.frame.type = FrameType::kPing;
  item.frame.body = enc.Release();
  return item;
}

uint64_t SeqOf(const IngressItem& item) {
  Decoder dec(item.frame.body);
  uint64_t seq = 0;
  EXPECT_TRUE(dec.GetU64(&seq).ok());
  return seq;
}

TEST(IngressQueueTest, PushPopPreservesOrder) {
  MetricsRegistry metrics;
  IngressQueue q(16, metrics);
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.TryPush(Item(1, i)).ok());
  }
  EXPECT_EQ(q.size(), 5u);

  std::vector<IngressItem> out;
  EXPECT_EQ(q.PopBatch(3, milliseconds(0), &out), 3u);
  EXPECT_EQ(q.PopBatch(10, milliseconds(0), &out), 2u);
  ASSERT_EQ(out.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) EXPECT_EQ(SeqOf(out[i]), i);
}

TEST(IngressQueueTest, BackpressureAtCapacity) {
  MetricsRegistry registry;
  IngressQueue q(4, registry);
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.TryPush(Item(1, i)).ok());
  }
  Status s = q.TryPush(Item(1, 99));
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  EXPECT_EQ(registry.counter("net.ingress.rejected")->Value(), 1u);
  EXPECT_EQ(registry.gauge("net.ingress.depth")->Value(), 4);

  // Draining one slot re-admits producers.
  std::vector<IngressItem> out;
  EXPECT_EQ(q.PopBatch(1, milliseconds(0), &out), 1u);
  EXPECT_TRUE(q.TryPush(Item(1, 4)).ok());
}

TEST(IngressQueueTest, PopBatchTimesOutOnEmptyQueue) {
  MetricsRegistry metrics;
  IngressQueue q(4, metrics);
  std::vector<IngressItem> out;
  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(q.PopBatch(8, milliseconds(30), &out), 0u);
  EXPECT_GE(std::chrono::steady_clock::now() - start, milliseconds(25));
}

TEST(IngressQueueTest, EightProducersKeepPerProducerFifo) {
  constexpr int kProducers = 8;
  constexpr uint64_t kPerProducer = 2000;
  MetricsRegistry metrics;
  // Far smaller than the total: forces backpressure.
  IngressQueue q(64, metrics);

  std::atomic<bool> done{false};
  std::vector<IngressItem> received;
  std::thread consumer([&] {
    std::vector<IngressItem> batch;
    while (true) {
      batch.clear();
      size_t n = q.PopBatch(32, milliseconds(5), &batch);
      for (size_t i = 0; i < n; ++i) {
        received.push_back(std::move(batch[i]));
      }
      if (n == 0 && done.load()) {
        // One final drain closes the race between the producers' last push
        // and the done flag.
        batch.clear();
        n = q.PopBatch(SIZE_MAX, milliseconds(0), &batch);
        for (size_t i = 0; i < n; ++i) {
          received.push_back(std::move(batch[i]));
        }
        if (n == 0) break;
      }
    }
  });

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (uint64_t seq = 0; seq < kPerProducer; ++seq) {
        // Spin on backpressure: the real IO thread would bounce the
        // request to the client instead.
        while (q.TryPush(Item(static_cast<uint64_t>(p), seq))
                   .IsResourceExhausted()) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  done.store(true);
  consumer.join();

  ASSERT_EQ(received.size(), kProducers * kPerProducer);
  std::map<uint64_t, uint64_t> next_seq;
  for (const IngressItem& item : received) {
    uint64_t expected = next_seq[item.session->id()]++;
    ASSERT_EQ(SeqOf(item), expected)
        << "producer " << item.session->id() << " reordered";
  }
  for (const auto& [producer, count] : next_seq) {
    EXPECT_EQ(count, kPerProducer) << "producer " << producer;
  }
}

TEST(IngressQueueTest, ShutdownDeliversInFlightItemsThenStops) {
  MetricsRegistry metrics;
  IngressQueue q(16, metrics);
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(q.TryPush(Item(7, i)).ok());
  }
  q.Shutdown();

  // New work is refused...
  Status s = q.TryPush(Item(7, 99));
  EXPECT_TRUE(s.IsFailedPrecondition()) << s.ToString();

  // ...but queued items still drain, in order.
  std::vector<IngressItem> out;
  EXPECT_EQ(q.PopBatch(8, milliseconds(100), &out), 3u);
  for (uint64_t i = 0; i < 3; ++i) EXPECT_EQ(SeqOf(out[i]), i);

  // Empty + shut down: returns 0 immediately (no timeout wait).
  auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(q.PopBatch(8, milliseconds(1000), &out), 0u);
  EXPECT_LT(std::chrono::steady_clock::now() - start, milliseconds(500));
}

TEST(IngressQueueTest, DrainedAfterShutdownIsAtomic) {
  MetricsRegistry metrics;
  IngressQueue q(8, metrics);
  EXPECT_FALSE(q.DrainedAfterShutdown());  // Not shut down yet.
  ASSERT_TRUE(q.TryPush(Item(1, 0)).ok());
  q.Shutdown();
  EXPECT_FALSE(q.DrainedAfterShutdown());  // Shut down but not drained.
  std::vector<IngressItem> out;
  EXPECT_EQ(q.PopBatch(8, milliseconds(0), &out), 1u);
  EXPECT_TRUE(q.DrainedAfterShutdown());   // Both, observed under one lock.
}

// Regression for the worker-exit race: the old predicate was "this drain
// popped nothing AND shutdown() is (separately) true", which strands a
// frame admitted between the empty pop and the shutdown read — accepted,
// never processed, never acked. DrainedAfterShutdown evaluates both under
// the queue lock, so a consumer exiting on it can never leave an admitted
// item behind. This loop races a push+Shutdown pair against a consumer
// running exactly the worker's zero-wait drain pattern.
TEST(IngressQueueTest, ShutdownDoesNotStrandConcurrentPush) {
  constexpr int kRounds = 200;
  for (int round = 0; round < kRounds; ++round) {
    MetricsRegistry metrics;
    IngressQueue q(8, metrics);
    std::atomic<size_t> popped{0};
    std::thread consumer([&] {
      std::vector<IngressItem> out;
      while (true) {
        out.clear();
        q.WaitReady(milliseconds(0));
        popped.fetch_add(q.PopBatch(16, milliseconds(0), &out));
        if (q.DrainedAfterShutdown()) break;
      }
    });
    // The racing admit: sometimes it lands before the consumer's empty
    // pop, sometimes between the pop and the exit check.
    Status s = q.TryPush(Item(1, 0));
    q.Shutdown();
    consumer.join();
    const size_t expected = s.ok() ? 1u : 0u;
    ASSERT_EQ(popped.load(), expected)
        << "round " << round << ": admitted frame stranded at shutdown";
  }
}

TEST(IngressQueueTest, ShutdownWakesBlockedConsumer) {
  MetricsRegistry metrics;
  IngressQueue q(4, metrics);
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    std::vector<IngressItem> out;
    q.PopBatch(1, milliseconds(10000), &out);
    woke.store(true);
  });
  std::this_thread::sleep_for(milliseconds(50));
  EXPECT_FALSE(woke.load());
  q.Shutdown();
  consumer.join();
  EXPECT_TRUE(woke.load());
}

}  // namespace
}  // namespace net
}  // namespace sentinel
