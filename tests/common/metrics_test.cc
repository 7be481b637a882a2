// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "common/metrics.h"

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/json.h"

#include <cstdint>
#include <thread>
#include <vector>

namespace sentinel {
namespace {

// --- Counter -----------------------------------------------------------------

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(CounterTest, OverflowWrapsModulo64Bits) {
  Counter c;
  c.Add(UINT64_MAX);  // Value = 2^64 - 1.
  c.Add(3);           // Wraps to 2.
  EXPECT_EQ(c.Value(), 2u);

  Counter half;
  half.Add(UINT64_MAX / 2 + 1);
  half.Add(UINT64_MAX / 2 + 1);  // 2 * (2^63) = 2^64 = 0 mod 2^64.
  EXPECT_EQ(half.Value(), 0u);
}

TEST(CounterTest, ConcurrentAddsAreExactOnceQuiesced) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

// --- Gauge -------------------------------------------------------------------

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0);
  g.Set(7);
  EXPECT_EQ(g.Value(), 7);
  g.Add(-10);
  EXPECT_EQ(g.Value(), -3);
  g.Set(5);
  EXPECT_EQ(g.Value(), 5);  // Set overwrites, no accumulation.
}

// --- Histogram bucketing scheme ---------------------------------------------

TEST(HistogramBucketTest, SmallValuesAreExact) {
  for (uint64_t v = 0; v < Histogram::kSubCount; ++v) {
    EXPECT_EQ(Histogram::BucketIndex(v), v);
    EXPECT_EQ(Histogram::BucketLowerBound(v), v);
  }
}

TEST(HistogramBucketTest, IndexIsMonotoneAcrossBoundaries) {
  // Walk every bucket edge region: the index must never decrease, and must
  // increase exactly at a bucket's lower bound.
  size_t prev = Histogram::BucketIndex(0);
  for (uint64_t v = 1; v < 1 << 12; ++v) {
    size_t idx = Histogram::BucketIndex(v);
    EXPECT_GE(idx, prev) << "at value " << v;
    if (idx != prev) {
      EXPECT_EQ(idx, prev + 1) << "at value " << v;
      EXPECT_EQ(Histogram::BucketLowerBound(idx), v);
    }
    prev = idx;
  }
}

TEST(HistogramBucketTest, LowerBoundInvertsIndex) {
  // For every bucket reachable from a wide sample of values:
  // BucketLowerBound(i) is the smallest member of bucket i.
  constexpr uint64_t kProbes[] = {0,    1,    15,    16,   17,
                                  31,   32,   100,   1000, 4095,
                                  4096, 65535, 1ull << 20,
                                  (1ull << 20) + 123, 1ull << 40,
                                  UINT64_MAX};
  for (uint64_t v : kProbes) {
    size_t idx = Histogram::BucketIndex(v);
    uint64_t lo = Histogram::BucketLowerBound(idx);
    EXPECT_LE(lo, v);
    EXPECT_EQ(Histogram::BucketIndex(lo), idx);
    if (lo > 0) {
      EXPECT_EQ(Histogram::BucketIndex(lo - 1), idx - 1);
    }
  }
}

TEST(HistogramBucketTest, MaxValueFitsInBucketArray) {
  EXPECT_LT(Histogram::BucketIndex(UINT64_MAX), Histogram::kNumBuckets);
}

TEST(HistogramBucketTest, RelativeBucketWidthBounded) {
  // Log-linear promise: bucket width / lower bound <= 1/16 above the
  // linear range, so quantiles carry at most ~6% relative error.
  for (uint64_t v = Histogram::kSubCount; v < 1ull << 30; v = v * 3 + 7) {
    size_t idx = Histogram::BucketIndex(v);
    uint64_t lo = Histogram::BucketLowerBound(idx);
    uint64_t hi = Histogram::BucketLowerBound(idx + 1);
    EXPECT_LE(hi - lo, lo / Histogram::kSubCount + 1) << "at value " << v;
  }
}

// --- Histogram recording and quantiles ---------------------------------------

TEST(HistogramTest, EmptySnapshotIsZero) {
  Histogram h;
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p99, 0.0);
}

TEST(HistogramTest, CountSumMaxAreExact) {
  Histogram h;
  h.Record(5);
  h.Record(100);
  h.Record(3000);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 3105u);
  EXPECT_EQ(s.max, 3000u);
}

TEST(HistogramTest, NegativeValuesClampToZero) {
  Histogram h;
  h.Record(-123);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.sum, 0u);
  EXPECT_EQ(s.max, 0u);
}

TEST(HistogramTest, QuantilesOfKnownUniformDistribution) {
  // 1..10000 once each: p50=5000, p95=9500, p99=9900, within the bucket
  // scheme's 1/16 relative error.
  Histogram h;
  for (int64_t v = 1; v <= 10000; ++v) h.Record(v);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 10000u);
  EXPECT_EQ(s.max, 10000u);
  EXPECT_NEAR(s.p50, 5000.0, 5000.0 / 16 + 1);
  EXPECT_NEAR(s.p95, 9500.0, 9500.0 / 16 + 1);
  EXPECT_NEAR(s.p99, 9900.0, 9900.0 / 16 + 1);
}

TEST(HistogramTest, QuantilesOfSkewedDistribution) {
  // 99 fast samples at 10, one slow outlier at 1e6: p50 stays at the fast
  // mode, p99 lands on the outlier's bucket.
  Histogram h;
  for (int i = 0; i < 99; ++i) h.Record(10);
  h.Record(1000000);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_NEAR(s.p50, 10.0, 1.0);
  EXPECT_NEAR(s.p99, 1e6, 1e6 / 16 + 1);
  EXPECT_EQ(s.max, 1000000u);
}

TEST(HistogramTest, SmallValueQuantilesAreExact) {
  // Values below 16 land in exact unit buckets — no midpoint error at all.
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Record(3);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.p50, 3.0);
  EXPECT_EQ(s.p99, 3.0);
}

TEST(HistogramTest, ConcurrentRecordsAreExactOnceQuiesced) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  Histogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.Record(t * 1000 + (i & 255));
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads) * kPerThread);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(s.max, 3255u);  // Exact: (kThreads-1)*1000 + 255.
}

// --- MetricsRegistry ---------------------------------------------------------

TEST(MetricsRegistryTest, GetOrCreateReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* c1 = registry.counter("a");
  Counter* c2 = registry.counter("a");
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1, c2);
  EXPECT_NE(registry.counter("b"), c1);
  EXPECT_EQ(registry.gauge("a"), registry.gauge("a"));
  EXPECT_EQ(registry.histogram("a"), registry.histogram("a"));
}

TEST(MetricsRegistryTest, SnapshotReflectsAllMetrics) {
  MetricsRegistry registry;
  registry.counter("events.total")->Add(7);
  registry.gauge("queue.depth")->Set(-2);
  registry.histogram("latency.ns")->Record(100);
  registry.histogram("latency.ns")->Record(200);

  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("events.total"), 7u);
  EXPECT_EQ(snapshot.gauges.at("queue.depth"), -2);
  EXPECT_EQ(snapshot.histograms.at("latency.ns").count, 2u);
  EXPECT_EQ(snapshot.histograms.at("latency.ns").sum, 300u);
}

TEST(MetricsRegistryTest, SnapshotToJsonIsValidAndComplete) {
  MetricsRegistry registry;
  registry.counter("c")->Add(3);
  registry.gauge("g")->Set(9);
  registry.histogram("h")->Record(42);

  std::string json = registry.Snapshot().ToJson();
  auto doc = JsonValue::Parse(json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->Find("c")->number_value, 3.0);
  EXPECT_EQ(doc->Find("gauges")->Find("g")->number_value, 9.0);
  const JsonValue* h = doc->Find("histograms")->Find("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->Find("count")->number_value, 1.0);
  EXPECT_EQ(h->Find("sum")->number_value, 42.0);
  EXPECT_EQ(h->Find("max")->number_value, 42.0);
  EXPECT_NE(h->Find("p50"), nullptr);
  EXPECT_NE(h->Find("p95"), nullptr);
  EXPECT_NE(h->Find("p99"), nullptr);
}

TEST(MetricsRegistryTest, ConcurrentGetOrCreateAndWrites) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 1000; ++i) {
        registry.counter("shared")->Add();
        registry.histogram("lat")->Record(i);
        if (i % 64 == 0) registry.Snapshot();  // Readers race writers.
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.counter("shared")->Value(), kThreads * 1000u);
}

// --- Timing idiom --------------------------------------------------------------

// Timed sites record SteadyNowNs() - start. The sampled raise->notify timer
// reads a zero start as "not armed", so a real clock reading must never be
// 0.
TEST(MetricsHelpersTest, TimerRoundTripRecordsElapsed) {
  Histogram h;
  const int64_t start = SteadyNowNs();
  EXPECT_NE(start, 0);
  h.Record(SteadyNowNs() - start);
  EXPECT_EQ(h.Count(), 1u);
}

}  // namespace
}  // namespace sentinel
