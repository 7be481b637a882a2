// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Low-overhead metrics primitives: sharded atomic counters, gauges, and
// log-linear latency histograms with quantile extraction, grouped per
// Database into a MetricsRegistry with a JSON-serializable snapshot.
//
// The paper's argument for subscription-based rule checking is quantitative
// (§5-§6: fewer checks, pay-as-you-go overhead); this module is what makes
// the claim measurable PR-over-PR instead of anecdotal. Design constraints:
//
//   * Hot-path cost must be a handful of nanoseconds: counters are sharded
//     across cache lines (producers on different threads do not bounce one
//     line), histograms bucket with two shifts and a relaxed fetch_add, and
//     all hot-path reads/writes use relaxed atomics. Snapshots are therefore
//     *approximate under concurrency* (exact once writers quiesce, which is
//     what tests and benchmarks observe).
//   * One registry per Database holds every counter of the process that
//     serves it: core, storage, history, replication (repl.*), gateway
//     (net.*) and shared-memory transport (shm.*). Each instrumented
//     component takes the registry in its constructor and counts only
//     there; views such as GatewayStats read it back rather than keeping
//     counts of their own.
//   * Counters are modular 2^64: overflow wraps (well-defined, tested)
//     rather than saturating, so deltas between snapshots stay correct even
//     across a wrap.

#ifndef SENTINEL_COMMON_METRICS_H_
#define SENTINEL_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace sentinel {

/// Monotone event count, sharded to keep concurrent writers off one cache
/// line. Add is wait-free (one relaxed fetch_add); Value sums the shards.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    shards_[ThreadShard()].value.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum of all shards, modulo 2^64.
  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr size_t kShards = 16;  // Power of two (mask indexing).

  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };

  /// Stable per-thread shard assignment (round-robin at first use).
  static size_t ThreadShard() {
    static std::atomic<size_t> next{0};
    thread_local size_t shard =
        next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
    return shard;
  }

  Shard shards_[kShards];
};

/// Last-write-wins instantaneous value (queue depth, live sessions).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Aggregated view of one histogram at snapshot time.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;   ///< Sum of recorded values (same unit as recordings).
  uint64_t max = 0;   ///< Exact largest recorded value.
  double p50 = 0.0;   ///< Quantiles from bucket midpoints (<= ~6% relative
  double p95 = 0.0;   ///< error from the log-linear bucket width).
  double p99 = 0.0;
};

/// Log-linear histogram of non-negative values (latencies in ns, depths,
/// queue lengths). Each power-of-two octave splits into 16 linear
/// sub-buckets, so the relative quantile error is bounded by ~1/16 while
/// the whole uint64 range fits in under 1000 buckets (~8 KB).
class Histogram {
 public:
  /// 16 sub-buckets per octave.
  static constexpr uint64_t kSubBits = 4;
  static constexpr uint64_t kSubCount = 1ull << kSubBits;
  /// Values 0..15 map to buckets 0..15 exactly; above that, bucket
  /// (octave<<4)+sub. Largest index for a 64-bit value:
  static constexpr size_t kNumBuckets =
      ((64 - kSubBits) << kSubBits) + kSubCount;  // 976

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records one sample (negatives clamp to 0). Two shifts, three relaxed
  /// RMW ops; wait-free apart from the max CAS loop (bounded in practice).
  void Record(int64_t value);

  uint64_t Count() const;

  HistogramSnapshot Snapshot() const;

  // --- Bucketing scheme (exposed for boundary tests) ------------------------

  /// Index of the bucket `value` lands in.
  static size_t BucketIndex(uint64_t value);

  /// Smallest value mapping to bucket `index`.
  static uint64_t BucketLowerBound(size_t index);

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// Full snapshot of a registry: plain maps, safe to use off-thread.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,max,
  /// p50,p95,p99}}} — the schema carried by StatsReply on the gateway.
  std::string ToJson() const;
};

/// Named metrics of one Database (or any other owner). Get-or-create is
/// mutexed (called once per instrumentation site, when the component is
/// constructed); the returned pointers are stable for the registry's
/// lifetime and are what hot paths hold.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace sentinel

#endif  // SENTINEL_COMMON_METRICS_H_
