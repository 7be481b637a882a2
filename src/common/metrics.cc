// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "common/metrics.h"

#include <bit>

#include "common/json.h"

namespace sentinel {

size_t Histogram::BucketIndex(uint64_t value) {
  if (value < kSubCount) return static_cast<size_t>(value);
  // octave = floor(log2(value)), >= kSubBits here. The top bit after the
  // leading one selects the linear sub-bucket within the octave.
  const uint64_t octave = static_cast<uint64_t>(std::bit_width(value)) - 1;
  const uint64_t sub = (value >> (octave - kSubBits)) & (kSubCount - 1);
  return static_cast<size_t>(((octave - kSubBits + 1) << kSubBits) + sub);
}

uint64_t Histogram::BucketLowerBound(size_t index) {
  if (index < kSubCount) return static_cast<uint64_t>(index);
  const uint64_t octave = (index >> kSubBits) + kSubBits - 1;
  const uint64_t sub = index & (kSubCount - 1);
  return (kSubCount + sub) << (octave - kSubBits);
}

void Histogram::Record(int64_t value) {
  const uint64_t v = value < 0 ? 0 : static_cast<uint64_t>(value);
  buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  uint64_t prev = max_.load(std::memory_order_relaxed);
  while (prev < v &&
         !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
}

uint64_t Histogram::Count() const {
  return count_.load(std::memory_order_relaxed);
}

namespace {

/// Representative value reported for a bucket: the midpoint between its
/// lower bound and the next bucket's, which halves the worst-case error.
double BucketMidpoint(size_t index) {
  const uint64_t lo = Histogram::BucketLowerBound(index);
  if (index + 1 >= Histogram::kNumBuckets) return static_cast<double>(lo);
  const uint64_t next = Histogram::BucketLowerBound(index + 1);
  return static_cast<double>(lo) + (static_cast<double>(next - lo) - 1.0) / 2.0;
}

}  // namespace

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  // Copy the buckets once so count and quantiles come from one view; other
  // fields are read relaxed and may be marginally ahead under concurrency.
  uint64_t counts[kNumBuckets];
  uint64_t total = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  snap.count = total;
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  if (total == 0) return snap;

  // One cumulative walk serves all three quantiles (ranks are ascending).
  const struct {
    double q;
    double* out;
  } wanted[] = {{0.50, &snap.p50}, {0.95, &snap.p95}, {0.99, &snap.p99}};
  size_t next = 0;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kNumBuckets && next < 3; ++i) {
    cumulative += counts[i];
    while (next < 3) {
      // Rank of the q-quantile, 1-based, ceil(q * total) clamped to >= 1.
      const uint64_t rank =
          static_cast<uint64_t>(wanted[next].q * static_cast<double>(total)) +
          1;
      if (cumulative < rank && rank <= total) break;
      *wanted[next].out = BucketMidpoint(i);
      ++next;
    }
  }
  return snap;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->Value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->Value();
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms[name] = histogram->Snapshot();
  }
  return snap;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    AppendJsonEscaped(&out, name);
    out.append("\":");
    out.append(std::to_string(value));
  }
  out.append("},\"gauges\":{");
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    AppendJsonEscaped(&out, name);
    out.append("\":");
    out.append(std::to_string(value));
  }
  out.append("},\"histograms\":{");
  first = true;
  for (const auto& [name, h] : histograms) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    AppendJsonEscaped(&out, name);
    out.append("\":{\"count\":");
    out.append(std::to_string(h.count));
    out.append(",\"sum\":");
    out.append(std::to_string(h.sum));
    out.append(",\"max\":");
    out.append(std::to_string(h.max));
    out.append(",\"p50\":");
    out.append(JsonNumber(h.p50));
    out.append(",\"p95\":");
    out.append(JsonNumber(h.p95));
    out.append(",\"p99\":");
    out.append(JsonNumber(h.p99));
    out.append("}");
  }
  out.append("}}");
  return out;
}

}  // namespace sentinel
