// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Small helpers shared by the benchmark: clocks, seeded randomness, input
// digests, quantiles, process resource usage, and JSON rendering. Nothing
// here touches the system under test.

#ifndef SENTINEL_PERFBENCH_UTIL_H_
#define SENTINEL_PERFBENCH_UTIL_H_

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline void SleepUntilNs(int64_t deadline_ns) {
  std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(deadline_ns)));
}

/// splitmix64: the seeded source behind every generated input.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf(s) over [0, n) by inverse CDF; s == 0 is uniform.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  size_t Draw(Rng* rng) const {
    double u = rng->Unit();
    size_t i = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(i, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// FNV-1a 64 over the generated inputs (the generator self-check).
class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
inline double Quantile(std::vector<double>* v, double q) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t idx = static_cast<size_t>(std::ceil(q * static_cast<double>(v->size())));
  idx = std::min(std::max<size_t>(idx, 1), v->size()) - 1;
  return (*v)[idx];
}

inline double Median(std::vector<double> v) { return Quantile(&v, 0.5); }

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Mean of `v` without its lowest and highest tenth; 0 when empty.
inline double TrimmedMean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 10;
  double sum = 0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// Latency samples tagged with when they were due (ns after the phase
/// origin). Tail figures are medians, over ten equal time windows, of each
/// window's quantile: a multi-millisecond stall from outside the process
/// (another tenant of the host) moves one window's figure, not the run's.
struct Series {
  std::vector<int64_t> t;
  std::vector<double> v;

  /// Makes room for n samples and touches it, so recording them does not
  /// grow the resident set (peak_rss_mb would otherwise track the count).
  void Reserve(size_t n) {
    t.resize(n);
    t.clear();
    v.resize(n);
    v.clear();
  }
  void Add(int64_t at, double value) {
    t.push_back(at);
    v.push_back(value);
  }
  void Append(const Series& other) {
    t.insert(t.end(), other.t.begin(), other.t.end());
    v.insert(v.end(), other.v.begin(), other.v.end());
  }
  size_t size() const { return v.size(); }
  double Q(double q) const {
    std::vector<double> copy = v;
    return Quantile(&copy, q);
  }
  double P50() const { return Q(0.5); }
  /// The q-quantile of each of `windows` equal slices of the sample times
  /// (empty when there are too few samples to fill them).
  std::vector<double> WindowQuantiles(int windows, double q) const {
    std::vector<double> out;
    if (v.size() < static_cast<size_t>(windows) * 100) return out;
    const auto [lo, hi] = std::minmax_element(t.begin(), t.end());
    const double span = static_cast<double>(*hi - *lo) + 1;
    std::vector<std::vector<double>> bucket(static_cast<size_t>(windows));
    for (size_t i = 0; i < v.size(); ++i) {
      auto w = static_cast<size_t>(static_cast<double>(t[i] - *lo) / span *
                                   windows);
      bucket[std::min(w, bucket.size() - 1)].push_back(v[i]);
    }
    for (auto& b : bucket) {
      if (!b.empty()) out.push_back(Quantile(&b, q));
    }
    return out;
  }
  /// Median of per-window q-quantiles; the plain quantile when too few
  /// samples.
  double Windowed(double q, int windows = 10) const {
    std::vector<double> per = WindowQuantiles(windows, q);
    return per.empty() ? Q(q) : Quantile(&per, 0.5);
  }
  /// With v holding completion counts stamped at t: completions per second
  /// in each of `windows` equal slices of [t0, t1).
  std::vector<double> WindowRates(int64_t t0, int64_t t1, int windows) const {
    if (t1 <= t0 || windows < 1) return {};
    std::vector<double> count(static_cast<size_t>(windows), 0);
    const double span = static_cast<double>(t1 - t0);
    for (size_t i = 0; i < v.size(); ++i) {
      if (t[i] < t0 || t[i] >= t1) continue;
      count[static_cast<size_t>(static_cast<double>(t[i] - t0) / span *
                                windows)] += v[i];
    }
    for (double& c : count) c /= span / windows / 1e9;
    return count;
  }
};

/// Process CPU time and context switches (getrusage RUSAGE_SELF).
struct Usage {
  double cpu_s = 0;
  uint64_t ctxsw = 0;
  static Usage Now() {
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                  1e-6;
    u.ctxsw = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
    return u;
  }
};

/// Pins the calling thread to one CPU (threads it starts meanwhile inherit
/// the pin) and restores its previous mask on destruction; cpu < 0 leaves
/// the mask alone.
class ScopedCpu {
 public:
  explicit ScopedCpu(int cpu) {
    CPU_ZERO(&saved_);
    sched_getaffinity(0, sizeof(saved_), &saved_);
    if (cpu >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
  }
  ~ScopedCpu() { sched_setaffinity(0, sizeof(saved_), &saved_); }
  ScopedCpu(const ScopedCpu&) = delete;
  ScopedCpu& operator=(const ScopedCpu&) = delete;

 private:
  cpu_set_t saved_;
};

/// Peak resident set of this process in MiB (VmHWM).
double PeakRssMb();

/// Seconds the hypervisor ran other work on this machine's CPUs (steal
/// time, summed over CPUs, from /proc/stat); 0 where it is not reported.
double StealSeconds();

/// Flat JSON object writer: string/number/bool/raw members in insertion
/// order. Enough for the result lines; values are never nested deeper than
/// what callers pass in as raw JSON.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v);
  JsonObject& Int(const std::string& key, int64_t v);
  JsonObject& Str(const std::string& key, const std::string& v);
  JsonObject& Bool(const std::string& key, bool v);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string Render() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonEscape(const std::string& s);
std::string JsonArray(const std::vector<double>& values);

}  // namespace perfbench

#endif  // SENTINEL_PERFBENCH_UTIL_H_
