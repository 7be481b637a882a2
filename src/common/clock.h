// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Event timestamps. The paper's generated primitive event carries a
// "Time stamp indicating the time when the event was generated" (§4.1) and
// the Sequence operator compares timestamps to decide ordering (§4.3).
//
// A pure wall clock cannot order two events raised in the same microsecond,
// so Sentinel uses a hybrid timestamp: wall-clock micros plus a process-wide
// monotone sequence number that breaks ties deterministically.

#ifndef SENTINEL_COMMON_CLOCK_H_
#define SENTINEL_COMMON_CLOCK_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace sentinel {

/// Totally ordered event timestamp (wall micros + tie-breaking sequence).
struct Timestamp {
  int64_t micros = 0;   ///< Wall-clock microseconds since epoch.
  uint64_t seq = 0;     ///< Process-wide monotone tie breaker.

  bool operator==(const Timestamp&) const = default;
  bool operator<(const Timestamp& o) const {
    return seq < o.seq;  // seq is monotone per process, so it alone orders.
  }
  bool operator<=(const Timestamp& o) const { return !(o < *this); }
  bool operator>(const Timestamp& o) const { return o < *this; }
  bool operator>=(const Timestamp& o) const { return !(*this < o); }

  std::string ToString() const;
};

/// Monotonic nanoseconds since an arbitrary epoch (steady clock). This is
/// the only clock benchmarks and latency metrics may difference: wall time
/// (Clock::Now().micros) can jump under NTP and makes intervals
/// incomparable across runs.
int64_t SteadyNowNs();

/// Issues totally ordered timestamps. Thread safe.
class Clock {
 public:
  /// Returns the next timestamp; every call is strictly greater than all
  /// previous calls within the process.
  static Timestamp Now();

  /// Test hook: makes subsequent Now() calls start at `seq` (micros keep
  /// tracking the wall clock). Only used by deterministic tests.
  static void ResetSequenceForTest(uint64_t seq);

  /// Ensures every future Now() returns a seq strictly greater than `seq`
  /// (monotone CAS-max; never moves the clock backwards). Database::Open,
  /// Replicator::Start and a promoted replica call this with the largest
  /// seq their history already holds, so new timestamps extend — never
  /// collide with — that history after a restart.
  static void AdvanceTo(uint64_t seq);

 private:
  static std::atomic<uint64_t> sequence_;
};

}  // namespace sentinel

#endif  // SENTINEL_COMMON_CLOCK_H_
