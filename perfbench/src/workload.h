// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// The benchmark workloads and their seeded input generator.
//
// Every raise targets a reactive Sensor class (`Sensor` on ingest_tcp; on
// history_repl one class per producer, `SensorA` and `SensorB`) and
// carries three int params: a
// request id (shared by every span of that raise), its due time (ns after
// the phase origin; -1 for closed-loop raises, which have no schedule),
// and a condition selector in [0, 1000) that decides whether the
// benchmark's rule condition passes. The server receives nothing else.

#ifndef SENTINEL_PERFBENCH_WORKLOAD_H_
#define SENTINEL_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/database.h"
#include "net/server.h"

namespace perfbench {

/// Sensor oids are kSensorBase + index; each one's state object (what
/// history_repl's rule reads) is kStateBase + index.
constexpr uint64_t kSensorBase = 1000000;
constexpr uint64_t kStateBase = 2000000;

/// Methods of Sensor the generator draws from.
enum Method : uint8_t { kReport = 0, kReset = 1, kAlarm = 2 };
constexpr int kMethods = 3;
const char* MethodName(uint8_t method);

/// Generator producers (connections).
constexpr int kProducers = 2;

struct RaiseSpec {
  uint32_t oid_idx = 0;  ///< Sensor index; picks the producer for kReset.
  uint8_t method = kReport;
  uint8_t producer = 0;
  uint16_t sel = 0;      ///< Condition selector in [0, 1000).
};

enum class Kind { kIngest, kReplicated };

struct WorkloadSpec {
  std::string name;
  Kind kind = Kind::kIngest;
  /// The reactive class each producer raises on. Two classes give each
  /// producer its own class-default relay object, which its Resets target.
  std::string classes[kProducers] = {"Sensor", "Sensor"};
  size_t oids = 1024;            ///< Distinct Sensor objects.
  double zipf_s = 0;             ///< 0 = uniform oid draws.
  double open_rate_eps = 0;      ///< Offered rate of the open-loop phase.
  uint32_t alarm_one_in = 0;     ///< 1 in N raises is Sensor::Alarm.
  uint32_t reset_one_in = 0;     ///< 1 in N raises is Sensor::Reset.
  uint32_t pass_per_mille = 1000;  ///< Condition pass rate.
  size_t state_bytes = 0;        ///< Sensor state object size (0 = none).
  size_t window = 256;           ///< Closed-loop in-flight raises/producer.
  size_t batch = 1024;           ///< Raises per closed-loop pipelined call.
  bool follower = false;         ///< In-process hot standby.
  sentinel::net::ServerOptions server;  ///< Gateway.
  sentinel::Database::Options db;       ///< Database (dir set later).
};

/// The named workload, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Which producer owns sensor `oid_idx` (a hash of its oid). Each object
/// belongs to exactly one producer, so per-object order is the order that
/// producer sent in.
int ProducerFor(uint32_t oid_idx);

/// Wire oid of a raise: the sensor's oid, or 0 (the class-default relay)
/// for kReset, which therefore runs on the shard that owns its class's
/// rules.
inline uint64_t WireOid(const RaiseSpec& r) {
  return r.method == kReset ? 0 : kSensorBase + r.oid_idx;
}

inline const std::string& ClassOf(const WorkloadSpec& spec,
                                  const RaiseSpec& r) {
  return spec.classes[r.producer];
}

struct Inputs {
  std::vector<RaiseSpec> open;       ///< Open-loop schedule, evenly spaced.
  std::vector<RaiseSpec> pool[kProducers];  ///< Closed-loop raises, cycled.
  uint64_t digest = 0;               ///< FNV-1a over everything above.
};

/// Generates a workload's inputs from `seed`: `n_open` scheduled raises
/// (split over the run's rounds) plus a closed-loop pool of spec.batch * 8
/// raises per producer.
Inputs Generate(const WorkloadSpec& spec, uint64_t seed, size_t n_open);

}  // namespace perfbench

#endif  // SENTINEL_PERFBENCH_WORKLOAD_H_
