// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "workload.h"

#include "util.h"

namespace perfbench {

const char* MethodName(uint8_t method) {
  switch (method) {
    case kReset: return "Reset";
    case kAlarm: return "Alarm";
    default: return "Report";
  }
}

namespace {

std::vector<WorkloadSpec> BuildWorkloads() {
  std::vector<WorkloadSpec> all;

  // Bulk remote ingest: Zipf-skewed raises on 1024 sensors, one class rule
  // whose condition passes ~10% and whose action does nothing, 1 in 64
  // raises an Alarm a subscriber watches. Nothing is written, so the cost
  // is the wire, the reactor, the ingress queue, and the raise path.
  WorkloadSpec ingest;
  ingest.name = "ingest_tcp";
  ingest.kind = Kind::kIngest;
  ingest.oids = 1024;
  ingest.zipf_s = 0.99;
  ingest.open_rate_eps = 20000;
  ingest.alarm_one_in = 64;
  ingest.pass_per_mille = 100;
  ingest.window = 1024;
  ingest.batch = 1024;
  ingest.server.io_threads = 1;
  ingest.server.ingress_capacity = 8192;
  all.push_back(ingest);

  // Replicated history: uniform raises over 20000 sensors. Per class, an
  // immediate rule whose action reads the raised sensor's 320-byte state
  // object (the 20000 objects are ~6x the default 1 MiB buffer pool, so
  // most reads miss it) and a deferred rule on Seq(Report, Reset). The
  // detector keeps 256 occurrences in memory and spills the rest into
  // history segments; the primary mirrors every occurrence for a hot
  // standby, on a CPU of its own, which replays the history through its
  // own detector. No rule writes, so no commit waits on an fsync: on a
  // shared disk the fsync time moved every figure of a writing workload
  // by 40% to 2.5x between runs (README.md, "Workloads").
  WorkloadSpec history;
  history.name = "history_repl";
  history.kind = Kind::kReplicated;
  history.classes[0] = "SensorA";
  history.classes[1] = "SensorB";
  history.oids = 20000;
  history.zipf_s = 0;
  history.open_rate_eps = 2000;
  history.alarm_one_in = 8;
  history.reset_one_in = 8;
  history.pass_per_mille = 1000;
  history.state_bytes = 320;
  history.window = 256;
  history.batch = 256;
  history.follower = true;
  history.server.io_threads = 1;
  history.server.ingress_capacity = 8192;
  history.db.history_spill = true;
  history.db.occurrence_log_capacity = 256;
  all.push_back(history);
  return all;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  static const std::vector<WorkloadSpec> all = BuildWorkloads();
  for (const WorkloadSpec& spec : all) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

int ProducerFor(uint32_t oid_idx) {
  return static_cast<int>(sentinel::ShardIndexForOid(
      static_cast<sentinel::Oid>(kSensorBase + oid_idx), kProducers));
}

Inputs Generate(const WorkloadSpec& spec, uint64_t seed, size_t n_open) {
  Rng rng(seed * 0x2545F4914F6CDD1Dull + 0x5EED);
  Zipf zipf(spec.oids, spec.zipf_s);
  auto draw = [&]() {
    RaiseSpec r;
    r.oid_idx = static_cast<uint32_t>(zipf.Draw(&rng));
    r.sel = static_cast<uint16_t>(rng.Below(1000));
    if (spec.alarm_one_in != 0 && rng.Below(spec.alarm_one_in) == 0) {
      r.method = kAlarm;
    } else if (spec.reset_one_in != 0 && rng.Below(spec.reset_one_in) == 0) {
      r.method = kReset;
    }
    r.producer = static_cast<uint8_t>(ProducerFor(r.oid_idx));
    return r;
  };
  Inputs in;
  Digest digest;
  digest.Add(n_open);
  in.open.reserve(n_open);
  auto add = [&](const RaiseSpec& r) {
    digest.Add((uint64_t{r.oid_idx} << 32) | (uint64_t{r.method} << 24) |
               (uint64_t{r.producer} << 16) | r.sel);
  };
  for (size_t i = 0; i < n_open; ++i) {
    in.open.push_back(draw());
    add(in.open.back());
  }
  // The closed-loop pool: draw until each producer holds its share, so
  // both stay busy whatever the oid split.
  const size_t pool = spec.batch * 8;
  while (in.pool[0].size() < pool || in.pool[1].size() < pool) {
    RaiseSpec r = draw();
    if (in.pool[r.producer].size() < pool) {
      in.pool[r.producer].push_back(r);
      add(r);
    }
  }
  in.digest = digest.value();
  return in;
}

}  // namespace perfbench
