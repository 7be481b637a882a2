// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Deterministic failure injection.
//
// The paper makes rules "subject to the same transaction semantics" as
// ordinary objects — which is only meaningful if the substrate beneath them
// has crisp failure semantics. This registry lets tests (and brave
// operators) arm named failpoints woven through the storage, WAL,
// transaction, rule-scheduling, and gateway layers, then assert that
// recovery invariants hold no matter where execution was cut.
//
// A failpoint is identified by a stable dotted name ("layer.operation",
// e.g. "wal.append", "txn.commit.durable", "scheduler.deferred"; see
// DESIGN.md §9 for the full inventory). Each armed failpoint combines
//
//   * a trigger policy — always, on exactly the Nth hit, every Nth hit,
//     seeded probability, or one-shot — evaluated against a per-point hit
//     counter, and
//   * an action — return an injected Status, simulate a torn (partial)
//     write, or simulate a process crash.
//
// A simulated crash sets a process-wide, test-visible flag: every
// subsequent failpoint check fails with IOError until ClearCrash()/Reset(),
// and WalManager's Close path discards its unflushed stdio buffer instead
// of flushing it — so log appends that never reached the kernel are
// genuinely lost, exactly as if the process had died. (Heap pages go to
// the kernel with one pwrite each, so there is no heap buffer to lose.)
//
// Configuration is programmatic (Enable), by spec string
// (Database::Options::failpoints), or by the SENTINEL_FAILPOINTS
// environment variable. Spec grammar:
//
//   spec   := entry (';' entry)*
//   entry  := name '=' action ('@' policy)?
//   action := 'crash' | 'partial(' BYTES ')' | 'ioerror' | 'corruption'
//           | 'aborted' | 'busy' | 'resource_exhausted' | 'internal'
//   policy := 'hit(' N ')' | 'every(' N ')' | 'prob(' P ',' SEED ')'
//           | 'once'                            (default: always)
//
//   e.g. SENTINEL_FAILPOINTS='wal.sync=crash@hit(3);disk.write_page=ioerror@prob(0.1,42)'
//
// When nothing is armed and no crash is simulated, the hot-path cost of a
// hook is one relaxed atomic load (see SENTINEL_FAILPOINT).

#ifndef SENTINEL_COMMON_FAILPOINT_H_
#define SENTINEL_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace sentinel {

/// Process-wide registry of named failpoints. All methods are thread safe
/// (hooks are evaluated from gateway IO threads as well as the mutator).
class FailPoints {
 public:
  /// One armed failpoint: when to fire and what to do.
  struct Config {
    enum class Trigger {
      kAlways,       ///< Fire on every hit.
      kOnHit,        ///< Fire on exactly the Nth hit (once).
      kEveryN,       ///< Fire on every Nth hit.
      kProbability,  ///< Fire with probability `probability` (seeded PRNG).
      kOnce,         ///< Fire on the first hit only.
    };
    enum class Action {
      kReturnStatus,  ///< Check() returns `status`.
      kPartialWrite,  ///< Reports `partial_bytes` so the hook site can tear
                      ///< the write, and sets the crash flag (a torn write
                      ///< is only observable because the process died).
      kCrash,         ///< Sets the crash flag, then behaves like
                      ///< kReturnStatus for every later check.
    };

    Trigger trigger = Trigger::kAlways;
    uint64_t n = 1;            ///< For kOnHit / kEveryN.
    double probability = 0.0;  ///< For kProbability.
    uint64_t seed = 0;         ///< For kProbability.
    Action action = Action::kReturnStatus;
    Status status = Status::IOError("injected fault");
    size_t partial_bytes = 0;  ///< For kPartialWrite.
  };

  static FailPoints& Instance();

  /// True when any failpoint is armed or a crash is being simulated; the
  /// single-load fast path hooks check before taking the registry mutex.
  static bool AnyActive() {
    return active_count_.load(std::memory_order_relaxed) > 0 ||
           crashed_.load(std::memory_order_relaxed);
  }

  /// Arms `name` with `config` (replacing any previous arming; the hit
  /// counter is preserved so re-arming mid-run composes with hit(N)).
  Status Enable(const std::string& name, Config config);

  /// Arms failpoints from a spec string (grammar above). Entries are
  /// applied left to right; the first malformed entry aborts with
  /// InvalidArgument (earlier entries stay armed).
  Status EnableFromSpec(const std::string& spec);

  /// Disarms `name` (no-op when not armed).
  void Disable(const std::string& name);

  /// Disarms everything, clears the crash flag and all counters.
  void Reset();

  /// Evaluates the failpoint: bumps its hit counter and, if it fires,
  /// returns the injected non-OK status (setting the crash flag for kCrash
  /// actions). While a crash is simulated, every check fails with IOError —
  /// the "process" is down. `partial_bytes` (optional) receives the torn-
  /// write size for kPartialWrite actions, 0 otherwise.
  Status Check(const char* name, size_t* partial_bytes = nullptr);

  // --- Simulated-crash flag (test-visible) ----------------------------------

  bool crashed() const { return crashed_.load(std::memory_order_acquire); }
  /// Failpoint name whose kCrash action fired ("" when not crashed).
  std::string crash_point() const;
  /// Clears the crash flag without disarming failpoints.
  void ClearCrash();

  // --- Introspection ---------------------------------------------------------

  /// Times `name` was evaluated / actually fired since the last Reset.
  uint64_t hits(const std::string& name) const;
  uint64_t fired(const std::string& name) const;
  /// Total fires across all failpoints since the last Reset.
  uint64_t fired_total() const;
  /// Names currently armed.
  std::vector<std::string> armed() const;

 private:
  FailPoints();

  struct Point {
    Config config;
    bool armed = false;
    uint64_t hit_count = 0;
    uint64_t fired_count = 0;
    uint64_t prng_state = 0;
  };

  static std::atomic<int> active_count_;
  static std::atomic<bool> crashed_;

  mutable std::mutex mutex_;
  std::map<std::string, Point> points_;
  std::string crash_point_;
  uint64_t fired_total_ = 0;
};

/// Evaluates failpoint `name` and early-returns its injected status when it
/// fires. Works in any function returning Status or Result<T>. One relaxed
/// atomic load when nothing is armed.
#define SENTINEL_FAILPOINT(name)                                       \
  do {                                                                 \
    if (::sentinel::FailPoints::AnyActive()) {                         \
      ::sentinel::Status _fp_status =                                  \
          ::sentinel::FailPoints::Instance().Check(name);              \
      if (!_fp_status.ok()) return _fp_status;                         \
    }                                                                  \
  } while (0)

}  // namespace sentinel

#endif  // SENTINEL_COMMON_FAILPOINT_H_
