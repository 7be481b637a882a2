// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Checkpointer: a background thread that triggers fuzzy checkpoints so the
// WAL (and with it, recovery time) stays bounded without any mutator ever
// stalling for the checkpoint.
//
// One trigger: a WAL size threshold (`wal_bytes`). The thread polls the
// log size every 50 ms and checkpoints as soon as it has grown past the
// threshold, so the trigger lags by at most one poll tick.
//
// The checkpoint work itself (ObjectStore::Checkpoint) runs on this thread;
// commits proceed concurrently by design (see object_store.h). A failing
// checkpoint is logged and retried on the next trigger — a sticky WAL sync
// failure will surface through the commit path anyway. The store counts
// checkpoints and failures (storage.checkpoints/.checkpoint_failures); the
// driver keeps no counts of its own.

#ifndef SENTINEL_HISTLOG_CHECKPOINTER_H_
#define SENTINEL_HISTLOG_CHECKPOINTER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>

#include "common/status.h"

namespace sentinel {

/// WAL-size-triggered checkpoint driver.
class Checkpointer {
 public:
  /// `wal_bytes` is the trigger threshold (0 disables the checkpointer);
  /// `wal_size` reports the current WAL payload size; `checkpoint` runs one
  /// fuzzy checkpoint. Both are called from the background thread only.
  Checkpointer(uint64_t wal_bytes, std::function<uint64_t()> wal_size,
               std::function<Status()> checkpoint)
      : wal_bytes_(wal_bytes),
        wal_size_(std::move(wal_size)),
        checkpoint_(std::move(checkpoint)) {}

  ~Checkpointer() { Stop(); }

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// Starts the thread. No-op when `wal_bytes` is 0.
  void Start();

  /// Stops and joins the thread. Idempotent; safe without Start.
  void Stop();

 private:
  void Loop();

  const uint64_t wal_bytes_;
  const std::function<uint64_t()> wal_size_;
  const std::function<Status()> checkpoint_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace sentinel

#endif  // SENTINEL_HISTLOG_CHECKPOINTER_H_
