// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "histlog/checkpointer.h"

#include <chrono>

#include "common/logging.h"

namespace sentinel {

void Checkpointer::Start() {
  if (wal_bytes_ == 0) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (thread_.joinable()) return;
    stop_ = false;
  }
  thread_ = std::thread([this] { Loop(); });
}

void Checkpointer::Stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Checkpointer::Loop() {
  // Poll fast enough to notice WAL growth promptly but far slower than the
  // commit path.
  constexpr auto kPoll = std::chrono::milliseconds(50);
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait_for(lk, kPoll, [&] { return stop_; });
      if (stop_) return;
    }
    if (wal_size_() < wal_bytes_) continue;
    Status s = checkpoint_();
    if (!s.ok()) {
      SENTINEL_WARN << "event=background_checkpoint_failed status=\""
                    << s.ToString() << "\"";
    }
  }
}

}  // namespace sentinel
