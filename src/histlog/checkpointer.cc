// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "histlog/checkpointer.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"

namespace sentinel {

void Checkpointer::Start() {
  if (options_.interval_ms == 0 && options_.wal_bytes == 0) return;
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
  using Clock = std::chrono::steady_clock;
  // Poll fast enough to notice WAL growth promptly but far slower than the
  // commit path; the time trigger is exact up to one poll tick.
  const auto poll = std::chrono::milliseconds(
      options_.interval_ms > 0
          ? std::max<uint32_t>(1, std::min<uint32_t>(options_.interval_ms, 50))
          : 50);
  auto last = Clock::now();
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait_for(lk, poll, [&] { return stop_; });
      if (stop_) return;
    }
    const auto now = Clock::now();
    bool due = false;
    if (options_.interval_ms > 0 &&
        now - last >= std::chrono::milliseconds(options_.interval_ms)) {
      due = true;
    }
    if (!due && options_.wal_bytes > 0 && wal_size_ &&
        wal_size_() >= options_.wal_bytes) {
      due = true;
    }
    if (!due) continue;
    last = now;
    Status s = checkpoint_();
    if (!s.ok()) {
      SENTINEL_WARN << "event=background_checkpoint_failed status=\""
                    << s.ToString() << "\"";
    }
  }
}

}  // namespace sentinel
