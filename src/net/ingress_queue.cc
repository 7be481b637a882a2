// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "net/ingress_queue.h"

#include <algorithm>

namespace sentinel {
namespace net {

IngressQueue::IngressQueue(size_t capacity, MetricsRegistry& metrics,
                           const std::string& suffix)
    : capacity_(std::max<size_t>(capacity, 1)),
      m_depth_(metrics.gauge("net.ingress.depth" + suffix)),
      m_rejected_(metrics.counter("net.ingress.rejected" + suffix)) {}

Status IngressQueue::TryPush(IngressItem item) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status::FailedPrecondition("ingress queue is shut down");
    }
    if (items_.size() >= capacity_) {
      m_rejected_->Add();
      return Status::ResourceExhausted("ingress queue full (" +
                                       std::to_string(capacity_) + ")");
    }
    items_.push_back(std::move(item));
    m_depth_->Set(static_cast<int64_t>(items_.size()));
  }
  not_empty_.notify_one();
  return Status::OK();
}

size_t IngressQueue::TryPushBatch(std::vector<IngressItem>* items) {
  if (items->empty()) return 0;
  size_t accepted = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!shutdown_) {
      while (accepted < items->size() && items_.size() < capacity_) {
        items_.push_back(std::move((*items)[accepted]));
        ++accepted;
      }
    }
    const size_t rejected = items->size() - accepted;
    if (rejected > 0) m_rejected_->Add(rejected);
    if (accepted > 0) m_depth_->Set(static_cast<int64_t>(items_.size()));
  }
  if (accepted > 0) {
    items->erase(items->begin(), items->begin() + accepted);
    not_empty_.notify_one();
  }
  return accepted;
}

size_t IngressQueue::PopBatch(size_t max_batch, std::chrono::milliseconds wait,
                              std::vector<IngressItem>* out) {
  if (max_batch == 0) return 0;
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait_for(lock, wait,
                      [this] { return !items_.empty() || shutdown_; });
  size_t n = std::min(max_batch, items_.size());
  for (size_t i = 0; i < n; ++i) {
    out->push_back(std::move(items_.front()));
    items_.pop_front();
  }
  if (n > 0) m_depth_->Set(static_cast<int64_t>(items_.size()));
  return n;
}

bool IngressQueue::WaitReady(std::chrono::milliseconds wait) {
  std::unique_lock<std::mutex> lock(mu_);
  return not_empty_.wait_for(lock, wait,
                             [this] { return !items_.empty() || shutdown_; });
}

void IngressQueue::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  not_empty_.notify_all();
}

bool IngressQueue::DrainedAfterShutdown() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_ && items_.empty();
}

bool IngressQueue::shutdown() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_;
}

size_t IngressQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return items_.size();
}

}  // namespace net
}  // namespace sentinel
