// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "net/session.h"

#include <algorithm>

namespace sentinel {
namespace net {

namespace {

/// Outbox chunk target: QueueReply appends into the tail chunk until it
/// reaches this size, then starts a new one. Big enough that a burst of
/// small acks coalesces into one iovec; small enough that a writev never
/// stages more than a few syscalls' worth per chunk.
constexpr size_t kOutChunkTarget = 64 * 1024;

/// Deterministic size estimate for the per-session notify-bytes quota.
/// Deliberately cheap (no encode pass): fixed frame overhead plus the
/// variable-length fields, string params included. Add and subtract use
/// the same function, so the running total never drifts.
size_t ApproxNotificationBytes(const Notification& n) {
  size_t bytes = 48 + n.key.size() + n.class_name.size() + n.method.size();
  for (const Value& p : n.params) {
    bytes += 16 + (p.is_string() ? p.AsString().size() : 0);
  }
  return bytes;
}

}  // namespace

void Session::QueueReply(FrameType type, const std::string& body) {
  if (QueueReplyQuiet(type, body) && flush_notifier_) flush_notifier_(this);
}

bool Session::QueueReplyQuiet(FrameType type, const std::string& body) {
  std::lock_guard<std::mutex> lock(out_mu_);
  const bool was_empty = outbox_.empty();
  if (was_empty || outbox_.back().size() >= kOutChunkTarget) {
    outbox_.emplace_back();
    outbox_.back().reserve(
        std::min(kOutChunkTarget, kFrameHeaderSize + body.size()));
  }
  Status framed = EncodeFrame(type, body, &outbox_.back());
  if (!framed.ok()) {
    // No peer could read such a frame: send the reason in its place.
    Encoder enc;
    StatusReplyMsg::FromStatus(framed).Encode(&enc);
    EncodeFrame(FrameType::kStatusReply, enc.buffer(), &outbox_.back()).ok();
  }
  return was_empty;
}

void Session::TakeOutput(std::deque<std::string>* wq) {
  std::lock_guard<std::mutex> lock(out_mu_);
  while (!outbox_.empty()) {
    wq->push_back(std::move(outbox_.front()));
    outbox_.pop_front();
  }
}

bool Session::HasOutput() const {
  std::lock_guard<std::mutex> lock(out_mu_);
  return !outbox_.empty();
}

// --- NotificationHub ---------------------------------------------------------

void NotificationHub::Add(std::shared_ptr<Session> session) {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_[session->id()] = std::move(session);
}

std::shared_ptr<Session> NotificationHub::Find(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

std::vector<std::string> NotificationHub::ReapSessionState(Session* session) {
  std::lock_guard<std::mutex> note(session->note_mu);
  // A fetch parked past this point would never be answered (the socket is
  // gone) yet would keep a live deadline entry busy — cancel it outright;
  // the deadline map entry goes stale and expiry skips it.
  session->fetch_parked = false;
  session->pending.clear();
  session->pending_bytes = 0;
  std::vector<std::string> keys(session->subscriptions.begin(),
                                session->subscriptions.end());
  session->subscriptions.clear();
  return keys;
}

void NotificationHub::Remove(uint64_t id) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return;
    session = std::move(it->second);
    sessions_.erase(it);
  }
  std::vector<std::string> keys = ReapSessionState(session.get());
  if (!keys.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    size_t removed = 0;
    for (const std::string& key : keys) {
      auto it = subs_by_key_.find(key);
      if (it == subs_by_key_.end()) continue;
      removed += it->second.erase(id);
      if (it->second.empty()) subs_by_key_.erase(it);
    }
    // Decrement by what the index actually held, not keys.size(): a racing
    // Subscribe may have added to the session's subscription set without
    // reaching the index yet (it will see the session deregistered and
    // roll its insert back), so the reaped key list can overcount. The
    // invariant is sub_count_ == total index entries, both under mu_.
    sub_count_.fetch_sub(removed, std::memory_order_relaxed);
  }
}

void NotificationHub::Clear() {
  std::map<uint64_t, std::shared_ptr<Session>> sessions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions.swap(sessions_);
    subs_by_key_.clear();
    parked_.clear();
    sub_count_.store(0, std::memory_order_relaxed);
  }
  for (auto& [id, session] : sessions) ReapSessionState(session.get());
}

void NotificationHub::Subscribe(const std::shared_ptr<Session>& session,
                                const std::string& key) {
  bool inserted;
  {
    std::lock_guard<std::mutex> note(session->note_mu);
    inserted = session->subscriptions.insert(key).second;
  }
  if (!inserted) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.count(session->id()) != 0) {
      if (subs_by_key_[key].insert(session->id()).second) {
        sub_count_.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
  }
  // The session was reaped between the two locks. Its Remove() may have
  // run before our insert and so never saw this key; updating the index
  // now would leak an entry (and permanently a sub_count_) that no
  // Remove() will ever clean up. Undo the insert instead.
  std::lock_guard<std::mutex> note(session->note_mu);
  session->subscriptions.erase(key);
}

void NotificationHub::ParkFetch(
    const std::shared_ptr<Session>& session, uint32_t max,
    std::chrono::steady_clock::time_point deadline) {
  {
    std::lock_guard<std::mutex> note(session->note_mu);
    session->fetch_parked = true;
    session->fetch_max = max;
    session->fetch_deadline = deadline;
  }
  std::lock_guard<std::mutex> lock(mu_);
  parked_.emplace(deadline, session->id());
}

size_t NotificationHub::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

std::vector<std::shared_ptr<Session>> NotificationHub::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<Session>> out;
  out.reserve(sessions_.size());
  for (const auto& [id, session] : sessions_) out.push_back(session);
  return out;
}

void ReplyWithBatchLocked(Session* session, uint32_t max) {
  NotificationBatchMsg batch;
  size_t n = std::min<size_t>(max, session->pending.size());
  for (size_t i = 0; i < n; ++i) {
    Notification& front = session->pending.front();
    size_t bytes = ApproxNotificationBytes(front);
    session->pending_bytes -= std::min(session->pending_bytes, bytes);
    batch.items.push_back(std::move(front));
    session->pending.pop_front();
  }
  session->Reply(FrameType::kNotificationBatch, batch);
}

void ReplyWithBatch(Session* session, uint32_t max) {
  std::lock_guard<std::mutex> note(session->note_mu);
  ReplyWithBatchLocked(session, max);
}

size_t NotificationHub::Broadcast(const std::string& key,
                                  const std::function<Notification()>& make,
                                  size_t max_count) {
  // Fast miss: nobody anywhere is subscribed (the raw-throughput case).
  if (sub_count_.load(std::memory_order_relaxed) == 0) return 0;

  // Indexed fan-out: resolve only this key's subscribers, not every
  // session. The shared_ptrs pin the sessions while their note_mu work
  // proceeds outside the registry lock.
  std::vector<std::shared_ptr<Session>> targets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = subs_by_key_.find(key);
    if (it == subs_by_key_.end()) return 0;
    targets.reserve(it->second.size());
    for (uint64_t id : it->second) {
      auto sit = sessions_.find(id);
      if (sit != sessions_.end()) targets.push_back(sit->second);
    }
  }

  if (targets.empty()) return 0;

  const Notification n = make();
  size_t reached = 0;
  uint64_t dropped = 0;
  const size_t n_bytes = ApproxNotificationBytes(n);
  max_count = std::max<size_t>(max_count, 1);
  for (const std::shared_ptr<Session>& session : targets) {
    std::lock_guard<std::mutex> note(session->note_mu);
    // The index can briefly lag a reap; the cleared subscription set is
    // authoritative.
    if (session->subscriptions.count(key) == 0) continue;
    ++reached;
    session->pending.push_back(n);
    session->pending_bytes += n_bytes;
    while (session->pending.size() > max_count ||
           (session->pending_bytes > kMaxPendingNotifyBytes &&
            session->pending.size() > 1)) {
      size_t bytes = ApproxNotificationBytes(session->pending.front());
      session->pending_bytes -= std::min(session->pending_bytes, bytes);
      session->pending.pop_front();
      ++session->dropped_notifications;
      ++dropped;
    }
    m_backlog_->Record(static_cast<int64_t>(session->pending.size()));
    if (session->fetch_parked) {
      session->fetch_parked = false;
      ReplyWithBatchLocked(session.get(), session->fetch_max);
    }
  }
  m_enqueued_->Add(reached);
  m_dropped_->Add(dropped);
  return reached;
}

size_t NotificationHub::ExpireParkedFetches(
    std::chrono::steady_clock::time_point now) {
  // Pop only due deadline entries; each may be stale (completed early,
  // re-parked, or reaped), in which case the session-side check skips it.
  std::vector<std::shared_ptr<Session>> due;
  {
    std::lock_guard<std::mutex> lock(mu_);
    while (!parked_.empty() && parked_.begin()->first <= now) {
      auto it = sessions_.find(parked_.begin()->second);
      if (it != sessions_.end()) due.push_back(it->second);
      parked_.erase(parked_.begin());
    }
  }
  size_t expired = 0;
  for (const std::shared_ptr<Session>& session : due) {
    std::lock_guard<std::mutex> note(session->note_mu);
    if (!session->fetch_parked || session->fetch_deadline > now) continue;
    session->fetch_parked = false;
    ReplyWithBatchLocked(session.get(), session->fetch_max);
    ++expired;
  }
  return expired;
}

std::chrono::steady_clock::time_point NotificationHub::NextDeadline(
    std::chrono::steady_clock::time_point fallback) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (parked_.empty()) return fallback;
  return std::min(parked_.begin()->first, fallback);
}

}  // namespace net
}  // namespace sentinel
