// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string_view>
#include <thread>
#include <utility>

#include "shmtp/handle.h"

namespace sentinel {
namespace net {

namespace {

constexpr size_t kReadChunk = 64 * 1024;
/// First retry backoff; RetryPolicy::max_backoff_ms caps its doubling.
constexpr uint32_t kInitialBackoffMs = 1;
/// Wait bound on LocalPublisher's shm path, per ack and per full-ring
/// push; expiring fails the call.
constexpr auto kShmTimeout = std::chrono::milliseconds(5000);

}  // namespace

// --- Connection --------------------------------------------------------------

Result<int> Connection::DialSocket(const std::string& host, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError("socket: " + std::string(std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status err = Status::IOError("connect " + host + ":" +
                                 std::to_string(port) + ": " +
                                 std::strerror(errno));
    ::close(fd);
    return err;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Result<std::unique_ptr<Connection>> Connection::Dial(const std::string& host,
                                                     uint16_t port,
                                                     ClientOptions options) {
  SENTINEL_ASSIGN_OR_RETURN(int fd, DialSocket(host, port));
  std::unique_ptr<Connection> conn(new Connection(fd));
  SENTINEL_RETURN_IF_ERROR(conn->Hello(options));
  return conn;
}

Status Connection::Hello(const ClientOptions& options) {
  HelloMsg hello;
  hello.tenant = options.tenant;
  SENTINEL_ASSIGN_OR_RETURN(
      HelloReplyMsg msg,
      Call<HelloReplyMsg>(FrameType::kHello, hello, FrameType::kHelloReply));
  server_max_frame_body_ = msg.max_frame_body;
  server_ = msg.server;
  return Status::OK();
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

Status Connection::SendRaw(const std::string& bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("send: " + std::string(std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status Connection::SendFrame(FrameType type, const std::string& body) {
  std::string wire;
  SENTINEL_RETURN_IF_ERROR(EncodeFrame(type, body, &wire));
  return SendRaw(wire);
}

Status Connection::ReadFrame(Frame* frame) {
  while (true) {
    size_t consumed = 0;
    Status error;
    DecodeProgress progress = TryDecodeFrame(inbuf_, kDefaultMaxFrameBody,
                                             frame, &consumed, &error);
    if (progress == DecodeProgress::kFrame) {
      inbuf_.erase(0, consumed);
      return Status::OK();
    }
    if (progress == DecodeProgress::kError) return error;

    char chunk[kReadChunk];
    ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return Status::IOError("server closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("recv: " + std::string(std::strerror(errno)));
    }
    inbuf_.append(chunk, static_cast<size_t>(n));
  }
}

Status Connection::Exchange(FrameType type, const std::string& body,
                            FrameType reply_type, Frame* reply) {
  SENTINEL_RETURN_IF_ERROR(SendFrame(type, body));
  SENTINEL_RETURN_IF_ERROR(ReadFrame(reply));
  if (reply->type == reply_type) {
    return reply_type == FrameType::kStatusReply
               ? ExpectStatusReply(*reply, nullptr)
               : Status::OK();
  }
  if (reply->type == FrameType::kStatusReply) {
    // The server answered with its error in place of the reply.
    Status s = ExpectStatusReply(*reply, nullptr);
    if (!s.ok()) return s;
  }
  return Status::Internal(
      "expected reply frame type " +
      std::to_string(static_cast<int>(reply_type)) + ", got type " +
      std::to_string(static_cast<int>(reply->type)));
}

Status Connection::ExpectStatusReply(const Frame& reply, uint64_t* payload) {
  if (reply.type != FrameType::kStatusReply) {
    return Status::Internal("expected StatusReply, got frame type " +
                            std::to_string(static_cast<int>(reply.type)));
  }
  SENTINEL_ASSIGN_OR_RETURN(StatusReplyMsg msg,
                            StatusReplyMsg::Decode(reply.body));
  if (payload != nullptr) *payload = msg.payload;
  return msg.ToStatus();
}

Status Connection::Ping() {
  PingMsg msg;
  msg.token = 0x53454e54;  // Arbitrary; verified in the echo.
  SENTINEL_ASSIGN_OR_RETURN(
      PongMsg pong, Call<PongMsg>(FrameType::kPing, msg, FrameType::kPong));
  if (pong.token != msg.token) return Status::Internal("pong token mismatch");
  return Status::OK();
}

Status Connection::CreateRule(const CreateRuleMsg& spec) {
  return Call(FrameType::kCreateRule, spec);
}

Status Connection::RuleToggle(FrameType type, const std::string& name) {
  RuleNameMsg msg;
  msg.name = name;
  return Call(type, msg);
}

Status Connection::EnableRule(const std::string& name) {
  return RuleToggle(FrameType::kEnableRule, name);
}

Status Connection::DisableRule(const std::string& name) {
  return RuleToggle(FrameType::kDisableRule, name);
}

Result<std::string> Connection::GetStats(uint32_t sections) {
  StatsRequestMsg msg;
  msg.sections = sections;
  SENTINEL_ASSIGN_OR_RETURN(
      StatsReplyMsg stats,
      Call<StatsReplyMsg>(FrameType::kGetStats, msg, FrameType::kStatsReply));
  return std::move(stats.json);
}

// --- Publisher ---------------------------------------------------------------

Publisher::Publisher(FrameLink* link, size_t window)
    : link_(link), window_(window == 0 ? 1 : window) {}

void Publisher::Backoff(uint32_t* backoff_ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(*backoff_ms));
  *backoff_ms = std::min(*backoff_ms * 2, retry_policy_.max_backoff_ms);
}

Status Publisher::ReadAcks(std::vector<Ack>* out) {
  Frame reply;
  SENTINEL_RETURN_IF_ERROR(link_->ReadFrame(&reply));
  if (reply.type == FrameType::kStatusReply) {
    SENTINEL_ASSIGN_OR_RETURN(StatusReplyMsg msg,
                              StatusReplyMsg::Decode(reply.body));
    out->push_back(Ack{msg.ToStatus(), msg.payload});
    return Status::OK();
  }
  if (reply.type == FrameType::kBatchStatusReply) {
    SENTINEL_ASSIGN_OR_RETURN(BatchStatusReplyMsg batch,
                              BatchStatusReplyMsg::Decode(reply.body));
    for (const BatchStatusReplyMsg::Run& run : batch.runs) {
      StatusReplyMsg one;
      one.code = run.code;
      one.message = run.message;
      one.payload = run.payload;
      Status s = one.ToStatus();
      for (uint32_t i = 0; i < run.count; ++i) {
        out->push_back(Ack{s, run.payload});
      }
    }
    return Status::OK();
  }
  return Status::Internal("expected an ack frame, got type " +
                          std::to_string(static_cast<int>(reply.type)));
}

Status Publisher::SendWindowed(
    const std::vector<const RaiseEventMsg*>& pending,
    std::vector<Ack>* acks) {
  acks->clear();
  acks->reserve(pending.size());
  size_t sent = 0;
  size_t scanned = 0;  ///< Acks already inspected by the stall check.
  bool stalled = false;
  std::string wire;
  while (acks->size() < pending.size()) {
    // A stalled window only drains: once every in-flight frame is acked,
    // the pass ends and the unsent tail is reported below.
    if (stalled && acks->size() == sent) break;
    // Top the window up with one coalesced send — unless a transient
    // rejection stalled it: pumping more frames at a server that just
    // answered ResourceExhausted/Busy can only deepen the rejection run,
    // so the pass stops advancing at the first failed seq instead.
    if (!stalled && sent < pending.size() &&
        sent - acks->size() < window_) {
      wire.clear();
      size_t burst_end = std::min(pending.size(), acks->size() + window_);
      for (; sent < burst_end; ++sent) {
        enc_.Clear();
        pending[sent]->Encode(&enc_);
        SENTINEL_RETURN_IF_ERROR(
            EncodeFrame(FrameType::kRaiseEvent, enc_.buffer(), &wire));
      }
      SENTINEL_RETURN_IF_ERROR(link_->SendRaw(wire));
    }
    SENTINEL_RETURN_IF_ERROR(ReadAcks(acks));
    if (acks->size() > sent) {
      return Status::Internal("server acked more raises than were sent");
    }
    while (scanned < acks->size() && !stalled) {
      if (IsTransient((*acks)[scanned].status)) {
        stalled = true;
        // Latched, not overwritten: on a retry pass the indices are
        // relative to the retry subset, while callers want the seq within
        // the original request — which the first (full) pass recorded.
        if (first_rejected_seq_ == kNoRejectedSeq) {
          first_rejected_seq_ = scanned;
        }
        break;
      }
      ++scanned;
    }
  }
  if (stalled && acks->size() < pending.size()) {
    // The never-sent tail: each withheld raise is reported as its own
    // transient rejection, so the retry loop re-sends exactly this subset
    // and `*rejected` accounting stays 1:1 with the request.
    Status withheld = Status::ResourceExhausted(
        "raise withheld: window stalled by a rejection at seq " +
        std::to_string(scanned));
    while (acks->size() < pending.size()) {
      acks->push_back(Ack{withheld, 0});
    }
  }
  return Status::OK();
}

Result<uint64_t> Publisher::Raise(const std::string& class_name,
                                  const std::string& method,
                                  EventModifier modifier,
                                  const ValueList& params, uint64_t oid) {
  RaiseEventMsg msg;
  msg.oid = oid;
  msg.class_name = class_name;
  msg.method = method;
  msg.modifier = modifier;
  msg.params = params;
  enc_.Clear();
  msg.Encode(&enc_);
  std::string wire;
  SENTINEL_RETURN_IF_ERROR(
      EncodeFrame(FrameType::kRaiseEvent, enc_.buffer(), &wire));
  uint32_t backoff = kInitialBackoffMs;
  std::vector<Ack> acks;
  for (int attempt = 1;; ++attempt) {
    SENTINEL_RETURN_IF_ERROR(link_->SendRaw(wire));
    acks.clear();
    while (acks.empty()) {
      SENTINEL_RETURN_IF_ERROR(ReadAcks(&acks));
    }
    if (acks.size() != 1) {
      return Status::Internal("expected one ack for a single raise");
    }
    if (acks[0].status.ok()) return acks[0].payload;
    if (!IsTransient(acks[0].status) ||
        attempt >= retry_policy_.max_attempts) {
      return acks[0].status;
    }
    ++retries_total_;
    Backoff(&backoff);
  }
}

Status Publisher::RaisePipelined(const std::vector<RaiseEventMsg>& msgs,
                                 uint64_t* rejected) {
  if (rejected != nullptr) *rejected = 0;
  first_rejected_seq_ = kNoRejectedSeq;
  std::vector<const RaiseEventMsg*> pending;
  pending.reserve(msgs.size());
  for (const RaiseEventMsg& msg : msgs) pending.push_back(&msg);

  Status first_error = Status::OK();
  Status first_transient = Status::OK();
  uint32_t backoff = kInitialBackoffMs;
  std::vector<Ack> acks;
  for (int attempt = 1; !pending.empty(); ++attempt) {
    // Windowed pass: acks map 1:1 onto `pending` in request order — which
    // is what lets a retry re-send exactly the rejected subset.
    SENTINEL_RETURN_IF_ERROR(SendWindowed(pending, &acks));

    std::vector<const RaiseEventMsg*> retry;
    first_transient = Status::OK();
    for (size_t i = 0; i < pending.size(); ++i) {
      const Status& s = acks[i].status;
      if (s.ok()) continue;
      if (IsTransient(s)) {
        retry.push_back(pending[i]);
        if (first_transient.ok()) first_transient = s;
      } else if (first_error.ok()) {
        first_error = s;
      }
    }
    if (retry.empty() || attempt >= retry_policy_.max_attempts) {
      pending = std::move(retry);
      break;
    }
    retries_total_ += retry.size();
    pending = std::move(retry);
    Backoff(&backoff);
  }

  if (rejected != nullptr) *rejected = pending.size();
  if (!first_error.ok()) return first_error;
  if (!pending.empty()) return first_transient;
  return Status::OK();
}

// --- Subscriber --------------------------------------------------------------

Status Subscriber::Subscribe(const std::string& key) {
  SubscribeMsg msg;
  msg.key = key;
  return conn_->Call(FrameType::kSubscribe, msg);
}

Result<std::vector<Notification>> Subscriber::Fetch(uint32_t max,
                                                    uint32_t wait_ms) {
  FetchMsg msg;
  msg.max = max;
  msg.wait_ms = wait_ms;
  SENTINEL_ASSIGN_OR_RETURN(
      NotificationBatchMsg batch,
      conn_->Call<NotificationBatchMsg>(FrameType::kFetchNotifications, msg,
                                        FrameType::kNotificationBatch));
  return std::move(batch.items);
}

Result<std::vector<Notification>> Subscriber::HistoryScan(
    const HistoryScanMsg& query, bool* complete, HistoryScanMsg* resume) {
  SENTINEL_ASSIGN_OR_RETURN(
      HistoryBatchMsg batch,
      conn_->Call<HistoryBatchMsg>(FrameType::kHistoryScan, query,
                                   FrameType::kHistoryBatch));
  if (complete != nullptr) *complete = batch.complete;
  if (resume != nullptr) {
    *resume = query;
    if (!batch.items.empty()) {
      resume->after_seq = batch.next_seq;
    }
  }
  return std::move(batch.items);
}

Result<std::vector<Notification>> Subscriber::HistoryScanAll(
    HistoryScanMsg query, uint32_t page_limit) {
  query.limit = page_limit;
  std::vector<Notification> all;
  while (true) {
    bool complete = false;
    SENTINEL_ASSIGN_OR_RETURN(std::vector<Notification> batch,
                              HistoryScan(query, &complete, &query));
    // An empty clamped page cannot advance the cursor; bail rather than
    // spin (it would take a server bug to produce one).
    const bool stuck = !complete && batch.empty();
    all.insert(all.end(), std::make_move_iterator(batch.begin()),
               std::make_move_iterator(batch.end()));
    if (complete) return all;
    if (stuck) return Status::Internal("history page empty but incomplete");
  }
}

// --- LocalPublisher ----------------------------------------------------------

namespace {

/// The shared-memory FrameLink: each frame is one job-ring record, and
/// replies come off the ring's completion stream.
class ShmLink final : public FrameLink {
 public:
  explicit ShmLink(std::unique_ptr<shmtp::ShmHandle> handle)
      : handle_(std::move(handle)) {}

  Status SendRaw(const std::string& bytes) override {
    for (size_t at = 0; at < bytes.size();) {
      if (bytes.size() - at < kFrameHeaderSize) {
        return Status::InvalidArgument("partial frame header");
      }
      // The header's low 24 bits (little-endian) are the body length.
      const auto* h = reinterpret_cast<const uint8_t*>(bytes.data() + at);
      const size_t len =
          kFrameHeaderSize + static_cast<size_t>(h[0] | h[1] << 8 | h[2] << 16);
      if (len > bytes.size() - at) {
        return Status::InvalidArgument("partial frame body");
      }
      SENTINEL_RETURN_IF_ERROR(Push(std::string_view(bytes).substr(at, len)));
      at += len;
    }
    return Status::OK();
  }

  Status ReadFrame(Frame* frame) override {
    return handle_->ReadAckFrame(frame, kShmTimeout);
  }

 private:
  /// A full job ring is not an error: the host is momentarily behind and
  /// drains it without waiting on this producer, so yield until it has
  /// room — bounded like an ack wait, in case the host stopped.
  Status Push(std::string_view frame) {
    const auto deadline = std::chrono::steady_clock::now() + kShmTimeout;
    while (true) {
      Status s = handle_->PushFrame(frame);
      if (!s.IsResourceExhausted()) return s;
      if (std::chrono::steady_clock::now() >= deadline) {
        return Status::Busy("timed out waiting for shmtp job-ring space");
      }
      std::this_thread::yield();
    }
  }

  std::unique_ptr<shmtp::ShmHandle> handle_;
};

}  // namespace

Result<std::unique_ptr<LocalPublisher>> LocalPublisher::Open(
    Options options) {
  if (!options.segment.empty()) {
    Result<std::unique_ptr<shmtp::ShmHandle>> attached =
        shmtp::ShmHandle::Attach(options.segment);
    if (attached.ok()) {
      return std::unique_ptr<LocalPublisher>(new LocalPublisher(
          std::make_unique<ShmLink>(std::move(attached).value()),
          options.window, true));
    }
    // Any attach failure — segment absent, rings exhausted, layout
    // mismatch, host gone — downgrades to TCP, never to an error: the
    // caller asked for the gateway, not for a transport.
  }
  SENTINEL_ASSIGN_OR_RETURN(std::unique_ptr<Connection> conn,
                            Connection::Dial(options.host, options.port));
  return std::unique_ptr<LocalPublisher>(
      new LocalPublisher(std::move(conn), options.window, false));
}

}  // namespace net
}  // namespace sentinel
