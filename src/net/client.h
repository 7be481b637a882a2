// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Client library for the Sentinel event gateway, split by role:
//
//   * Connection — one TCP connection: dialing, the Hello that names the
//     tenant, framing, and the unary control-plane calls (ping, rule
//     management, stats). Not thread safe; one instance per thread.
//   * Publisher — the producer role layered on a Connection: single raises
//     with retry, and windowed pipelined raises that keep a bounded number
//     of frames in flight while expanding the server's coalesced
//     BatchStatusReply acks back into per-request statuses.
//   * Subscriber — the consumer role: subscriptions and (long-poll)
//     notification fetches.
//
// Producers and consumers typically use separate connections so a
// consumer's long-poll never blocks a producer's raises — mirroring the
// paper's separation of the synchronous call interface from asynchronous
// event propagation.

#ifndef SENTINEL_NET_CLIENT_H_
#define SENTINEL_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/wire.h"

namespace sentinel {

namespace shmtp {
class ShmHandle;
}  // namespace shmtp

namespace net {

/// Retry policy for transient server rejections (ResourceExhausted from
/// backpressure or admission quotas, Busy from lock contention). Transport
/// errors are never retried — after a failed send/recv the connection state
/// is unknown. Default: no retries.
struct RetryPolicy {
  int max_attempts = 1;           ///< Total tries; 1 disables retry.
  uint32_t max_backoff_ms = 64;   ///< Backoff doubles from 1 ms up to this.
};

/// Dial-time options.
struct ClientOptions {
  /// Admission-quota domain this connection bills to ("" = default tenant).
  std::string tenant;
};

/// One blocking TCP connection to a GatewayServer: socket, framing, and the
/// unary request/response calls every role needs. Not thread safe.
class Connection {
 public:
  /// Connects to host:port (IPv4 dotted quad) and sends a Hello naming
  /// `options.tenant`.
  static Result<std::unique_ptr<Connection>> Dial(const std::string& host,
                                                  uint16_t port,
                                                  ClientOptions options = {});

  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Server's frame-body ceiling from the HelloReply.
  uint32_t server_max_frame_body() const { return server_max_frame_body_; }
  /// Server banner from the HelloReply.
  const std::string& server_banner() const { return server_; }

  // --- Framing (exposed for pipelining, benchmarks, and tests) ---------------

  /// Writes one request frame.
  Status SendFrame(FrameType type, const std::string& body);
  /// Writes pre-encoded frame bytes verbatim. Lets a pipelining caller (or
  /// a benchmark that must not encode inside its timed section) build the
  /// wire image up front.
  Status SendRaw(const std::string& bytes);
  /// Blocks until one whole response frame is available.
  Status ReadFrame(Frame* frame);
  /// SendFrame then ReadFrame: one strict request/response exchange.
  Status Call(FrameType type, const std::string& body, Frame* reply);
  /// Interprets a kStatusReply frame (error on other frame types).
  static Status ExpectStatusReply(const Frame& reply, uint64_t* payload);

  /// Encodes a frame exactly as SendFrame would, without sending — the
  /// building block for pre-encoded pipelined bursts.
  Status EncodeFrameTo(FrameType type, const std::string& body,
                       std::string* out) const {
    return EncodeFrame(type, body, out);
  }

  // --- Unary control plane ---------------------------------------------------

  /// Round-trips a token through the server.
  Status Ping();

  /// Creates an ECA rule server-side. Empty action name = the gateway's
  /// subscriber-notify action; empty condition name = always true.
  Status CreateRule(const CreateRuleMsg& spec);

  Status EnableRule(const std::string& name);
  Status DisableRule(const std::string& name);

  /// Fetches the server's stats snapshot as a JSON document. `sections`
  /// selects what it covers (StatsRequestMsg::kDatabase / kGateway bits).
  Result<std::string> GetStats(
      uint32_t sections = StatsRequestMsg::kDatabase |
                          StatsRequestMsg::kGateway);

 private:
  explicit Connection(int fd) : fd_(fd) {}

  static Result<int> DialSocket(const std::string& host, uint16_t port);
  /// Runs the Hello exchange.
  Status Hello(const ClientOptions& options);
  Status RuleToggle(FrameType type, const std::string& name);

  int fd_ = -1;
  std::string inbuf_;  ///< Bytes read past the last complete frame.
  uint32_t server_max_frame_body_ = kDefaultMaxFrameBody;
  std::string server_;
};

/// Producer role: raises events over a Connection it does not own. The
/// pipelined path keeps at most `window` raises in flight — enough to hide
/// the round trip, bounded so a slow server applies backpressure to the
/// producer instead of the producer ballooning both sides' buffers.
class Publisher {
 public:
  /// `connection` must outlive the Publisher. `window` of 0 means 1.
  explicit Publisher(Connection* connection, size_t window = 128);

  void set_retry_policy(const RetryPolicy& policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  /// Transient-rejection retries performed across all calls (for tests).
  uint64_t retries_total() const { return retries_total_; }

  /// Raises a primitive event remotely. `oid` 0 targets the server's
  /// default relay object for the class; returns the relay's oid so later
  /// raises can address the same instance.
  Result<uint64_t> Raise(const std::string& class_name,
                         const std::string& method, EventModifier modifier,
                         const ValueList& params, uint64_t oid = 0);

  /// Sends `msgs` with up to `window` in flight, collecting one ack per
  /// message (expanded from coalesced BatchStatusReply frames when the
  /// server batches). Returns OK when every raise was applied; otherwise
  /// the first non-OK ack (ResourceExhausted indicates backpressure or a
  /// quota). A transient rejection mid-pipeline stalls the window: frames
  /// not yet on the wire are withheld (and reported rejected) instead of
  /// being pumped at a server that just said no. Under a retry policy, the
  /// rejected subset — refused and withheld alike — is re-sent (with
  /// backoff) until it drains or attempts run out. `*rejected` (optional)
  /// counts raises still rejected as transient after all retries.
  Status RaisePipelined(const std::vector<RaiseEventMsg>& msgs,
                        uint64_t* rejected = nullptr);

  /// No raise was transiently rejected (yet).
  static constexpr uint64_t kNoRejectedSeq = ~0ull;

  /// Index into the most recent RaisePipelined call's `msgs` of the first
  /// transiently rejected raise, or kNoRejectedSeq when none was. Set as
  /// soon as the rejection's ack is read — the point where the window
  /// stops advancing.
  uint64_t first_rejected_seq() const { return first_rejected_seq_; }

 private:
  /// One per-request ack, in request order.
  struct Ack {
    Status status;
    uint64_t payload = 0;
  };

  /// Reads one response frame and appends the ack(s) it settles.
  Status ReadAcks(std::vector<Ack>* out);
  /// One windowed pass over `pending`; fills `acks` 1:1 with it.
  Status SendWindowed(const std::vector<const RaiseEventMsg*>& pending,
                      std::vector<Ack>* acks);

  static bool IsTransient(const Status& s) {
    return s.IsResourceExhausted() || s.IsBusy();
  }
  /// Sleeps for the current backoff and advances it (doubling to the cap).
  void Backoff(uint32_t* backoff_ms);

  Connection* conn_;
  size_t window_;
  RetryPolicy retry_policy_;
  uint64_t retries_total_ = 0;
  uint64_t first_rejected_seq_ = kNoRejectedSeq;
};

/// Consumer role: subscriptions and notification fetches over a Connection
/// it does not own.
class Subscriber {
 public:
  /// `connection` must outlive the Subscriber.
  explicit Subscriber(Connection* connection) : conn_(connection) {}

  /// Subscribes the connection to a notification key: an occurrence key
  /// ("end Employee::ChangeIncome") or a rule key ("rule:<name>").
  Status Subscribe(const std::string& key);

  /// Fetches up to `max` notifications, waiting up to `wait_ms` for the
  /// first (long-poll on the server; 0 returns immediately).
  Result<std::vector<Notification>> Fetch(uint32_t max, uint32_t wait_ms);

  /// Replays the server's spilled occurrence history matching `query`
  /// (Notification encoding; the subscription key field stays empty). Sets
  /// `*complete` to false (when non-null) if the server clamped the result
  /// at its per-scan ceiling; when that happens, `*resume` (when non-null)
  /// holds `query` with its after_seq cursor advanced past the
  /// last delivered row — pass it back to continue without duplicates.
  /// Requires the server database to run with history spill enabled;
  /// FailedPrecondition otherwise.
  Result<std::vector<Notification>> HistoryScan(const HistoryScanMsg& query,
                                                bool* complete = nullptr,
                                                HistoryScanMsg* resume =
                                                    nullptr);

  /// Pages HistoryScan to completion with `page_limit` rows per request
  /// (0 = the server's ceiling), following the resume cursor.
  Result<std::vector<Notification>> HistoryScanAll(HistoryScanMsg query,
                                                   uint32_t page_limit = 0);

 private:
  Connection* conn_;
};

/// Local-first producer: attaches to the gateway's shared-memory segment
/// (src/shmtp) when one is reachable and pushes raise frames with zero
/// syscalls on the hot path; otherwise it transparently dials TCP and
/// behaves exactly like a Publisher. The raise surface is a subset of
/// Publisher's, with identical semantics — acks are the same
/// StatusReply / ranged BatchStatusReply frames either way.
class LocalPublisher {
 public:
  struct Options {
    /// shm_open name of the server's segment; "" skips straight to TCP.
    std::string segment;
    /// TCP fallback target.
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    /// Raises kept in flight by RaisePipelined (0 means 1).
    size_t window = 256;
  };

  /// Attaches over shm, or — on any attach failure (no segment, rings
  /// exhausted, incompatible layout, dead host) — dials host:port.
  static Result<std::unique_ptr<LocalPublisher>> Open(Options options);

  ~LocalPublisher();

  LocalPublisher(const LocalPublisher&) = delete;
  LocalPublisher& operator=(const LocalPublisher&) = delete;

  /// True when raises travel through shared memory.
  bool via_shm() const { return shm_ != nullptr; }

  /// Single raise, strict request/response. Mirrors Publisher::Raise.
  Result<uint64_t> Raise(const std::string& class_name,
                         const std::string& method, EventModifier modifier,
                         const ValueList& params, uint64_t oid = 0);

  /// Windowed pipelined raises; mirrors Publisher::RaisePipelined without
  /// the retry machinery (one pass; `*rejected` counts transient
  /// rejections). On the shm path, backpressure is absorbed by the host's
  /// lossless deferral, so rejections only surface via quota acks.
  Status RaisePipelined(const std::vector<RaiseEventMsg>& msgs,
                        uint64_t* rejected = nullptr);

 private:
  LocalPublisher() = default;

  /// Shm-path windowed loop. `last_payload` (optional) receives the
  /// payload of the last OK ack — the relay oid for a single raise.
  Status RaisePipelinedShmInternal(const std::vector<RaiseEventMsg>& msgs,
                                   uint64_t* rejected,
                                   uint64_t* last_payload);

  std::unique_ptr<shmtp::ShmHandle> shm_;
  std::unique_ptr<Connection> conn_;      ///< TCP fallback (null with shm).
  std::unique_ptr<Publisher> tcp_;        ///< Lives on conn_.
  size_t window_ = 256;
};

}  // namespace net
}  // namespace sentinel

#endif  // SENTINEL_NET_CLIENT_H_
