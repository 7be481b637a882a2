// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Client library for the Sentinel event gateway, split by role:
//
//   * FrameLink — the carrier under a producer: whole encoded frames out,
//     one reply frame in.
//   * Connection — one TCP connection and a FrameLink: dialing, the Hello
//     that names the tenant, framing, and the unary control-plane calls
//     (ping, rule management, stats), all through one checked Call. Not
//     thread safe; one instance per thread.
//   * Publisher — the producer role over a FrameLink: single raises with
//     retry, and windowed pipelined raises that keep a bounded number of
//     frames in flight while expanding the server's coalesced
//     BatchStatusReply acks back into per-request statuses.
//   * LocalPublisher — a Publisher that owns its link: the gateway's
//     shared-memory job ring when one is reachable, else a Connection. The
//     carrier changes nothing else — same window, stall and retry.
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
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/wire.h"

namespace sentinel {
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

/// The carrier a Publisher raises over: whole encoded frames out, one
/// reply frame in. A Connection is one; LocalPublisher's shared-memory
/// link is the other.
class FrameLink {
 public:
  FrameLink() = default;
  virtual ~FrameLink() = default;
  FrameLink(const FrameLink&) = delete;
  FrameLink& operator=(const FrameLink&) = delete;

  /// Writes pre-encoded whole frames, back to back, verbatim.
  virtual Status SendRaw(const std::string& bytes) = 0;
  /// Blocks until one whole reply frame is available.
  virtual Status ReadFrame(Frame* frame) = 0;
};

/// One blocking TCP connection to a GatewayServer: socket, framing, and the
/// unary request/response calls every role needs. Not thread safe.
class Connection : public FrameLink {
 public:
  /// Connects to host:port (IPv4 dotted quad) and sends a Hello naming
  /// `options.tenant`.
  static Result<std::unique_ptr<Connection>> Dial(const std::string& host,
                                                  uint16_t port,
                                                  ClientOptions options = {});

  ~Connection() override;

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
  Status SendRaw(const std::string& bytes) override;
  /// Blocks until one whole response frame is available.
  Status ReadFrame(Frame* frame) override;
  /// Interprets a kStatusReply frame (error on other frame types).
  static Status ExpectStatusReply(const Frame& reply, uint64_t* payload);

  /// One checked request/response exchange: sends `request` as a `type`
  /// frame and decodes the reply, which must be a `reply_type` frame. A
  /// StatusReply in its place is the server's error; any other frame type
  /// is Internal.
  template <typename Reply, typename Request>
  Result<Reply> Call(FrameType type, const Request& request,
                     FrameType reply_type) {
    Frame reply;
    SENTINEL_RETURN_IF_ERROR(Exchange(type, request, reply_type, &reply));
    return Reply::Decode(reply.body);
  }
  /// Call for a request answered by a bare StatusReply: its status is the
  /// result.
  template <typename Request>
  Status Call(FrameType type, const Request& request) {
    Frame reply;
    return Exchange(type, request, FrameType::kStatusReply, &reply);
  }

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

  /// Call's body, after encoding: sends, reads one reply, applies the
  /// reply rule. With `reply_type` kStatusReply the reply's own status is
  /// the result.
  Status Exchange(FrameType type, const std::string& body,
                  FrameType reply_type, Frame* reply);
  template <typename Request>
  Status Exchange(FrameType type, const Request& request,
                  FrameType reply_type, Frame* reply) {
    Encoder enc;
    request.Encode(&enc);
    return Exchange(type, enc.buffer(), reply_type, reply);
  }

  int fd_ = -1;
  std::string inbuf_;  ///< Bytes read past the last complete frame.
  uint32_t server_max_frame_body_ = kDefaultMaxFrameBody;
  std::string server_;
};

/// Producer role: raises events over a FrameLink it does not own. The
/// pipelined path keeps at most `window` raises in flight — enough to hide
/// the round trip, bounded so a slow server applies backpressure to the
/// producer instead of the producer ballooning both sides' buffers.
class Publisher {
 public:
  /// `link` must outlive the Publisher. `window` of 0 means 1.
  explicit Publisher(FrameLink* link, size_t window = 128);
  virtual ~Publisher() = default;
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

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

  FrameLink* link_;
  size_t window_;
  RetryPolicy retry_policy_;
  uint64_t retries_total_ = 0;
  uint64_t first_rejected_seq_ = kNoRejectedSeq;
  Encoder enc_;  ///< Reused by the window loop: no allocation per raise.
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

/// Local-first producer: a Publisher that owns its link. It attaches to
/// the gateway's shared-memory segment (src/shmtp) when one is reachable,
/// each frame then one job-ring record pushed with zero syscalls on the
/// hot path; otherwise it dials TCP. Either way raises run the same
/// Publisher loop — window, stall on a transient rejection, RetryPolicy —
/// and decode the same StatusReply / ranged BatchStatusReply acks.
class LocalPublisher : public Publisher {
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

  /// True when raises travel through shared memory.
  bool via_shm() const { return via_shm_; }

 private:
  LocalPublisher(std::unique_ptr<FrameLink> link, size_t window,
                 bool via_shm)
      : Publisher(link.get(), window),
        link_(std::move(link)),
        via_shm_(via_shm) {}

  std::unique_ptr<FrameLink> link_;
  bool via_shm_;
};

}  // namespace net
}  // namespace sentinel

#endif  // SENTINEL_NET_CLIENT_H_
