// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "shmtp/host.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <new>
#include <utility>

#include "common/logging.h"
#include "net/wire.h"

namespace sentinel {
namespace shmtp {

namespace {

/// Per-ring job (producer -> host) and completion (host -> producer) byte
/// capacities. Handles read both from the superblock.
constexpr uint64_t kJobRingBytes = 1u << 20;
constexpr uint64_t kCplRingBytes = 256u << 10;
/// Frames decoded from one ring per scan before moving on (fairness).
constexpr uint32_t kMaxBatch = 256;
/// Pid-liveness sweep cadence; also the park timeout while idle.
constexpr uint32_t kSweepIntervalMs = 20;
/// Empty scans (each followed by a yield) before arming a futex park.
constexpr uint32_t kSpinIterations = 512;

uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool PidDead(uint32_t pid) {
  if (pid == 0) return false;  // Not yet published; grace period applies.
  return kill(static_cast<pid_t>(pid), 0) < 0 && errno == ESRCH;
}

}  // namespace

ShmHost::ShmHost(const net::ServerOptions& options, Env env)
    : options_(options), env_(std::move(env)) {
  options_.shm_rings = std::max<uint32_t>(options_.shm_rings, 1);
}

ShmHost::~ShmHost() {
  StopIntake();
  if (base_ != nullptr) {
    munmap(base_, layout_.total_bytes());
    base_ = nullptr;
    shm_unlink(options_.shm_segment.c_str());
  }
}

RingHeader* ShmHost::header(uint32_t i) {
  return reinterpret_cast<RingHeader*>(base_ + layout_.header_offset(i));
}
char* ShmHost::job_ring(uint32_t i) { return base_ + layout_.job_offset(i); }
char* ShmHost::cpl_ring(uint32_t i) { return base_ + layout_.cpl_offset(i); }

Status ShmHost::Start() {
  if (env_.queues.empty() || env_.default_tenant == nullptr ||
      !env_.alloc_session_id || env_.metrics == nullptr) {
    return Status::InvalidArgument("shmtp host: incomplete environment");
  }
  frames_ = env_.metrics->counter("shm.frames");
  batches_ = env_.metrics->counter("shm.batches");
  parks_ = env_.metrics->counter("shm.parks");
  wakeups_ = env_.metrics->counter("shm.wakeups");
  attaches_ = env_.metrics->counter("shm.attaches");
  reclaims_ = env_.metrics->counter("shm.reclaims");
  protocol_errors_ = env_.metrics->counter("shm.protocol_errors");
  if (options_.shm_segment.empty() || options_.shm_segment[0] != '/') {
    return Status::InvalidArgument(
        "shmtp segment name must start with '/': " + options_.shm_segment);
  }
  layout_ = SegmentLayout{options_.shm_rings, kJobRingBytes, kCplRingBytes};

  // A segment left behind by a crashed host is dead weight — its host_pid
  // is gone and no handle can make progress against it. Replace it.
  shm_unlink(options_.shm_segment.c_str());
  int fd = shm_open(options_.shm_segment.c_str(), O_CREAT | O_EXCL | O_RDWR,
                    0600);
  if (fd < 0) {
    return Status::IOError("shm_open(" + options_.shm_segment +
                           "): " + std::strerror(errno));
  }
  if (ftruncate(fd, static_cast<off_t>(layout_.total_bytes())) != 0) {
    Status s = Status::IOError("ftruncate(shm): " +
                               std::string(std::strerror(errno)));
    close(fd);
    shm_unlink(options_.shm_segment.c_str());
    return s;
  }
  void* mapped = mmap(nullptr, layout_.total_bytes(),
                      PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  close(fd);
  if (mapped == MAP_FAILED) {
    shm_unlink(options_.shm_segment.c_str());
    return Status::IOError("mmap(shm): " + std::string(std::strerror(errno)));
  }
  base_ = static_cast<char*>(mapped);

  Superblock* sb = new (base_) Superblock();
  sb->magic = kSegmentMagic;
  sb->layout_version = kLayoutVersion;
  sb->ring_count = options_.shm_rings;
  sb->segment_bytes = layout_.total_bytes();
  sb->job_ring_bytes = kJobRingBytes;
  sb->cpl_ring_bytes = kCplRingBytes;
  sb->max_frame_body = options_.max_frame_body;
  sb->host_pid = static_cast<uint32_t>(getpid());
  rings_.clear();
  for (uint32_t i = 0; i < options_.shm_rings; ++i) {
    new (base_ + layout_.header_offset(i)) RingHeader();
    rings_.push_back(std::make_unique<Ring>());
  }
  sb_ = sb;
  // Publish only after every header is initialised: a handle that races
  // shm_open sees kHostStarting until here and refuses to attach.
  sb_->host_state.store(kHostServing, std::memory_order_release);

  stop_.store(false, std::memory_order_relaxed);
  intake_stopped_ = false;
  intake_ = std::thread([this] { IntakeLoop(); });
  return Status::OK();
}

void ShmHost::StopIntake() {
  if (intake_stopped_) return;
  intake_stopped_ = true;
  stop_.store(true, std::memory_order_release);
  if (sb_ != nullptr) {
    sb_->host_state.store(kHostShutdown, std::memory_order_release);
    // Unpark the intake thread and any handles waiting on acks so they
    // observe the shutdown promptly.
    sb_->doorbell.exchange(kDoorbellAwake, std::memory_order_seq_cst);
    FutexWake(&sb_->doorbell, 1);
    for (uint32_t i = 0; i < options_.shm_rings; ++i) {
      header(i)->cpl_seq.fetch_add(1, std::memory_order_seq_cst);
      FutexWake(&header(i)->cpl_seq, 1);
    }
  }
  if (intake_.joinable()) intake_.join();
}

void ShmHost::IntakeLoop() {
  uint64_t last_sweep_ms = NowMs();
  uint32_t idle = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    uint64_t now = NowMs();
    bool sweep = now - last_sweep_ms >= kSweepIntervalMs;
    if (sweep) last_sweep_ms = now;
    if (ScanOnce(sweep)) {
      idle = 0;
      continue;
    }
    if (++idle < kSpinIterations) {
      // Give a same-core producer the CPU; cheaper than a park/unpark
      // round trip when frames arrive within the spin budget.
      sched_yield();
      continue;
    }
    idle = 0;
    // Deferred admissions are waiting on a queue slot, not a producer —
    // nobody will ring the doorbell for them, so park with a short nap.
    bool deferred = false;
    for (const auto& ring : rings_) {
      if (ring->deferred_offset < ring->deferred.size()) deferred = true;
    }
    Park(deferred ? 1 : kSweepIntervalMs);
  }
}

bool ShmHost::ScanOnce(bool sweep_liveness) {
  bool progress = false;
  for (uint32_t i = 0; i < options_.shm_rings; ++i) {
    if (ManageRing(i, sweep_liveness)) progress = true;
    Ring* ring = rings_[i].get();
    if (ring->session == nullptr) continue;
    if (ring->deferred_offset < ring->deferred.size()) {
      if (FlushDeferred(ring)) progress = true;
      // Order preserved: no fresh decode while older frames wait.
      if (ring->deferred_offset < ring->deferred.size()) continue;
    }
    if (DrainRing(i)) progress = true;
  }
  return progress;
}

bool ShmHost::ManageRing(uint32_t i, bool sweep_liveness) {
  RingHeader* rh = header(i);
  Ring* ring = rings_[i].get();
  uint32_t state = rh->state.load(std::memory_order_acquire);
  switch (state) {
    case kRingAttached:
      if (ring->session == nullptr) {
        AttachRing(i);
        return true;
      }
      if (sweep_liveness &&
          PidDead(rh->pid.load(std::memory_order_relaxed))) {
        ReclaimRing(i, "producer process died");
        return true;
      }
      return false;
    case kRingClosed:
      ReclaimRing(i, nullptr);
      return true;
    case kRingAttaching:
      // A handle that dies between the claim CAS and kRingAttached would
      // wedge the slot; give it a grace period, then sweep it like any
      // other dead producer.
      if (ring->last_live_check_ms == 0) {
        ring->last_live_check_ms = NowMs();
      } else if (sweep_liveness &&
                 NowMs() - ring->last_live_check_ms > 200) {
        uint32_t pid = rh->pid.load(std::memory_order_relaxed);
        if (pid == 0 || PidDead(pid)) {
          ReclaimRing(i, "attach abandoned");
          return true;
        }
      }
      return false;
    default:
      ring->last_live_check_ms = 0;
      return false;
  }
}

void ShmHost::AttachRing(uint32_t i) {
  Ring* ring = rings_[i].get();
  auto session =
      std::make_shared<net::Session>(env_.alloc_session_id(), /*fd=*/-1);
  session->tenant.store(env_.default_tenant, std::memory_order_release);
  session->SetFlushNotifier(
      [this, i](net::Session* s) { WriteCompletions(i, s); });
  {
    std::lock_guard<std::mutex> lock(ring->mu);
    ring->session = std::move(session);
  }
  ring->last_live_check_ms = 0;
  attaches_->Add();
}

void ShmHost::ReclaimRing(uint32_t i, const char* fault) {
  RingHeader* rh = header(i);
  if (fault != nullptr) {
    SENTINEL_WARN << "event=shm_ring_reclaimed segment="
                  << options_.shm_segment << " ring=" << i
                  << " pid=" << rh->pid.load(std::memory_order_relaxed)
                  << " reason=\"" << fault << "\"";
  }
  Ring* ring = rings_[i].get();
  {
    std::lock_guard<std::mutex> lock(ring->mu);
    if (ring->session != nullptr) {
      // Queued-but-unprocessed frames from this tenancy die here: workers
      // skip closed sessions (never applying them), while their quota
      // charges still credit back through ReleaseRaise. Frames already
      // applied stay applied — the handle's contract is at-most-once for
      // anything it never saw acked.
      ring->session->closed.store(true, std::memory_order_release);
      ring->session.reset();
    }
    // Cursor reset *is* the torn-tail truncation: bytes a dying producer
    // wrote past its committed job_tail were never observable, and now
    // their positions are recycled. Done under ring->mu so no stale
    // WriteCompletions can interleave with the completion-cursor reset.
    rh->job_head.store(0, std::memory_order_relaxed);
    rh->job_tail.store(0, std::memory_order_relaxed);
    rh->cpl_head.store(0, std::memory_order_relaxed);
    rh->cpl_tail.store(0, std::memory_order_relaxed);
    rh->cpl_overflow.store(0, std::memory_order_relaxed);
    rh->pid.store(0, std::memory_order_relaxed);
    rh->state.store(kRingFree, std::memory_order_release);
  }
  ring->deferred.clear();  // Never charged; nothing to credit back.
  ring->deferred_offset = 0;
  ring->last_live_check_ms = 0;
  reclaims_->Add();
}

bool ShmHost::FlushDeferred(Ring* ring) {
  auto& d = ring->deferred;
  bool progress = false;
  while (ring->deferred_offset < d.size()) {
    size_t begin = ring->deferred_offset;
    size_t shard = d[begin].shard;
    // Charge and stage the longest same-shard run quota allows; admission
    // happens under one queue-lock acquisition.
    std::vector<net::IngressItem> batch;
    size_t end = begin;
    while (end < d.size() && d[end].shard == shard) {
      if (net::ChargeRaise(options_, &d[end].item) != nullptr) break;
      batch.push_back(std::move(d[end].item));
      ++end;
    }
    if (batch.empty()) return progress;  // Quota at cap: defer, uncharged.
    size_t accepted = env_.queues[shard]->TryPushBatch(&batch);
    if (accepted > 0) {
      progress = true;
      frames_->Add(accepted);
      batches_->Add();
    }
    if (!batch.empty()) {
      // Queue full mid-run: credit the un-admitted remainder back and put
      // it where it was — lossless deferral, order intact.
      for (size_t k = 0; k < batch.size(); ++k) {
        net::ReleaseRaise(&batch[k]);
        d[begin + accepted + k].item = std::move(batch[k]);
      }
      ring->deferred_offset = begin + accepted;
      return progress;
    }
    ring->deferred_offset = end;
  }
  d.clear();
  ring->deferred_offset = 0;
  return progress;
}

bool ShmHost::DrainRing(uint32_t i) {
  RingHeader* rh = header(i);
  Ring* ring = rings_[i].get();
  uint64_t head = rh->job_head.load(std::memory_order_relaxed);
  // Acquire pairs with the handle's commit store: everything at positions
  // < job_tail is fully written.
  uint64_t tail = rh->job_tail.load(std::memory_order_acquire);
  if (head == tail) return false;
  const char* jr = job_ring(i);
  const uint64_t cap = kJobRingBytes;
  const uint32_t max_record =
      static_cast<uint32_t>(net::kFrameHeaderSize) + options_.max_frame_body;

  uint32_t decoded = 0;
  while (head != tail && decoded < kMaxBatch) {
    uint64_t avail = tail - head;
    uint32_t len = 0;
    if (avail < kJobRecordPrefix) {
      protocol_errors_->Add();
      ReclaimRing(i, "truncated record prefix");
      return true;
    }
    RingReadBytes(jr, cap, head, &len, sizeof(len));
    if (len < net::kFrameHeaderSize || len > max_record ||
        kJobRecordPrefix + len > avail) {
      // A committed record can never be torn (commit follows the write),
      // so a bad length means a buggy producer. Kill the ring.
      protocol_errors_->Add();
      ReclaimRing(i, "malformed record length");
      return true;
    }
    std::string bytes(len, '\0');
    RingReadBytes(jr, cap, head + kJobRecordPrefix, bytes.data(), len);
    head += kJobRecordPrefix + len;
    ++decoded;

    net::Frame frame;
    size_t consumed = 0;
    Status error;
    net::DecodeProgress prog = net::TryDecodeFrame(
        bytes, options_.max_frame_body, &frame, &consumed, &error);
    if (prog != net::DecodeProgress::kFrame || consumed != len) {
      protocol_errors_->Add();
      ReclaimRing(i, "undecodable frame");
      return true;
    }
    if (frame.type != net::FrameType::kRaiseEvent) {
      // The job ring is raise-only by contract. Ack the stray frame
      // immediately; note this ack can overtake raise acks still in
      // flight (documented — mixed traffic is a handle bug).
      ring->session->Reply(
          net::FrameType::kStatusReply,
          net::StatusReplyMsg::FromStatus(Status::InvalidArgument(
              "shmtp job ring carries raise frames only")));
      continue;
    }
    const size_t shard =
        net::RouteFrame(*ring->session, frame, env_.queues.size());
    net::IngressItem item;
    item.session = ring->session;
    item.frame = std::move(frame);
    ring->deferred.push_back(Ring::Pending{shard, std::move(item)});
  }
  // Space is reusable only now that every record is copied out.
  rh->job_head.store(head, std::memory_order_release);
  FlushDeferred(ring);
  return true;
}

void ShmHost::WriteCompletions(uint32_t i, net::Session* session) {
  RingHeader* rh = header(i);
  Ring* ring = rings_[i].get();
  std::lock_guard<std::mutex> lock(ring->mu);
  if (ring->session.get() != session) return;  // Reclaimed: stale tenancy.
  std::deque<std::string> chunks;
  session->TakeOutput(&chunks);
  if (chunks.empty()) return;
  char* cr = cpl_ring(i);
  const uint64_t cap = kCplRingBytes;
  uint64_t tail = rh->cpl_tail.load(std::memory_order_relaxed);
  bool overflow = false;
  for (const std::string& chunk : chunks) {
    uint64_t inflight =
        tail - rh->cpl_head.load(std::memory_order_acquire);
    if (cap - inflight < chunk.size()) {
      // The stream cannot skip bytes (frames would tear), so a handle
      // that let the region fill is beyond repair: poison it.
      overflow = true;
      break;
    }
    RingWriteBytes(cr, cap, tail, chunk.data(), chunk.size());
    tail += chunk.size();
  }
  rh->cpl_tail.store(tail, std::memory_order_release);
  if (overflow) rh->cpl_overflow.store(1, std::memory_order_release);
  rh->cpl_seq.fetch_add(1, std::memory_order_seq_cst);
  FutexWake(&rh->cpl_seq, 1);
}

void ShmHost::Park(uint32_t timeout_ms) {
  // Sleeping-barber handshake, the cross-process double of the
  // IngressQueue shutdown-drain fix: announce the park *first*, then
  // re-scan every ring. A producer that commits after the re-scan must
  // observe doorbell == kDoorbellParked (seq_cst on both sides) and owns
  // the FutexWake; a producer that commits before it is caught by the
  // re-scan. No interleaving strands a committed frame.
  sb_->doorbell.store(kDoorbellParked, std::memory_order_seq_cst);
  for (uint32_t i = 0; i < options_.shm_rings; ++i) {
    RingHeader* rh = header(i);
    if (rh->job_tail.load(std::memory_order_seq_cst) !=
            rh->job_head.load(std::memory_order_relaxed) ||
        rh->state.load(std::memory_order_acquire) == kRingClosed) {
      sb_->doorbell.store(kDoorbellAwake, std::memory_order_seq_cst);
      return;
    }
  }
  if (stop_.load(std::memory_order_acquire)) {
    sb_->doorbell.store(kDoorbellAwake, std::memory_order_seq_cst);
    return;
  }
  parks_->Add();
  struct timespec ts;
  ts.tv_sec = timeout_ms / 1000;
  ts.tv_nsec = static_cast<long>(timeout_ms % 1000) * 1000000L;
  int rc = FutexWait(&sb_->doorbell, kDoorbellParked, &ts);
  if (rc == 0 || errno == EAGAIN) {
    wakeups_->Add();
  }
  sb_->doorbell.store(kDoorbellAwake, std::memory_order_seq_cst);
}

}  // namespace shmtp
}  // namespace sentinel
