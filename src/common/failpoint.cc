// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "common/failpoint.h"

#include <cstdlib>

#include "common/logging.h"

namespace sentinel {

std::atomic<int> FailPoints::active_count_{0};
std::atomic<bool> FailPoints::crashed_{false};

namespace {

/// SplitMix64: tiny, seedable, and good enough for fire/no-fire decisions.
uint64_t NextRandom(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

/// "name(arg)" -> true, with *head = "name", *arg = "arg".
bool SplitCall(const std::string& text, std::string* head, std::string* arg) {
  size_t open = text.find('(');
  if (open == std::string::npos || text.back() != ')') return false;
  *head = text.substr(0, open);
  *arg = text.substr(open + 1, text.size() - open - 2);
  return true;
}

Status ParseAction(const std::string& text, const std::string& point,
                   FailPoints::Config* config) {
  std::string head, arg;
  if (SplitCall(text, &head, &arg)) {
    if (head == "partial") {
      uint64_t bytes;
      if (!ParseU64(arg, &bytes)) {
        return Status::InvalidArgument("bad partial() size in failpoint " +
                                       point);
      }
      config->action = FailPoints::Config::Action::kPartialWrite;
      config->partial_bytes = static_cast<size_t>(bytes);
      config->status = Status::IOError("injected torn write at " + point);
      return Status::OK();
    }
    return Status::InvalidArgument("unknown failpoint action " + text);
  }
  config->action = FailPoints::Config::Action::kReturnStatus;
  if (text == "crash") {
    config->action = FailPoints::Config::Action::kCrash;
    config->status = Status::IOError("simulated crash at " + point);
  } else if (text == "ioerror") {
    config->status = Status::IOError("injected fault at " + point);
  } else if (text == "corruption") {
    config->status = Status::Corruption("injected fault at " + point);
  } else if (text == "aborted") {
    config->status = Status::Aborted("injected fault at " + point);
  } else if (text == "busy") {
    config->status = Status::Busy("injected fault at " + point);
  } else if (text == "resource_exhausted") {
    config->status =
        Status::ResourceExhausted("injected fault at " + point);
  } else if (text == "internal") {
    config->status = Status::Internal("injected fault at " + point);
  } else {
    return Status::InvalidArgument("unknown failpoint action " + text);
  }
  return Status::OK();
}

Status ParsePolicy(const std::string& text, const std::string& point,
                   FailPoints::Config* config) {
  if (text == "once") {
    config->trigger = FailPoints::Config::Trigger::kOnce;
    return Status::OK();
  }
  std::string head, arg;
  if (!SplitCall(text, &head, &arg)) {
    return Status::InvalidArgument("unknown failpoint policy " + text);
  }
  if (head == "hit") {
    config->trigger = FailPoints::Config::Trigger::kOnHit;
    if (!ParseU64(arg, &config->n) || config->n == 0) {
      return Status::InvalidArgument("bad hit() count in failpoint " + point);
    }
    return Status::OK();
  }
  if (head == "every") {
    config->trigger = FailPoints::Config::Trigger::kEveryN;
    if (!ParseU64(arg, &config->n) || config->n == 0) {
      return Status::InvalidArgument("bad every() count in failpoint " +
                                     point);
    }
    return Status::OK();
  }
  if (head == "prob") {
    config->trigger = FailPoints::Config::Trigger::kProbability;
    size_t comma = arg.find(',');
    if (comma == std::string::npos ||
        !ParseDouble(arg.substr(0, comma), &config->probability) ||
        !ParseU64(arg.substr(comma + 1), &config->seed)) {
      return Status::InvalidArgument("bad prob() args in failpoint " + point);
    }
    return Status::OK();
  }
  return Status::InvalidArgument("unknown failpoint policy " + text);
}

}  // namespace

FailPoints& FailPoints::Instance() {
  static FailPoints* instance = new FailPoints();
  return *instance;
}

namespace {
// Hooks consult the AnyActive() fast path without constructing the
// registry, so a registry armed only through SENTINEL_FAILPOINTS must be
// built before the first hook runs — force it at static-init time.
const bool env_bootstrap = [] {
  const char* env = std::getenv("SENTINEL_FAILPOINTS");
  if (env != nullptr && env[0] != '\0') FailPoints::Instance();
  return true;
}();
}  // namespace

FailPoints::FailPoints() {
  const char* env = std::getenv("SENTINEL_FAILPOINTS");
  if (env != nullptr && env[0] != '\0') {
    Status s = EnableFromSpec(env);
    if (!s.ok()) {
      SENTINEL_WARN << "event=failpoint_spec_rejected status=\""
                    << s.ToString() << "\"";
    }
  }
}

Status FailPoints::Enable(const std::string& name, Config config) {
  if (name.empty()) return Status::InvalidArgument("empty failpoint name");
  if (config.status.ok()) {
    return Status::InvalidArgument("failpoint " + name +
                                   " must inject a non-OK status");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Point& point = points_[name];
  if (!point.armed) active_count_.fetch_add(1, std::memory_order_relaxed);
  point.armed = true;
  point.prng_state = config.seed;
  point.config = std::move(config);
  return Status::OK();
}

Status FailPoints::EnableFromSpec(const std::string& spec) {
  size_t start = 0;
  while (start < spec.size()) {
    size_t end = spec.find(';', start);
    if (end == std::string::npos) end = spec.size();
    std::string entry = spec.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;

    size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("failpoint entry without '=': " + entry);
    }
    std::string name = entry.substr(0, eq);
    std::string rhs = entry.substr(eq + 1);
    std::string action = rhs, policy;
    size_t at = rhs.rfind('@');
    // '@' inside parentheses never occurs in the grammar, so rfind is safe.
    if (at != std::string::npos) {
      action = rhs.substr(0, at);
      policy = rhs.substr(at + 1);
    }
    Config config;
    SENTINEL_RETURN_IF_ERROR(ParseAction(action, name, &config));
    if (!policy.empty()) {
      SENTINEL_RETURN_IF_ERROR(ParsePolicy(policy, name, &config));
    }
    SENTINEL_RETURN_IF_ERROR(Enable(name, std::move(config)));
  }
  return Status::OK();
}

void FailPoints::Disable(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(name);
  if (it != points_.end() && it->second.armed) {
    it->second.armed = false;
    active_count_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void FailPoints::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, point] : points_) {
    if (point.armed) active_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  points_.clear();
  crashed_.store(false, std::memory_order_release);
  crash_point_.clear();
  fired_total_ = 0;
}

Status FailPoints::Check(const char* name, size_t* partial_bytes) {
  if (partial_bytes != nullptr) *partial_bytes = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  if (crashed_.load(std::memory_order_relaxed)) {
    // The simulated process is down: every hooked operation fails.
    return Status::IOError("simulated crash (at " + crash_point_ + ")");
  }
  auto it = points_.find(name);
  if (it == points_.end() || !it->second.armed) return Status::OK();

  Point& point = it->second;
  ++point.hit_count;
  bool fire = false;
  switch (point.config.trigger) {
    case Config::Trigger::kAlways:
      fire = true;
      break;
    case Config::Trigger::kOnHit:
      fire = point.hit_count == point.config.n;
      break;
    case Config::Trigger::kEveryN:
      fire = point.hit_count % point.config.n == 0;
      break;
    case Config::Trigger::kProbability: {
      double draw = static_cast<double>(NextRandom(&point.prng_state) >> 11) *
                    (1.0 / 9007199254740992.0);  // 2^53.
      fire = draw < point.config.probability;
      break;
    }
    case Config::Trigger::kOnce:
      fire = point.hit_count == 1;
      break;
  }
  if (!fire) return Status::OK();

  ++point.fired_count;
  ++fired_total_;
  if (point.config.action == Config::Action::kCrash ||
      point.config.action == Config::Action::kPartialWrite) {
    // A torn write is only observable because the process died mid-write,
    // so kPartialWrite implies the crash flag too.
    crash_point_ = name;
    crashed_.store(true, std::memory_order_release);
    SENTINEL_INFO << "event=failpoint_crash point=" << name;
  }
  if (point.config.action == Config::Action::kPartialWrite &&
      partial_bytes != nullptr) {
    *partial_bytes = point.config.partial_bytes;
  }
  return point.config.status;
}

std::string FailPoints::crash_point() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return crash_point_;
}

void FailPoints::ClearCrash() {
  std::lock_guard<std::mutex> lock(mutex_);
  crashed_.store(false, std::memory_order_release);
  crash_point_.clear();
}

uint64_t FailPoints::hits(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.hit_count;
}

uint64_t FailPoints::fired(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = points_.find(name);
  return it == points_.end() ? 0 : it->second.fired_count;
}

uint64_t FailPoints::fired_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fired_total_;
}

std::vector<std::string> FailPoints::armed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  for (const auto& [name, point] : points_) {
    if (point.armed) names.push_back(name);
  }
  return names;
}

}  // namespace sentinel
