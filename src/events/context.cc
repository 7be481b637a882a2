// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "events/context.h"

#include <algorithm>

namespace sentinel {

const char* ToString(ParameterContext context) {
  switch (context) {
    case ParameterContext::kRecent:
      return "recent";
    case ParameterContext::kChronicle:
      return "chronicle";
    case ParameterContext::kContinuous:
      return "continuous";
    case ParameterContext::kCumulative:
      return "cumulative";
  }
  return "?";
}

void PutContext(Encoder* enc, ParameterContext context) {
  enc->PutU8(static_cast<uint8_t>(context));
}

Status GetContext(Decoder* dec, ParameterContext* context) {
  uint8_t tag;
  SENTINEL_RETURN_IF_ERROR(dec->GetU8(&tag));
  if (tag > static_cast<uint8_t>(ParameterContext::kCumulative)) {
    return Status::Corruption("bad parameter context tag");
  }
  *context = static_cast<ParameterContext>(tag);
  return Status::OK();
}

void PairingBuffer::AddInitiator(ParameterContext context,
                                 const EventDetection& det) {
  if (context == ParameterContext::kRecent) {
    // Only the most recent initiator can start a future detection.
    pending_.clear();
  }
  pending_.push_back(det);
}

std::vector<std::vector<EventDetection>> PairingBuffer::PairWithTerminator(
    ParameterContext context, const EventDetection& terminator,
    const std::function<bool(const EventDetection&)>& eligible) {
  std::vector<std::vector<EventDetection>> groups;

  // Indices of eligible pending initiators, oldest first.
  std::vector<size_t> candidates;
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (!eligible || eligible(pending_[i])) candidates.push_back(i);
  }
  if (candidates.empty()) {
    (void)terminator;
    return groups;
  }

  switch (context) {
    case ParameterContext::kRecent: {
      // Pair with the newest eligible initiator; keep it for reuse.
      size_t idx = candidates.back();
      groups.push_back({pending_[idx]});
      break;
    }
    case ParameterContext::kChronicle: {
      // Pair with the oldest eligible initiator; consume it.
      size_t idx = candidates.front();
      groups.push_back({pending_[idx]});
      pending_.erase(pending_.begin() + static_cast<long>(idx));
      break;
    }
    case ParameterContext::kContinuous: {
      // One detection per open window; consume all of them.
      for (size_t idx : candidates) groups.push_back({pending_[idx]});
      for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
        pending_.erase(pending_.begin() + static_cast<long>(*it));
      }
      break;
    }
    case ParameterContext::kCumulative: {
      // All pending initiators merge into one detection; consume all.
      std::vector<EventDetection> merged;
      for (size_t idx : candidates) merged.push_back(pending_[idx]);
      groups.push_back(std::move(merged));
      for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
        pending_.erase(pending_.begin() + static_cast<long>(*it));
      }
      break;
    }
  }
  return groups;
}

}  // namespace sentinel
