// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "common/codec.h"

#include <algorithm>

namespace sentinel {

namespace {

// Value wire tags. Stable on disk; append only.
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagBool = 1;
constexpr uint8_t kTagInt = 2;
constexpr uint8_t kTagDouble = 3;
constexpr uint8_t kTagString = 4;
constexpr uint8_t kTagOid = 5;

}  // namespace

void Encoder::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  PutU64(bits);
}

void Encoder::PutBool(bool v) { PutU8(v ? 1 : 0); }

void Encoder::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.append(s);
}

void Encoder::PutRaw(const void* data, size_t len) {
  buf_.append(static_cast<const char*>(data), len);
}

void Encoder::PutValue(const Value& v) {
  switch (v.type()) {
    case Value::Type::kNull:
      PutU8(kTagNull);
      break;
    case Value::Type::kBool:
      PutU8(kTagBool);
      PutBool(v.AsBool());
      break;
    case Value::Type::kInt:
      PutU8(kTagInt);
      PutI64(v.AsInt());
      break;
    case Value::Type::kDouble:
      PutU8(kTagDouble);
      PutDouble(v.AsDouble());
      break;
    case Value::Type::kString:
      PutU8(kTagString);
      PutString(v.AsString());
      break;
    case Value::Type::kOid:
      PutU8(kTagOid);
      PutU64(v.AsOid());
      break;
  }
}

void Encoder::PutValueList(const ValueList& vs) {
  PutU32(static_cast<uint32_t>(vs.size()));
  for (const Value& v : vs) PutValue(v);
}

Status Decoder::Underflow(size_t n) const {
  return Status::Corruption("decode underflow: need " + std::to_string(n) +
                            " bytes, have " + std::to_string(len_ - pos_));
}

Status Decoder::GetDouble(double* v) {
  uint64_t bits;
  SENTINEL_RETURN_IF_ERROR(GetU64(&bits));
  std::memcpy(v, &bits, 8);
  return Status::OK();
}

Status Decoder::GetBool(bool* v) {
  uint8_t b;
  SENTINEL_RETURN_IF_ERROR(GetU8(&b));
  if (b > 1) return Status::Corruption("bad bool byte");
  *v = (b == 1);
  return Status::OK();
}

Status Decoder::GetString(std::string* s) {
  std::string_view view;
  SENTINEL_RETURN_IF_ERROR(GetStringView(&view));
  s->assign(view);
  return Status::OK();
}

Status Decoder::GetStringView(std::string_view* s) {
  uint32_t n;
  SENTINEL_RETURN_IF_ERROR(GetU32(&n));
  SENTINEL_RETURN_IF_ERROR(Need(n));
  *s = std::string_view(data_ + pos_, n);
  pos_ += n;
  return Status::OK();
}

Status Decoder::GetValue(Value* v) {
  uint8_t tag;
  SENTINEL_RETURN_IF_ERROR(GetU8(&tag));
  switch (tag) {
    case kTagNull:
      *v = Value();
      return Status::OK();
    case kTagBool: {
      bool b;
      SENTINEL_RETURN_IF_ERROR(GetBool(&b));
      *v = Value(b);
      return Status::OK();
    }
    case kTagInt: {
      int64_t i;
      SENTINEL_RETURN_IF_ERROR(GetI64(&i));
      *v = Value(i);
      return Status::OK();
    }
    case kTagDouble: {
      double d;
      SENTINEL_RETURN_IF_ERROR(GetDouble(&d));
      *v = Value(d);
      return Status::OK();
    }
    case kTagString: {
      std::string s;
      SENTINEL_RETURN_IF_ERROR(GetString(&s));
      *v = Value(std::move(s));
      return Status::OK();
    }
    case kTagOid: {
      uint64_t oid;
      SENTINEL_RETURN_IF_ERROR(GetU64(&oid));
      *v = Value::MakeOid(oid);
      return Status::OK();
    }
    default:
      return Status::Corruption("bad value tag " + std::to_string(tag));
  }
}

Status Decoder::GetValueList(ValueList* vs) {
  uint32_t n;
  SENTINEL_RETURN_IF_ERROR(GetU32(&n));
  vs->clear();
  // Each value takes at least its tag byte, so a hostile count cannot ask
  // for more than the bytes left.
  vs->reserve(std::min<size_t>(n, remaining()));
  for (uint32_t i = 0; i < n; ++i) {
    Value v;
    SENTINEL_RETURN_IF_ERROR(GetValue(&v));
    vs->push_back(std::move(v));
  }
  return Status::OK();
}

}  // namespace sentinel
