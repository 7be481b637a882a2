// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Little-endian byte codec used by object serialization (oodb) and the WAL.
// Fixed-width integers, length-prefixed strings, and boxed Values.

#ifndef SENTINEL_COMMON_CODEC_H_
#define SENTINEL_COMMON_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace sentinel {

/// Appends primitive values to a growable byte buffer.
class Encoder {
 public:
  // Inline like the Decoder's fixed-width reads (host byte order).
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v) { PutFixed(v); }
  void PutU32(uint32_t v) { PutFixed(v); }
  void PutU64(uint64_t v) { PutFixed(v); }
  void PutI64(int64_t v) { PutFixed(v); }
  void PutDouble(double v);
  void PutBool(bool v);
  /// Length-prefixed (u32) byte string.
  void PutString(std::string_view s);
  /// Raw bytes without a length prefix.
  void PutRaw(const void* data, size_t len);
  /// Type-tagged Value.
  void PutValue(const Value& v);
  /// u32 count followed by each Value.
  void PutValueList(const ValueList& vs);

  const std::string& buffer() const { return buf_; }
  std::string Release() { return std::move(buf_); }
  /// Empties the buffer keeping its capacity, so hot loops can reuse one
  /// Encoder instead of paying an allocation per message.
  void Clear() { buf_.clear(); }
  size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void PutFixed(T v) {
    buf_.append(reinterpret_cast<const char*>(&v), sizeof(T));
  }

  std::string buf_;
};

/// Consumes primitive values from a byte span. All Get* methods return a
/// Corruption status on underflow or malformed tags instead of asserting,
/// because decoded bytes come from disk.
class Decoder {
 public:
  Decoder(const void* data, size_t len)
      : data_(static_cast<const char*>(data)), len_(len) {}
  explicit Decoder(std::string_view s) : Decoder(s.data(), s.size()) {}

  // The fixed-width reads are inline: message decoding is a chain of them,
  // and only their (rare) underflow error leaves the header.
  Status GetU8(uint8_t* v) { return GetFixed(v); }
  Status GetU16(uint16_t* v) { return GetFixed(v); }
  Status GetU32(uint32_t* v) { return GetFixed(v); }
  Status GetU64(uint64_t* v) { return GetFixed(v); }
  Status GetI64(int64_t* v) { return GetFixed(v); }
  Status GetDouble(double* v);
  Status GetBool(bool* v);
  Status GetString(std::string* s);
  /// Like GetString, but `*s` views the decoded bytes in place (valid as
  /// long as the buffer the Decoder reads).
  Status GetStringView(std::string_view* s);
  Status GetValue(Value* v);
  Status GetValueList(ValueList* vs);

  /// Bytes not yet consumed.
  size_t remaining() const { return len_ - pos_; }
  bool AtEnd() const { return pos_ == len_; }

 private:
  Status Need(size_t n) {
    return n <= len_ - pos_ ? Status::OK() : Underflow(n);
  }
  Status Underflow(size_t n) const;

  /// Reads one little-endian fixed-width value (the host order, as the
  /// Encoder writes it). On underflow `*v` is zeroed, so an out-value is
  /// never left unset whichever way the read goes.
  template <typename T>
  Status GetFixed(T* v) {
    if (sizeof(T) > len_ - pos_) {
      *v = T{};
      return Underflow(sizeof(T));
    }
    std::memcpy(v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  const char* data_;
  size_t len_;
  size_t pos_ = 0;
};

}  // namespace sentinel

#endif  // SENTINEL_COMMON_CODEC_H_
