// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace sentinel {

namespace {

/// Four 256-entry tables for slice-by-4, generated once at startup from the
/// reflected Castagnoli polynomial.
struct Tables {
  std::array<std::array<uint32_t, 256>, 4> t;
  Tables() {
    constexpr uint32_t kPoly = 0x82F63B78u;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xFF];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xFF];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xFF];
    }
  }
};

const Tables& tables() {
  static const Tables tables;
  return tables;
}

#if defined(__x86_64__)
/// SSE4.2 path: eight bytes per CRC32 instruction, then the tail bytewise.
/// The instruction implements the same reflected Castagnoli CRC without
/// the pre/post inversion, which is applied here exactly as in the table
/// path.
__attribute__((target("sse4.2"))) uint32_t ExtendCrc32cHardware(
    uint32_t crc, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t state = static_cast<uint32_t>(~crc);
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));  // Unaligned-safe load.
    state = _mm_crc32_u64(state, word);
    p += 8;
    n -= 8;
  }
  uint32_t state32 = static_cast<uint32_t>(state);
  while (n-- > 0) state32 = _mm_crc32_u8(state32, *p++);
  return ~state32;
}

bool DetectHardware() {
  __builtin_cpu_init();  // Needed when called from a static initializer.
  return __builtin_cpu_supports("sse4.2");
}
#else
uint32_t ExtendCrc32cHardware(uint32_t crc, const void* data, size_t n) {
  return ExtendCrc32cPortable(crc, data, n);
}

bool DetectHardware() { return false; }
#endif

const bool kHardware = DetectHardware();

}  // namespace

uint32_t ExtendCrc32c(uint32_t crc, const void* data, size_t n) {
  return kHardware ? ExtendCrc32cHardware(crc, data, n)
                   : ExtendCrc32cPortable(crc, data, n);
}

uint32_t ExtendCrc32cPortable(uint32_t crc, const void* data, size_t n) {
  const auto& t = tables().t;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  while (n >= 4) {
    crc ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
    crc = t[3][crc & 0xFF] ^ t[2][(crc >> 8) & 0xFF] ^
          t[1][(crc >> 16) & 0xFF] ^ t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n-- > 0) crc = (crc >> 8) ^ t[0][(crc ^ *p++) & 0xFF];
  return ~crc;
}

}  // namespace sentinel
