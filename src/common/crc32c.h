// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78).
//
// Used to frame every WAL record and every history-segment record so a
// corrupted middle record is *detected* instead of silently replayed —
// length prefixes alone only catch torn tails. On x86-64 CPUs with SSE4.2
// the CRC32 instruction computes it (chosen once at run time); elsewhere a
// software slice-by-4 table path does, with bit-identical results.

#ifndef SENTINEL_COMMON_CRC32C_H_
#define SENTINEL_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace sentinel {

/// Extends `crc` (a running value from a previous call, or 0 to start) over
/// `data[0, n)`. The result is the standard finalized CRC32C — e.g.
/// Crc32c("123456789") == 0xE3069283.
uint32_t ExtendCrc32c(uint32_t crc, const void* data, size_t n);

/// The software (slice-by-4 table) path, whatever the CPU supports. Kept
/// callable so tests can check the hardware path against it.
uint32_t ExtendCrc32cPortable(uint32_t crc, const void* data, size_t n);

/// CRC32C of one buffer.
inline uint32_t Crc32c(const void* data, size_t n) {
  return ExtendCrc32c(0, data, n);
}
inline uint32_t Crc32c(const std::string& s) {
  return ExtendCrc32c(0, s.data(), s.size());
}

}  // namespace sentinel

#endif  // SENTINEL_COMMON_CRC32C_H_
