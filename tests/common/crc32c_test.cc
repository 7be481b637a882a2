// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// CRC32C: the run-time-selected path (the CPU's CRC32 instruction where
// available) must agree bit for bit with the portable table path, for
// every length and alignment and when a checksum is extended piecewise.

#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace sentinel {
namespace {

TEST(Crc32cTest, KnownVector) {
  EXPECT_EQ(Crc32c(std::string("123456789")), 0xE3069283u);
  EXPECT_EQ(ExtendCrc32cPortable(0, "123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32cTest, MatchesTablePathForEveryLengthAndAlignment) {
  std::mt19937 rng(32);
  std::vector<uint8_t> buf(1024 + 16);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 1024; ++len) {
      const uint8_t* p = buf.data() + offset;
      ASSERT_EQ(ExtendCrc32c(0, p, len), ExtendCrc32cPortable(0, p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32cTest, ExtendingPiecewiseEqualsOneShot) {
  std::mt19937 rng(7);
  std::string data(777, '\0');
  for (char& c : data) c = static_cast<char>(rng());
  const uint32_t whole = Crc32c(data);
  for (size_t cut : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                     size_t{400}, data.size()}) {
    uint32_t crc = ExtendCrc32c(0, data.data(), cut);
    crc = ExtendCrc32c(crc, data.data() + cut, data.size() - cut);
    EXPECT_EQ(crc, whole) << "cut " << cut;
    uint32_t portable = ExtendCrc32cPortable(0, data.data(), cut);
    portable = ExtendCrc32cPortable(portable, data.data() + cut,
                                    data.size() - cut);
    EXPECT_EQ(portable, whole) << "cut " << cut;
  }
}

}  // namespace
}  // namespace sentinel
