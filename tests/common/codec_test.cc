// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "common/codec.h"

#include <gtest/gtest.h>

#include <limits>

namespace sentinel {
namespace {

TEST(CodecTest, PrimitiveRoundTrip) {
  Encoder enc;
  enc.PutU8(7);
  enc.PutU16(65535);
  enc.PutU32(123456789);
  enc.PutU64(0xDEADBEEFCAFEBABEull);
  enc.PutI64(-42);
  enc.PutDouble(3.14159);
  enc.PutBool(true);
  enc.PutString("hello");

  Decoder dec(enc.buffer());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  double d;
  bool b;
  std::string s;
  ASSERT_TRUE(dec.GetU8(&u8).ok());
  ASSERT_TRUE(dec.GetU16(&u16).ok());
  ASSERT_TRUE(dec.GetU32(&u32).ok());
  ASSERT_TRUE(dec.GetU64(&u64).ok());
  ASSERT_TRUE(dec.GetI64(&i64).ok());
  ASSERT_TRUE(dec.GetDouble(&d).ok());
  ASSERT_TRUE(dec.GetBool(&b).ok());
  ASSERT_TRUE(dec.GetString(&s).ok());
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u16, 65535);
  EXPECT_EQ(u32, 123456789u);
  EXPECT_EQ(u64, 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(i64, -42);
  EXPECT_DOUBLE_EQ(d, 3.14159);
  EXPECT_TRUE(b);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(dec.AtEnd());
}

TEST(CodecTest, EmptyStringRoundTrip) {
  Encoder enc;
  enc.PutString("");
  Decoder dec(enc.buffer());
  std::string s = "garbage";
  ASSERT_TRUE(dec.GetString(&s).ok());
  EXPECT_TRUE(s.empty());
}

TEST(CodecTest, StringWithEmbeddedNulls) {
  std::string payload("a\0b\0c", 5);
  Encoder enc;
  enc.PutString(payload);
  Decoder dec(enc.buffer());
  std::string s;
  ASSERT_TRUE(dec.GetString(&s).ok());
  EXPECT_EQ(s, payload);
}

TEST(CodecTest, UnderflowIsCorruption) {
  Encoder enc;
  enc.PutU8(1);
  Decoder dec(enc.buffer());
  uint64_t v;
  EXPECT_TRUE(dec.GetU64(&v).IsCorruption());
}

TEST(CodecTest, TruncatedStringIsCorruption) {
  Encoder enc;
  enc.PutU32(100);  // Claims 100 bytes but provides none.
  Decoder dec(enc.buffer());
  std::string s;
  EXPECT_TRUE(dec.GetString(&s).IsCorruption());
}

TEST(CodecTest, BadBoolByteIsCorruption) {
  std::string raw(1, '\x02');
  Decoder dec(raw);
  bool b;
  EXPECT_TRUE(dec.GetBool(&b).IsCorruption());
}

TEST(CodecTest, ValueRoundTripAllTypes) {
  ValueList values = {Value(),
                      Value(true),
                      Value(false),
                      Value(int64_t{-7}),
                      Value(std::numeric_limits<int64_t>::max()),
                      Value(2.718),
                      Value("string value"),
                      Value::MakeOid(424242)};
  Encoder enc;
  enc.PutValueList(values);
  Decoder dec(enc.buffer());
  ValueList decoded;
  ASSERT_TRUE(dec.GetValueList(&decoded).ok());
  ASSERT_EQ(decoded.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(decoded[i], values[i]) << "index " << i;
    EXPECT_EQ(decoded[i].type(), values[i].type()) << "index " << i;
  }
}

TEST(CodecTest, BadValueTagIsCorruption) {
  std::string raw(1, '\x63');  // Tag 99 is undefined.
  Decoder dec(raw);
  Value v;
  EXPECT_TRUE(dec.GetValue(&v).IsCorruption());
}

TEST(CodecTest, HostileValueCountIsCorruptionNotAnAllocation) {
  Encoder enc;
  enc.PutU32(std::numeric_limits<uint32_t>::max());
  enc.PutValue(Value(int64_t{1}));
  Decoder dec(enc.buffer());
  ValueList vs;
  EXPECT_TRUE(dec.GetValueList(&vs).IsCorruption());
}

TEST(CodecTest, RemainingTracksConsumption) {
  Encoder enc;
  enc.PutU32(5);
  enc.PutU32(6);
  Decoder dec(enc.buffer());
  EXPECT_EQ(dec.remaining(), 8u);
  uint32_t v;
  ASSERT_TRUE(dec.GetU32(&v).ok());
  EXPECT_EQ(dec.remaining(), 4u);
  ASSERT_TRUE(dec.GetU32(&v).ok());
  EXPECT_TRUE(dec.AtEnd());
}

TEST(CodecTest, ReleaseMovesBuffer) {
  Encoder enc;
  enc.PutString("abc");
  std::string buf = enc.Release();
  EXPECT_EQ(buf.size(), 4 + 3u);
}

}  // namespace
}  // namespace sentinel
