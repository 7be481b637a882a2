// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "events/signature.h"

#include <gtest/gtest.h>

namespace sentinel {
namespace {

TEST(SignatureTest, ParsesPaperStyleSignature) {
  auto sig = EventSignature::Parse("end Employee::Set-Salary(float x)");
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig->modifier, EventModifier::kEnd);
  EXPECT_EQ(sig->class_name, "Employee");
  EXPECT_EQ(sig->method, "Set-Salary");
  ASSERT_EQ(sig->params.size(), 1u);
  EXPECT_EQ(sig->params[0], "float x");
}

TEST(SignatureTest, ParsesWithoutParameterList) {
  auto sig = EventSignature::Parse("begin Person::Marry");
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig->modifier, EventModifier::kBegin);
  EXPECT_EQ(sig->class_name, "Person");
  EXPECT_EQ(sig->method, "Marry");
  EXPECT_TRUE(sig->params.empty());
}

TEST(SignatureTest, ParsesMultipleParameters) {
  auto sig =
      EventSignature::Parse("end Account::Transfer(float amt, int dest)");
  ASSERT_TRUE(sig.ok());
  ASSERT_EQ(sig->params.size(), 2u);
  EXPECT_EQ(sig->params[0], "float amt");
  EXPECT_EQ(sig->params[1], "int dest");
}

TEST(SignatureTest, ParsesEmptyParens) {
  auto sig = EventSignature::Parse("end A::B()");
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(sig->params.empty());
}

TEST(SignatureTest, TrimsWhitespace) {
  auto sig = EventSignature::Parse("   end   A::B(int x)   ");
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig->class_name, "A");
  EXPECT_EQ(sig->method, "B");
}

struct ModifierCase {
  const char* word;
  EventModifier expected;
};

// Without this gtest prints the raw bytes of the case (a pointer and padding),
// which differ from run to run and so change the listed test names.
void PrintTo(const ModifierCase& c, std::ostream* os) { *os << c.word; }

class ModifierSynonymTest : public ::testing::TestWithParam<ModifierCase> {};

TEST_P(ModifierSynonymTest, AllSynonymsParse) {
  const ModifierCase& c = GetParam();
  auto sig = EventSignature::Parse(std::string(c.word) + " A::B");
  ASSERT_TRUE(sig.ok()) << c.word;
  EXPECT_EQ(sig->modifier, c.expected) << c.word;
}

INSTANTIATE_TEST_SUITE_P(
    AllModifiers, ModifierSynonymTest,
    ::testing::Values(ModifierCase{"begin", EventModifier::kBegin},
                      ModifierCase{"before", EventModifier::kBegin},
                      ModifierCase{"bom", EventModifier::kBegin},
                      ModifierCase{"end", EventModifier::kEnd},
                      ModifierCase{"after", EventModifier::kEnd},
                      ModifierCase{"eom", EventModifier::kEnd}),
    [](const ::testing::TestParamInfo<ModifierCase>& info) {
      return info.param.word;
    });

class BadSignatureTest : public ::testing::TestWithParam<const char*> {};

TEST_P(BadSignatureTest, RejectedAsInvalidArgument) {
  EXPECT_TRUE(
      EventSignature::Parse(GetParam()).status().IsInvalidArgument())
      << "'" << GetParam() << "' should not parse";
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, BadSignatureTest,
    ::testing::Values("",                       // Empty.
                      "end",                    // No qualified name.
                      "sometime A::B",          // Unknown modifier.
                      "end AB",                 // No "::" separator.
                      "end ::B",                // Empty class.
                      "end A::",                // Empty method.
                      "end A::B(int x",         // Unterminated params.
                      "end A b::C"));           // Space inside name.

TEST(SignatureTest, ToStringIsCanonical) {
  auto sig = EventSignature::Parse("after  Employee::SetSalary( float x )");
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig->ToString(), "end Employee::SetSalary(float x)");
}

TEST(SignatureTest, KeyExcludesParameters) {
  auto a = EventSignature::Parse("end A::B(int x)");
  auto b = EventSignature::Parse("end A::B(float y, int z)");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->Key(), b->Key());
  EXPECT_EQ(a->Key(), "end A::B");
  EXPECT_EQ(*a, *b);  // Equality is by key fields.
}

TEST(SignatureTest, EventKeyHelperMatchesSignatureKey) {
  auto sig = EventSignature::Parse("begin Stock::SetPrice");
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(EventKey(EventModifier::kBegin, "Stock", "SetPrice"),
            sig->Key());
}

}  // namespace
}  // namespace sentinel
