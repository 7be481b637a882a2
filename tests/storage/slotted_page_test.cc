// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "storage/slotted_page.h"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>

namespace sentinel {
namespace {

class SlottedPageTest : public ::testing::Test {
 protected:
  SlottedPageTest() : sp_(&page_) { sp_.Init(); }

  Page page_;
  SlottedPage sp_;
};

TEST_F(SlottedPageTest, InitMakesEmptyInitializedPage) {
  EXPECT_TRUE(sp_.IsInitialized());
  EXPECT_EQ(sp_.SlotCount(), 0);
  EXPECT_GT(sp_.FreeSpace(), 4000u);
}

TEST_F(SlottedPageTest, UninitializedPageIsDetected) {
  Page fresh;
  SlottedPage sp(&fresh);
  EXPECT_FALSE(sp.IsInitialized());
}

TEST_F(SlottedPageTest, InsertAndRead) {
  auto slot = sp_.Insert("hello world");
  ASSERT_TRUE(slot.ok());
  std::string_view out;
  ASSERT_TRUE(sp_.Read(slot.value(), &out).ok());
  EXPECT_EQ(out, "hello world");
  EXPECT_TRUE(sp_.IsLive(slot.value()));
}

TEST_F(SlottedPageTest, MultipleRecordsKeepDistinctSlots) {
  auto a = sp_.Insert("aaa");
  auto b = sp_.Insert("bbbbbb");
  auto c = sp_.Insert("c");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_NE(b.value(), c.value());
  std::string_view out;
  ASSERT_TRUE(sp_.Read(b.value(), &out).ok());
  EXPECT_EQ(out, "bbbbbb");
}

TEST_F(SlottedPageTest, ReadOfEmptySlotIsNotFound) {
  std::string_view out;
  EXPECT_TRUE(sp_.Read(0, &out).IsNotFound());
  auto slot = sp_.Insert("x");
  ASSERT_TRUE(slot.ok());
  EXPECT_TRUE(sp_.Read(slot.value() + 1, &out).IsNotFound());
}

TEST_F(SlottedPageTest, DeleteFreesSlotForReuse) {
  auto a = sp_.Insert("first");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(sp_.Delete(a.value()).ok());
  EXPECT_FALSE(sp_.IsLive(a.value()));
  std::string_view out;
  EXPECT_TRUE(sp_.Read(a.value(), &out).IsNotFound());
  // The freed slot is reused by the next insert.
  auto b = sp_.Insert("second");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value(), a.value());
  ASSERT_TRUE(sp_.Read(b.value(), &out).ok());
  EXPECT_EQ(out, "second");
}

TEST_F(SlottedPageTest, DoubleDeleteIsNotFound) {
  auto a = sp_.Insert("x");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(sp_.Delete(a.value()).ok());
  EXPECT_TRUE(sp_.Delete(a.value()).IsNotFound());
}

TEST_F(SlottedPageTest, UpdateInPlaceShrinks) {
  auto a = sp_.Insert("a longer payload");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(sp_.Update(a.value(), "tiny").ok());
  std::string_view out;
  ASSERT_TRUE(sp_.Read(a.value(), &out).ok());
  EXPECT_EQ(out, "tiny");
}

TEST_F(SlottedPageTest, UpdateGrowsWithinPage) {
  auto a = sp_.Insert("small");
  auto b = sp_.Insert("neighbor");
  ASSERT_TRUE(a.ok() && b.ok());
  std::string big(300, 'G');
  ASSERT_TRUE(sp_.Update(a.value(), big).ok());
  std::string_view out;
  ASSERT_TRUE(sp_.Read(a.value(), &out).ok());
  EXPECT_EQ(out, big);
  ASSERT_TRUE(sp_.Read(b.value(), &out).ok());
  EXPECT_EQ(out, "neighbor");  // Neighbor untouched.
}

TEST_F(SlottedPageTest, UpdateOfEmptySlotIsNotFound) {
  EXPECT_TRUE(sp_.Update(0, "x").IsNotFound());
}

TEST_F(SlottedPageTest, OversizedInsertIsRejected) {
  std::string huge(SlottedPage::MaxPayload() + 1, 'X');
  EXPECT_TRUE(sp_.Insert(huge).status().IsInvalidArgument());
}

TEST_F(SlottedPageTest, MaxPayloadRecordFits) {
  std::string max(SlottedPage::MaxPayload(), 'M');
  auto slot = sp_.Insert(max);
  ASSERT_TRUE(slot.ok());
  std::string_view out;
  ASSERT_TRUE(sp_.Read(slot.value(), &out).ok());
  EXPECT_EQ(out.size(), max.size());
}

TEST_F(SlottedPageTest, FillsUntilPageFull) {
  std::string payload(100, 'p');
  int inserted = 0;
  while (true) {
    auto slot = sp_.Insert(payload);
    if (!slot.ok()) {
      EXPECT_TRUE(slot.status().IsNotFound());
      break;
    }
    ++inserted;
    ASSERT_LT(inserted, 100) << "page never filled";
  }
  EXPECT_GT(inserted, 30);  // ~4KB / ~104B.
}

TEST_F(SlottedPageTest, CompactionReclaimsDeadBytes) {
  // Fill, delete half, then insert something that only fits after
  // compaction.
  std::vector<uint16_t> slots;
  std::string payload(200, 'q');
  while (true) {
    auto slot = sp_.Insert(payload);
    if (!slot.ok()) break;
    slots.push_back(slot.value());
  }
  ASSERT_GT(slots.size(), 10u);
  for (size_t i = 0; i < slots.size(); i += 2) {
    ASSERT_TRUE(sp_.Delete(slots[i]).ok());
  }
  // A record bigger than any single hole but smaller than total free space.
  std::string big(600, 'B');
  auto slot = sp_.Insert(big);
  ASSERT_TRUE(slot.ok()) << slot.status().ToString();
  std::string_view out;
  ASSERT_TRUE(sp_.Read(slot.value(), &out).ok());
  EXPECT_EQ(out, big);
  // Survivors intact after compaction.
  for (size_t i = 1; i < slots.size(); i += 2) {
    ASSERT_TRUE(sp_.Read(slots[i], &out).ok());
    EXPECT_EQ(out, payload);
  }
}

/// Property test: a random op sequence against a std::map reference model.
TEST_F(SlottedPageTest, RandomOpsMatchReferenceModel) {
  std::mt19937 rng(20260704);
  std::map<uint16_t, std::string> model;
  for (int step = 0; step < 3000; ++step) {
    int op = static_cast<int>(rng() % 3);
    if (op == 0) {  // Insert.
      std::string payload(1 + rng() % 120, static_cast<char>('a' + rng() % 26));
      auto slot = sp_.Insert(payload);
      if (slot.ok()) {
        ASSERT_EQ(model.count(slot.value()), 0u);
        model[slot.value()] = payload;
      } else {
        ASSERT_TRUE(slot.status().IsNotFound());
      }
    } else if (op == 1 && !model.empty()) {  // Update.
      auto it = model.begin();
      std::advance(it, rng() % model.size());
      std::string payload(1 + rng() % 120, static_cast<char>('A' + rng() % 26));
      Status s = sp_.Update(it->first, payload);
      if (s.ok()) {
        it->second = payload;
      } else {
        ASSERT_TRUE(s.IsFailedPrecondition()) << s.ToString();
      }
    } else if (op == 2 && !model.empty()) {  // Delete.
      auto it = model.begin();
      std::advance(it, rng() % model.size());
      ASSERT_TRUE(sp_.Delete(it->first).ok());
      model.erase(it);
    }
  }
  // Final state matches.
  for (const auto& [slot, expected] : model) {
    std::string_view out;
    ASSERT_TRUE(sp_.Read(slot, &out).ok()) << "slot " << slot;
    EXPECT_EQ(out, expected) << "slot " << slot;
  }
  for (uint16_t slot = 0; slot < sp_.SlotCount(); ++slot) {
    EXPECT_EQ(sp_.IsLive(slot), model.count(slot) != 0) << "slot " << slot;
  }
}

}  // namespace
}  // namespace sentinel
