// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.

#include "storage/slotted_page.h"

#include <cstring>
#include <vector>

namespace sentinel {

namespace {
constexpr uint32_t kMagic = 0x534c5054;  // "SLPT"
}  // namespace

struct SlottedPage::Header {
  uint32_t magic;
  uint16_t slot_count;     // Directory entries, live or dead.
  uint16_t free_begin;     // First byte after the slot directory.
  uint16_t heap_begin;     // First byte of the record heap (grows down).
  uint16_t dead_bytes;     // Reclaimable bytes in the heap.
};

struct SlottedPage::Slot {
  uint16_t offset;  // Byte offset of the record; 0 means empty slot.
  uint16_t length;
};

SlottedPage::Header* SlottedPage::header() {
  return reinterpret_cast<Header*>(page_->data());
}

const SlottedPage::Header* SlottedPage::header() const {
  return reinterpret_cast<const Header*>(page_->data());
}

SlottedPage::Slot* SlottedPage::slots() {
  return reinterpret_cast<Slot*>(page_->data() + sizeof(Header));
}

const SlottedPage::Slot* SlottedPage::slots() const {
  return reinterpret_cast<const Slot*>(page_->data() + sizeof(Header));
}

void SlottedPage::Init() {
  std::memset(page_->data(), 0, kPageSize);
  Header* h = header();
  h->magic = kMagic;
  h->slot_count = 0;
  h->free_begin = sizeof(Header);
  h->heap_begin = kPageSize;
  h->dead_bytes = 0;
}

bool SlottedPage::IsInitialized() const { return header()->magic == kMagic; }

size_t SlottedPage::FreeSpace() const {
  const Header* h = header();
  size_t gap = h->heap_begin - h->free_begin;
  size_t need_slot = sizeof(Slot);
  size_t usable = gap + h->dead_bytes;
  return usable > need_slot ? usable - need_slot : 0;
}

uint16_t SlottedPage::SlotCount() const { return header()->slot_count; }

bool SlottedPage::IsLive(uint16_t slot) const {
  const Header* h = header();
  if (slot >= h->slot_count) return false;
  return slots()[slot].offset != 0;
}

size_t SlottedPage::MaxPayload() {
  return kPageSize - sizeof(Header) - sizeof(Slot);
}

void SlottedPage::Compact() {
  Header* h = header();
  // Collect live records, rewrite the heap from the top of the page down.
  struct LiveRec {
    uint16_t slot;
    std::string bytes;
  };
  std::vector<LiveRec> live;
  Slot* dir = slots();
  for (uint16_t i = 0; i < h->slot_count; ++i) {
    if (dir[i].offset != 0) {
      live.push_back(
          {i, std::string(page_->data() + dir[i].offset, dir[i].length)});
    }
  }
  uint16_t cursor = kPageSize;
  for (const LiveRec& rec : live) {
    cursor = static_cast<uint16_t>(cursor - rec.bytes.size());
    std::memcpy(page_->data() + cursor, rec.bytes.data(), rec.bytes.size());
    dir[rec.slot].offset = cursor;
  }
  h->heap_begin = cursor;
  h->dead_bytes = 0;
}

Result<uint16_t> SlottedPage::Insert(std::string_view payload) {
  Header* h = header();
  if (payload.size() > MaxPayload()) {
    return Status::InvalidArgument("record too large for a page");
  }
  // Reuse a dead slot when possible; otherwise grow the directory.
  uint16_t slot = h->slot_count;
  bool reuse = false;
  Slot* dir = slots();
  for (uint16_t i = 0; i < h->slot_count; ++i) {
    if (dir[i].offset == 0) {
      slot = i;
      reuse = true;
      break;
    }
  }
  size_t need = payload.size() + (reuse ? 0 : sizeof(Slot));
  size_t gap = h->heap_begin - h->free_begin;
  if (gap < need) {
    if (gap + h->dead_bytes < need) {
      return Status::NotFound("page full");
    }
    Compact();
    gap = header()->heap_begin - header()->free_begin;
    if (gap < need) return Status::NotFound("page full after compaction");
  }
  if (!reuse) {
    h->slot_count++;
    h->free_begin = static_cast<uint16_t>(h->free_begin + sizeof(Slot));
    dir = slots();
  }
  h->heap_begin = static_cast<uint16_t>(h->heap_begin - payload.size());
  std::memcpy(page_->data() + h->heap_begin, payload.data(), payload.size());
  dir[slot].offset = h->heap_begin;
  dir[slot].length = static_cast<uint16_t>(payload.size());
  return slot;
}

Status SlottedPage::Read(uint16_t slot, std::string_view* out) const {
  const Header* h = header();
  if (slot >= h->slot_count || slots()[slot].offset == 0) {
    return Status::NotFound("no record in slot " + std::to_string(slot));
  }
  const Slot& s = slots()[slot];
  *out = std::string_view(page_->data() + s.offset, s.length);
  return Status::OK();
}

Status SlottedPage::Update(uint16_t slot, std::string_view payload) {
  Header* h = header();
  if (slot >= h->slot_count || slots()[slot].offset == 0) {
    return Status::NotFound("no record in slot " + std::to_string(slot));
  }
  Slot* dir = slots();
  Slot& s = dir[slot];
  if (payload.size() <= s.length) {
    // Shrink in place; the tail bytes become dead.
    h->dead_bytes = static_cast<uint16_t>(h->dead_bytes +
                                          (s.length - payload.size()));
    std::memcpy(page_->data() + s.offset, payload.data(), payload.size());
    s.length = static_cast<uint16_t>(payload.size());
    return Status::OK();
  }
  // Grow: free the old bytes, then insert fresh bytes in the heap.
  size_t gap = h->heap_begin - h->free_begin;
  if (gap + h->dead_bytes + s.length < payload.size()) {
    return Status::FailedPrecondition("page cannot host grown record");
  }
  h->dead_bytes = static_cast<uint16_t>(h->dead_bytes + s.length);
  s.offset = 0;  // Mark dead so Compact drops the old image.
  if (gap < payload.size()) {
    Compact();
    h = header();
    dir = slots();
  }
  h->heap_begin = static_cast<uint16_t>(h->heap_begin - payload.size());
  std::memcpy(page_->data() + h->heap_begin, payload.data(), payload.size());
  dir[slot].offset = h->heap_begin;
  dir[slot].length = static_cast<uint16_t>(payload.size());
  return Status::OK();
}

Status SlottedPage::Delete(uint16_t slot) {
  Header* h = header();
  if (slot >= h->slot_count || slots()[slot].offset == 0) {
    return Status::NotFound("no record in slot " + std::to_string(slot));
  }
  Slot& s = slots()[slot];
  h->dead_bytes = static_cast<uint16_t>(h->dead_bytes + s.length);
  s.offset = 0;
  s.length = 0;
  return Status::OK();
}

}  // namespace sentinel
