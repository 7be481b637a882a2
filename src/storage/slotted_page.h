// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// Classic slotted-page layout for variable-length records.
//
//   [ header | slot directory --> ... free ... <-- record heap ]
//
// Records are addressed by (page, slot) RecordIds. Deleting a record frees
// its slot for reuse; updating in place is allowed when the new payload fits,
// otherwise the record is moved within the page (the slot id is stable).

#ifndef SENTINEL_STORAGE_SLOTTED_PAGE_H_
#define SENTINEL_STORAGE_SLOTTED_PAGE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "storage/page.h"

namespace sentinel {

/// Stable address of a record: page number plus slot index.
struct RecordId {
  PageId page_id = kInvalidPageId;
  uint16_t slot = 0;

  bool valid() const { return page_id != kInvalidPageId; }
  bool operator==(const RecordId&) const = default;
  std::string ToString() const {
    return "rid{" + std::to_string(page_id) + "," + std::to_string(slot) +
           "}";
  }
};

/// View over a Page's bytes interpreted as a slotted page. Does not own the
/// page. The caller is responsible for pinning and latching.
class SlottedPage {
 public:
  /// Wraps `page` without touching its bytes.
  explicit SlottedPage(Page* page) : page_(page) {}

  /// Formats the underlying page as an empty slotted page.
  void Init();

  /// True if the page carries the slotted-page magic (i.e. Init was called
  /// on it at some point).
  bool IsInitialized() const;

  /// Inserts `payload`; returns the slot index, or kBusy-like NotFound when
  /// the page lacks space.
  Result<uint16_t> Insert(std::string_view payload);

  /// Points `out` at the record in `slot`, in place: valid while the page
  /// stays pinned and unmodified.
  Status Read(uint16_t slot, std::string_view* out) const;

  /// Replaces the record in `slot`. Fails with NotFound for empty slots and
  /// with FailedPrecondition when the page cannot host the new size.
  Status Update(uint16_t slot, std::string_view payload);

  /// Frees `slot`. Idempotent errors: NotFound for never-used/empty slots.
  Status Delete(uint16_t slot);

  /// Bytes available for a new record (accounting for its slot entry).
  size_t FreeSpace() const;

  /// Number of directory entries (including freed ones).
  uint16_t SlotCount() const;

  /// True if `slot` currently holds a record.
  bool IsLive(uint16_t slot) const;

  /// Largest payload a freshly Init'ed page can host.
  static size_t MaxPayload();

 private:
  struct Header;
  struct Slot;

  Header* header();
  const Header* header() const;
  Slot* slots();
  const Slot* slots() const;

  /// Rewrites the record heap dropping dead bytes, to make room.
  void Compact();

  Page* page_;
};

}  // namespace sentinel

#endif  // SENTINEL_STORAGE_SLOTTED_PAGE_H_
