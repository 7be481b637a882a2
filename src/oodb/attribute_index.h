// Copyright (c) 2026 The Sentinel Authors. Licensed under Apache-2.0.
//
// AttributeIndex: associative access over class extents.
//
// Zeitgeist (and any adoptable OODB) offers more than fetch-by-Oid; rule
// conditions such as "is any employee paid more than the manager?" want
// value lookups over extents. An AttributeIndex maps
//
//     (class, attribute, value)  ->  committed Oids
//
// with equality and range queries. Indexes are declared per (class, attr),
// cover subclass extents optionally at query time (the caller decides via
// the catalog), and are maintained from committed object images only —
// uncommitted transactions never show up. Index *definitions* persist with
// the database; the entries themselves rebuild at open from the heap.
//
// Objects whose state was written by a custom serializer (not the default
// attribute map) are counted in unindexable_count() and skipped.

#ifndef SENTINEL_OODB_ATTRIBUTE_INDEX_H_
#define SENTINEL_OODB_ATTRIBUTE_INDEX_H_

#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "common/value.h"
#include "oodb/oid.h"

namespace sentinel {

/// Total order over Values for index keys: first by type rank, then by
/// value within the type (numerics compare cross-type by magnitude and get
/// one shared rank).
struct ValueLess {
  bool operator()(const Value& a, const Value& b) const;
};

/// One (class, attribute) index.
struct IndexSpec {
  std::string class_name;
  std::string attribute;

  bool operator<(const IndexSpec& o) const {
    return std::tie(class_name, attribute) <
           std::tie(o.class_name, o.attribute);
  }
  bool operator==(const IndexSpec&) const = default;
  std::string ToString() const { return class_name + "." + attribute; }
};

/// In-memory value indexes over committed objects. Thread safe.
class AttributeIndex {
 public:
  AttributeIndex() = default;
  AttributeIndex(const AttributeIndex&) = delete;
  AttributeIndex& operator=(const AttributeIndex&) = delete;

  // --- Definitions -----------------------------------------------------------

  /// Declares an index. AlreadyExists when declared twice. The caller is
  /// responsible for back-filling existing objects (Database does).
  Status CreateIndex(const IndexSpec& spec);

  Status DropIndex(const IndexSpec& spec);

  bool HasIndex(const IndexSpec& spec) const;
  std::vector<IndexSpec> Specs() const;

  // --- Maintenance (committed images only) ------------------------------------

  /// Installs/updates the index entries of one committed object. `state`
  /// is the serialized image; non-attribute-map images are skipped.
  void OnCommittedPut(Oid oid, std::string_view class_name,
                      std::string_view state);

  /// Drops all entries of a deleted object.
  void OnCommittedDelete(Oid oid);

  /// Drops all entries (e.g. before a rebuild).
  void Clear();

  // --- Queries ------------------------------------------------------------------

  /// Oids of class `spec.class_name` whose `spec.attribute` equals `value`
  /// (sorted). NotFound when no such index exists.
  Result<std::vector<Oid>> Lookup(const IndexSpec& spec,
                                  const Value& value) const;

  /// Oids with lo <= value <= hi (either bound may be null Value = open).
  Result<std::vector<Oid>> Range(const IndexSpec& spec, const Value& lo,
                                 const Value& hi) const;

  /// Distinct indexed values in order (for diagnostics/tests).
  Result<std::vector<Value>> Keys(const IndexSpec& spec) const;

  // --- Stats ----------------------------------------------------------------------

  uint64_t indexed_count() const { return indexed_; }
  uint64_t unindexable_count() const { return unindexable_; }

  // --- Definition persistence --------------------------------------------------------

  void EncodeSpecs(Encoder* enc) const;
  Status DecodeSpecs(Decoder* dec);

 private:
  struct OneIndex {
    std::map<Value, std::set<Oid>, ValueLess> entries;
  };

  /// Removes `oid` from every index it appears in. Caller holds mutex_.
  void EraseOidLocked(Oid oid);

  mutable std::mutex mutex_;
  std::map<IndexSpec, OneIndex> indexes_;
  // Reverse map for O(indexes) deletion: oid -> (spec, value) pairs.
  std::map<Oid, std::vector<std::pair<IndexSpec, Value>>> reverse_;
  uint64_t indexed_ = 0;
  uint64_t unindexable_ = 0;
};

}  // namespace sentinel

#endif  // SENTINEL_OODB_ATTRIBUTE_INDEX_H_
