#ifndef DEEPDIVE_STORAGE_DELTA_TABLE_H_
#define DEEPDIVE_STORAGE_DELTA_TABLE_H_

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/value.h"

namespace deepdive {

/// A counted multiset of tuples: the DRed "delta relation" R^δ of [21].
/// Each tuple carries a signed derivation-count change; +k means the tuple
/// gained k derivations, -k lost k. DRed view maintenance (engine/
/// view_maintenance) folds these into per-view derivation counts and decides
/// which tuples appear in / disappear from the view.
class DeltaTable {
 public:
  DeltaTable() = default;
  explicit DeltaTable(std::string name) : name_(std::move(name)) {}

  /// Immutable after construction; the table itself is single-owner state
  /// of the serving thread's view-maintenance pass.
  const std::string& name() const { return name_; }

  /// Adds `count` derivations for the tuple (negative for removals).
  void Add(const Tuple& tuple, int64_t count = 1);

  /// Signed count for a tuple (0 if absent).
  int64_t Count(const Tuple& tuple) const;

  bool empty() const;

  /// Distinct tuples with non-zero count.
  size_t size() const;

  /// Distinct tuples with negative count (O(1); maintained by Add). Delta
  /// evaluation skips its walk for deleted tuples when this is zero.
  size_t DeletionEntries() const { return negative_entries_; }

  /// Visits every (tuple, count) pair with count != 0, in hash-table order.
  /// For commutative folds only (count accumulation, set insertion); any
  /// consumer whose *output* depends on visit order (variable enumeration,
  /// emission) must use ForEachOrdered instead.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    // analysis:allow(determinism-unordered): visit order is unordered by
    // contract; order-sensitive consumers are required to use ForEachOrdered.
    for (const auto& [key, entry] : entries_) {
      (void)key;
      if (entry.count != 0) fn(entry.tuple, entry.count);
    }
  }

  /// Visits every (tuple, count) pair with count != 0 in tuple order —
  /// deterministic regardless of hash layout. O(n log n); the blessed
  /// helper for order-sensitive consumers.
  template <typename Fn>
  void ForEachOrdered(Fn&& fn) const {
    std::vector<const Entry*> ordered;
    ordered.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) {
      (void)key;
      if (entry.count != 0) ordered.push_back(&entry);
    }
    std::sort(ordered.begin(), ordered.end(),
              [](const Entry* a, const Entry* b) { return a->tuple < b->tuple; });
    for (const Entry* e : ordered) fn(e->tuple, e->count);
  }

  /// Splits into insertion-side (count>0) and deletion-side (count<0) tuples.
  std::vector<Tuple> Insertions() const;
  std::vector<Tuple> Deletions() const;

  void Clear() {
    entries_.clear();
    negative_entries_ = 0;
  }

 private:
  struct Entry {
    Tuple tuple;
    int64_t count = 0;
  };
  // Keyed by tuple hash; collisions resolved by probing alternate keys.
  std::unordered_map<uint64_t, Entry> entries_;

  uint64_t KeyFor(const Tuple& tuple) const;

  std::string name_;
  size_t negative_entries_ = 0;
};

}  // namespace deepdive

#endif  // DEEPDIVE_STORAGE_DELTA_TABLE_H_
