// Small open-addressing hash map from NodeId to a trivially-copyable value.
// Search sessions overlay a handful of weight deltas on top of shared base
// arrays; std::unordered_map's allocation-per-node overhead dominates at that
// scale, so we use a flat power-of-two table with linear probing. The table
// stays at most half full: the descents probe mostly absent keys, and a
// miss under linear probing costs ~(1 + 1/(1−load)²)/2 slots — 2.5 at half
// load against 8.5 at three quarters. A default-constructed map allocates
// its table on the first insertion, so an unused one costs nothing.
#ifndef AIGS_UTIL_NODE_MAP_H_
#define AIGS_UTIL_NODE_MAP_H_

#include <cstddef>
#include <vector>

#include "util/common.h"

namespace aigs {

/// Flat hash map NodeId -> V with linear probing. V must be trivially
/// copyable. Deletion is not supported (sessions only accumulate deltas).
template <typename V>
class NodeMap {
 public:
  NodeMap() = default;
  /// Allocates `capacity` slots (a power of two; 0 = none) up front.
  explicit NodeMap(std::size_t capacity) {
    if (capacity > 0) {
      Rehash(capacity);
    }
  }

  /// Number of stored keys.
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Removes all entries (keeps capacity).
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{kInvalidNode, V{}});
    size_ = 0;
  }

  /// Returns a reference to the value for `key`, default-constructing it if
  /// absent.
  V& operator[](NodeId key) {
    AIGS_DCHECK(key != kInvalidNode);
    if ((size_ + 1) * 2 > slots_.size()) {
      Rehash(slots_.empty() ? 16 : slots_.size() * 2);
    }
    std::size_t i = Probe(key);
    if (slots_[i].key == kInvalidNode) {
      slots_[i].key = key;
      slots_[i].value = V{};
      ++size_;
    }
    return slots_[i].value;
  }

  /// Returns the value for `key`, or `fallback` if absent. No insertion.
  V GetOr(NodeId key, V fallback) const {
    if (size_ == 0) {
      return fallback;
    }
    const std::size_t i = Probe(key);
    return slots_[i].key == key ? slots_[i].value : fallback;
  }

  /// True iff `key` is present.
  bool Contains(NodeId key) const {
    return size_ != 0 && slots_[Probe(key)].key == key;
  }

  /// Invokes fn(key, value) for every entry (unspecified order).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kInvalidNode) {
        fn(s.key, s.value);
      }
    }
  }

 private:
  struct Slot {
    NodeId key = kInvalidNode;
    V value{};
  };

  static std::size_t Hash(NodeId key) {
    std::uint64_t x = key;
    x *= 0x9E3779B97F4A7C15ULL;
    return static_cast<std::size_t>(x >> 32);
  }

  std::size_t Probe(NodeId key) const {
    std::size_t i = Hash(key) & mask_;
    while (slots_[i].key != kInvalidNode && slots_[i].key != key) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void Rehash(std::size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    size_ = 0;
    for (const Slot& s : old) {
      if (s.key != kInvalidNode) {
        (*this)[s.key] = s.value;
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace aigs

#endif  // AIGS_UTIL_NODE_MAP_H_
