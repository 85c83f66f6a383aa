// Fixed-size set of integer slots stored one bit per slot.
//
// The router keeps its per-VC pipeline state as slot sets (one slot per
// input x VC), so each stage visits only the slots that can act instead of
// scanning every slot. `for_each_from` walks the set slots of a range in
// rotated order — start, start+1, ..., hi-1, lo, ..., start-1 — which is
// exactly the order of a round-robin scan `lo + (start - lo + k) % (hi - lo)`
// restricted to set slots, so replacing such a scan keeps arbitration order.
// Any slot count is supported; storage is allocated once at construction.
#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ownsim {

class SlotSet {
 public:
  explicit SlotSet(int size)
      : words_(static_cast<std::size_t>((size + 63) / 64), 0) {}

  bool contains(int slot) const { return (word(slot) & bit(slot)) != 0; }
  void insert(int slot) { word(slot) |= bit(slot); }
  void erase(int slot) { word(slot) &= ~bit(slot); }

  /// Erases every slot in [lo, hi).
  void erase_range(int lo, int hi) {
    for (int s = next(lo, hi); s < hi; s = next(s + 1, hi)) erase(s);
  }

  /// Smallest set slot in [from, end), or `end` when there is none.
  int next(int from, int end) const {
    assert(from >= 0 && end <= capacity());
    if (from >= end) return end;
    auto w = static_cast<std::size_t>(from >> 6);
    const auto last = static_cast<std::size_t>((end - 1) >> 6);
    std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (from & 63));
    while (bits == 0) {
      if (w == last) return end;
      bits = words_[++w];
    }
    const int slot = static_cast<int>(w * 64) + std::countr_zero(bits);
    return slot < end ? slot : end;
  }

  /// Calls `visit(slot)` for each set slot of [lo, hi) in rotated order from
  /// `start` (lo <= start < hi) until `visit` returns false. Membership is
  /// read live, so `visit` may erase the slot it is given; a slot inserted
  /// ahead of the walk is visited, as a live scan would see it.
  template <typename Visit>
  void for_each_from(int lo, int hi, int start, Visit&& visit) const {
    assert(lo <= start && (start < hi || lo == hi));
    for (int s = next(start, hi); s < hi; s = next(s + 1, hi)) {
      if (!visit(s)) return;
    }
    for (int s = next(lo, start); s < start; s = next(s + 1, start)) {
      if (!visit(s)) return;
    }
  }

 private:
  static std::uint64_t bit(int slot) { return std::uint64_t{1} << (slot & 63); }
  int capacity() const { return static_cast<int>(words_.size()) * 64; }
  std::uint64_t& word(int slot) {
    assert(slot >= 0 && slot < capacity());
    return words_[static_cast<std::size_t>(slot >> 6)];
  }
  std::uint64_t word(int slot) const {
    assert(slot >= 0 && slot < capacity());
    return words_[static_cast<std::size_t>(slot >> 6)];
  }

  std::vector<std::uint64_t> words_;
};

}  // namespace ownsim
