// SlotSet: the rotated set-bit walk must visit exactly the slots, in exactly
// the order, of the round-robin scan it replaces in the router —
// `lo + (start - lo + k) % (hi - lo)` for k = 0..hi-lo-1, keeping set slots —
// for any slot count, including sets that span several 64-bit words.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/slot_set.hpp"

namespace ownsim {
namespace {

std::vector<int> scan_order(const std::vector<bool>& member, int lo, int hi,
                            int start) {
  std::vector<int> order;
  const int n = hi - lo;
  for (int k = 0; k < n; ++k) {
    const int idx = lo + (start - lo + k) % n;
    if (member[static_cast<std::size_t>(idx)]) order.push_back(idx);
  }
  return order;
}

std::vector<int> walk_order(const SlotSet& set, int lo, int hi, int start) {
  std::vector<int> order;
  set.for_each_from(lo, hi, start, [&](int s) {
    order.push_back(s);
    return true;
  });
  return order;
}

SlotSet make_set(const std::vector<bool>& member) {
  SlotSet set(static_cast<int>(member.size()));
  for (std::size_t i = 0; i < member.size(); ++i) {
    if (member[i]) set.insert(static_cast<int>(i));
  }
  return set;
}

/// Every start over the whole range must match the reference scan.
void expect_matches_scan(const std::vector<bool>& member) {
  const SlotSet set = make_set(member);
  const int n = static_cast<int>(member.size());
  for (int start = 0; start < n; ++start) {
    EXPECT_EQ(walk_order(set, 0, n, start), scan_order(member, 0, n, start))
        << "size " << n << " start " << start;
  }
}

TEST(SlotSet, EmptySetVisitsNothing) {
  for (const int n : {1, 4, 64, 80, 130}) {
    expect_matches_scan(std::vector<bool>(static_cast<std::size_t>(n), false));
    const SlotSet set(n);
    EXPECT_EQ(set.next(0, n), n);
  }
}

TEST(SlotSet, FullSetVisitsEverySlotInRotatedOrder) {
  for (const int n : {1, 4, 63, 64, 65, 80, 130}) {
    const std::vector<bool> member(static_cast<std::size_t>(n), true);
    expect_matches_scan(member);
    const SlotSet set = make_set(member);
    // Start at bit 0: plain ascending order.
    std::vector<int> ascending;
    for (int i = 0; i < n; ++i) ascending.push_back(i);
    EXPECT_EQ(walk_order(set, 0, n, 0), ascending);
    // Start at the last bit: it first, then everything from 0.
    std::vector<int> from_last = {n - 1};
    for (int i = 0; i < n - 1; ++i) from_last.push_back(i);
    EXPECT_EQ(walk_order(set, 0, n, n - 1), from_last);
  }
}

TEST(SlotSet, RandomSetsAcrossWordBoundariesMatchScan) {
  Rng rng(7);
  for (const int n : {5, 64, 80, 130}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<bool> member(static_cast<std::size_t>(n));
      for (std::size_t i = 0; i < member.size(); ++i) {
        member[i] = rng.uniform() < 0.3;
      }
      expect_matches_scan(member);
    }
  }
}

TEST(SlotSet, SubRangesMatchScanAndIgnoreNeighbours) {
  // Per-input-port walks use a sub-range; set bits on either side (and
  // across the 64-bit boundary at 60..68) must never leak in.
  Rng rng(11);
  const int n = 130;
  std::vector<bool> member(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < member.size(); ++i) {
    member[i] = rng.uniform() < 0.5;
  }
  const SlotSet set = make_set(member);
  for (const auto& [lo, hi] : {std::pair{0, 4}, std::pair{60, 68},
                               std::pair{64, 128}, std::pair{126, 130}}) {
    for (int start = lo; start < hi; ++start) {
      EXPECT_EQ(walk_order(set, lo, hi, start),
                scan_order(member, lo, hi, start))
          << "[" << lo << "," << hi << ") start " << start;
    }
  }
}

TEST(SlotSet, WalkStopsEarlyAndReadsMembershipLive) {
  SlotSet set(80);
  for (const int s : {3, 40, 66, 70, 79}) set.insert(s);
  // Early stop: the first visit that returns false ends the walk.
  std::vector<int> seen;
  set.for_each_from(0, 80, 65, [&](int s) {
    seen.push_back(s);
    return s != 79;
  });
  EXPECT_EQ(seen, (std::vector<int>{66, 70, 79}));
  // Erasing the visited slot (how stages retire a VC) and a slot still
  // ahead of the walk: the erased-ahead slot is not visited.
  seen.clear();
  set.for_each_from(0, 80, 65, [&](int s) {
    seen.push_back(s);
    set.erase(s);
    if (s == 66) set.erase(3);
    return true;
  });
  EXPECT_EQ(seen, (std::vector<int>{66, 70, 79, 40}));
  EXPECT_EQ(set.next(0, 80), 80);
}

TEST(SlotSet, EraseRangeClearsOnlyTheRange) {
  SlotSet set(130);
  for (int s = 0; s < 130; ++s) set.insert(s);
  set.erase_range(60, 70);
  for (int s = 0; s < 130; ++s) {
    EXPECT_EQ(set.contains(s), s < 60 || s >= 70) << s;
  }
  EXPECT_EQ(set.next(60, 130), 70);
  EXPECT_EQ(set.next(60, 70), 70);
}

}  // namespace
}  // namespace ownsim
