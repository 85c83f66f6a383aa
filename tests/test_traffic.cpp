// Tests for traffic patterns and the Bernoulli injector, including
// property-style parameterized checks on permutation invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "helpers.hpp"
#include "metrics/runner.hpp"
#include "topology/registry.hpp"
#include "traffic/injector.hpp"
#include "traffic/patterns.hpp"

namespace ownsim {
namespace {

TEST(Patterns, ParseAcceptsPaperNames) {
  EXPECT_EQ(parse_pattern("UN"), PatternKind::kUniform);
  EXPECT_EQ(parse_pattern("BR"), PatternKind::kBitReversal);
  EXPECT_EQ(parse_pattern("MT"), PatternKind::kTranspose);
  EXPECT_EQ(parse_pattern("PS"), PatternKind::kShuffle);
  EXPECT_EQ(parse_pattern("NBR"), PatternKind::kNeighbor);
  EXPECT_THROW(parse_pattern("nope"), std::invalid_argument);
}

TEST(Patterns, BitReversalKnownValues) {
  TrafficPattern p(PatternKind::kBitReversal, 256);
  Rng rng(1);
  EXPECT_EQ(p.dest(0, rng), 0);
  EXPECT_EQ(p.dest(1, rng), 128);    // 00000001 -> 10000000
  EXPECT_EQ(p.dest(0b10110001, rng), 0b10001101);
}

TEST(Patterns, TransposeKnownValues) {
  TrafficPattern p(PatternKind::kTranspose, 256);
  Rng rng(1);
  // (row, col) swap on a 16x16 grid: node 0x12 -> 0x21.
  EXPECT_EQ(p.dest(0x12, rng), 0x21);
  EXPECT_EQ(p.dest(0xF0, rng), 0x0F);
}

TEST(Patterns, ShuffleRotatesLeft) {
  TrafficPattern p(PatternKind::kShuffle, 8);
  Rng rng(1);
  EXPECT_EQ(p.dest(0b001, rng), 0b010);
  EXPECT_EQ(p.dest(0b100, rng), 0b001);
  EXPECT_EQ(p.dest(0b110, rng), 0b101);
}

TEST(Patterns, RejectsNonPow2ForBitPatterns) {
  EXPECT_THROW(TrafficPattern(PatternKind::kBitReversal, 100),
               std::invalid_argument);
  EXPECT_NO_THROW(TrafficPattern(PatternKind::kUniform, 100));
  EXPECT_NO_THROW(TrafficPattern(PatternKind::kNeighbor, 100));
}

TEST(Patterns, UniformCoversAllDestinations) {
  TrafficPattern p(PatternKind::kUniform, 16);
  Rng rng(3);
  std::set<NodeId> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(p.dest(0, rng));
  EXPECT_EQ(seen.size(), 16u);
}

TEST(Patterns, HotspotSkewsToNodeZero) {
  TrafficPattern p(PatternKind::kHotspot, 64);
  Rng rng(4);
  int zero = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (p.dest(5, rng) == 0) ++zero;
  }
  // 20% targeted + 1/64 of the remaining uniform share.
  EXPECT_NEAR(static_cast<double>(zero) / n, 0.2 + 0.8 / 64, 0.02);
}

// Property: deterministic paper patterns are permutations (bijective).
class PermutationPattern
    : public ::testing::TestWithParam<std::tuple<PatternKind, int>> {};

TEST_P(PermutationPattern, IsBijective) {
  const auto [kind, n] = GetParam();
  TrafficPattern p(kind, n);
  Rng rng(1);
  std::set<NodeId> images;
  for (NodeId src = 0; src < n; ++src) {
    const NodeId d = p.dest(src, rng);
    ASSERT_GE(d, 0);
    ASSERT_LT(d, n);
    images.insert(d);
  }
  EXPECT_EQ(images.size(), static_cast<std::size_t>(n));
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndSizes, PermutationPattern,
    ::testing::Combine(::testing::Values(PatternKind::kBitReversal,
                                         PatternKind::kTranspose,
                                         PatternKind::kShuffle,
                                         PatternKind::kNeighbor,
                                         PatternKind::kBitComplement,
                                         PatternKind::kTornado),
                       ::testing::Values(16, 64, 256, 1024)));

// ---- Injector ----------------------------------------------------------------

TEST(Injector, OfferedLoadMatchesRate) {
  Network net(testing::ring_spec(8));
  TrafficPattern pattern(PatternKind::kUniform, 8);
  Injector::Params params;
  params.rate = 0.2;
  params.packet_flits = 4;
  Injector injector(&net, pattern, params);
  net.engine().add(&injector);
  net.engine().run(20000);
  // Expected packets = nodes * cycles * rate / flits = 8*20000*0.05 = 8000.
  EXPECT_NEAR(static_cast<double>(injector.packets_offered()), 8000, 300);
}

TEST(Injector, DeterministicAcrossRuns) {
  auto run_once = [] {
    Network net(testing::ring_spec(8));
    TrafficPattern pattern(PatternKind::kUniform, 8);
    Injector::Params params;
    params.rate = 0.15;
    params.master_seed = 99;
    Injector injector(&net, pattern, params);
    net.engine().add(&injector);
    net.engine().run(5000);
    return std::make_pair(injector.packets_offered(),
                          net.nic().flits_ejected());
  };
  EXPECT_EQ(run_once(), run_once());
}

// The injector's calendar must offer exactly what a scan over every node on
// every cycle offers: same packets, same cycles, same NIC order (packet ids).
// The reference below is that scan — one pre-drawn lookahead per node, each
// node visited in order on every enabled cycle.
struct Offer {
  Cycle at;
  NodeId src;
  NodeId dst;
  bool operator==(const Offer&) const = default;
};

std::vector<Offer> scan_reference(const Network& net,
                                  const TrafficPattern& pattern,
                                  const Injector::Params& params,
                                  const std::vector<bool>& enabled) {
  const int n = net.spec().num_nodes;
  const double p = params.rate / params.packet_flits;
  std::vector<Rng> rngs;
  for (NodeId node = 0; node < n; ++node) {
    rngs.emplace_back(params.master_seed, static_cast<std::uint64_t>(node));
  }
  struct Lookahead {
    Cycle next_fire = kNeverCycle;
    Cycle drawn_until = 0;
  };
  std::vector<Lookahead> look;
  const auto advance = [&](Lookahead& node, Rng& rng) {
    const Cycle limit = node.drawn_until + Injector::kLookaheadCycles;
    for (Cycle c = node.drawn_until; c < limit; ++c) {
      if (rng.chance(p)) {
        node.next_fire = c;
        node.drawn_until = c + 1;
        return;
      }
    }
    node.next_fire = kNeverCycle;
    node.drawn_until = limit;
  };
  std::vector<Offer> offers;
  for (Cycle now = 0; now < static_cast<Cycle>(enabled.size()); ++now) {
    if (!enabled[static_cast<std::size_t>(now)]) continue;
    if (look.empty()) {
      look.assign(static_cast<std::size_t>(n), {kNeverCycle, now});
    }
    for (NodeId src = 0; src < n; ++src) {
      Lookahead& node = look[static_cast<std::size_t>(src)];
      Rng& rng = rngs[static_cast<std::size_t>(src)];
      if (node.next_fire != kNeverCycle && node.next_fire < now) {
        node = {kNeverCycle, now};
      }
      while (node.next_fire == kNeverCycle && node.drawn_until <= now) {
        advance(node, rng);
      }
      if (node.next_fire != now) continue;
      offers.push_back({now, src, pattern.dest(src, rng)});
      if (net.spec().has_alt_routing()) rng.chance(0.5);
      node = {kNeverCycle, now + 1};
      advance(node, rng);
    }
  }
  return offers;
}

TEST(Injector, CalendarOffersWhatAPerCycleScanOffers) {
  TopologyOptions options;
  options.num_cores = 64;
  Network net(build_topology(TopologyKind::kCMesh, options));
  net.engine().set_mode(KernelMode::kActivity);
  TrafficPattern pattern(PatternKind::kUniform, 64);
  Injector::Params params;
  params.rate = 0.2;  // 0.05 packets/node/cycle: ~3 nodes fire per cycle
  params.packet_flits = 4;
  params.master_seed = 11;
  Injector injector(&net, pattern, params);
  net.engine().add(&injector);

  // On for 300 cycles, paused for 150, on again for 300.
  std::vector<bool> enabled(750, true);
  std::fill(enabled.begin() + 300, enabled.begin() + 450, false);
  net.engine().run(300);
  injector.set_enabled(false);
  net.engine().run(150);
  injector.set_enabled(true);
  net.engine().run(300);
  injector.set_enabled(false);
  ASSERT_TRUE(net.engine().run_until(
      [&] { return net.nic().packets_in_flight() == 0; }, 200000));

  const std::vector<Offer> expected =
      scan_reference(net, pattern, params, enabled);
  std::map<Cycle, int> per_cycle;
  for (const Offer& offer : expected) ++per_cycle[offer.at];
  int busiest = 0;
  for (const auto& [cycle, count] : per_cycle) {
    busiest = std::max(busiest, count);
  }
  ASSERT_GE(busiest, 4) << "rate too low to fire several nodes per cycle";
  bool fired_after_pause = false;
  for (const Offer& offer : expected) fired_after_pause |= offer.at >= 450;
  ASSERT_TRUE(fired_after_pause);

  // Packet ids are handed out in NIC enqueue order, so offer k is packet k.
  std::vector<PacketRecord> records = net.nic().records();
  std::sort(records.begin(), records.end(),
            [](const PacketRecord& a, const PacketRecord& b) {
              return a.packet < b.packet;
            });
  ASSERT_EQ(injector.packets_offered(),
            static_cast<std::int64_t>(expected.size()));
  ASSERT_EQ(records.size(), expected.size());
  for (std::size_t k = 0; k < records.size(); ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(records[k].packet, static_cast<PacketId>(k));
    EXPECT_EQ((Offer{records[k].created, records[k].src, records[k].dst}),
              expected[k]);
  }
}

TEST(Injector, RejectsSizeMismatch) {
  Network net(testing::ring_spec(8));
  TrafficPattern pattern(PatternKind::kUniform, 16);
  EXPECT_THROW(Injector(&net, pattern, {}), std::invalid_argument);
}

TEST(Runner, LowLoadRunDrainsAndReportsSaneNumbers) {
  Network net(testing::ring_spec(8));
  TrafficPattern pattern(PatternKind::kUniform, 8);
  Injector::Params params;
  params.rate = 0.05;
  Injector injector(&net, pattern, params);
  net.engine().add(&injector);
  RunPhases phases;
  phases.warmup = 1000;
  phases.measure = 3000;
  const RunResult r = run_load_point(net, injector, phases);
  EXPECT_TRUE(r.drained);
  EXPECT_GT(r.measured_packets, 50);
  EXPECT_GT(r.avg_latency, 5.0);
  EXPECT_LT(r.avg_latency, 100.0);
  EXPECT_NEAR(r.throughput, 0.05, 0.02);
  EXPECT_GE(r.p99_latency, r.avg_latency);
  EXPECT_GE(r.avg_net_latency, 5.0);
  EXPECT_LE(r.avg_net_latency, r.avg_latency);
}

}  // namespace
}  // namespace ownsim
