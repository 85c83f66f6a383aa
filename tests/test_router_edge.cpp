// Edge-case tests for the router microarchitecture: asymmetric port counts,
// single-VC operation, construction errors, wiring errors, state dumps,
// head-of-line behavior, VCA requester parking, output-stall sleep, and
// pinned arbitration results at saturation.
#include <gtest/gtest.h>

#include <deque>
#include <sstream>

#include "driver/simulate.hpp"
#include "helpers.hpp"
#include "network/network.hpp"
#include "sim/engine.hpp"

namespace ownsim {
namespace {

using testing::drain;
using testing::two_router_spec;

TEST(RouterEdge, RejectsBadConstruction) {
  Router::Params params;
  params.num_inputs = 0;
  params.num_outputs = 1;
  struct DummyOracle final : RoutingOracle {
    RouteEntry route(RouterId, const Flit&) const override { return {}; }
  } oracle;
  EXPECT_THROW(Router(params, &oracle), std::invalid_argument);
  params.num_inputs = 1;
  EXPECT_THROW(Router(params, nullptr), std::invalid_argument);
}

TEST(RouterEdge, DoubleWiringThrows) {
  std::vector<VcClassRange> classes = {{0, 4}};
  Router::Params params;
  params.num_inputs = 1;
  params.num_outputs = 1;
  struct DummyOracle final : RoutingOracle {
    RouteEntry route(RouterId, const Flit&) const override { return {}; }
  } oracle;
  Router router(params, &oracle);
  Channel channel(MediumType::kElectrical, 1, 1, 4, 8, Length{}, &classes, "c");
  router.connect_input(0, channel.in());
  EXPECT_THROW(router.connect_input(0, channel.in()), std::logic_error);
  router.connect_output(0, channel.out());
  EXPECT_THROW(router.connect_output(0, channel.out()), std::logic_error);
  EXPECT_THROW(router.connect_input(9, channel.in()), std::out_of_range);
}

TEST(RouterEdge, SingleVcNetworkStillDelivers) {
  NetworkSpec spec = two_router_spec(/*num_vcs=*/1, /*buffer_depth=*/4);
  spec.vc_classes = {{0, 1}};
  Network net(std::move(spec));
  for (int i = 0; i < 20; ++i) {
    net.nic().enqueue_packet(0, 1, 1, 4, 128, 0, 0, true);
  }
  ASSERT_TRUE(drain(net, 5000));
  EXPECT_EQ(net.nic().records().size(), 20u);
}

TEST(RouterEdge, DeepPacketsLargerThanBuffers) {
  // 12-flit packets through 4-deep buffers: pure wormhole spill-over.
  NetworkSpec spec = two_router_spec(4, 4);
  Network net(std::move(spec));
  for (int i = 0; i < 8; ++i) {
    net.nic().enqueue_packet(0, 1, 1, 12, 128, 0, 0, true);
  }
  ASSERT_TRUE(drain(net, 5000));
  ASSERT_EQ(net.nic().records().size(), 8u);
  for (const auto& rec : net.nic().records()) {
    EXPECT_EQ(rec.size_flits, 12);
  }
}

TEST(RouterEdge, DumpStateListsActivePackets) {
  Network net(two_router_spec());
  for (int i = 0; i < 4; ++i) {
    net.nic().enqueue_packet(0, 1, 1, 8, 128, 0, 0, true);
  }
  net.engine().run(6);  // mid-flight
  std::ostringstream os;
  net.router(0).dump_state(os);
  const std::string dump = os.str();
  EXPECT_NE(dump.find("router 0"), std::string::npos);
  EXPECT_NE(dump.find("pkt="), std::string::npos);
  ASSERT_TRUE(drain(net, 2000));
}

TEST(RouterEdge, CountersMonotone) {
  Network net(two_router_spec());
  net.nic().enqueue_packet(0, 1, 1, 4, 128, 0, 0, true);
  net.engine().run(5);
  const auto mid = net.router(0).counters();
  ASSERT_TRUE(drain(net, 1000));
  const auto end = net.router(0).counters();
  EXPECT_GE(end.buffer_writes, mid.buffer_writes);
  EXPECT_GE(end.crossbar_flits, mid.crossbar_flits);
  EXPECT_EQ(end.buffer_writes, end.buffer_reads);  // drained: in == out
}

TEST(RouterEdge, RadixReportsMaxOfInOut) {
  Router::Params params;
  params.num_inputs = 3;
  params.num_outputs = 17;
  struct DummyOracle final : RoutingOracle {
    RouteEntry route(RouterId, const Flit&) const override { return {}; }
  } oracle;
  Router router(params, &oracle);
  EXPECT_EQ(router.radix(), 17);
  EXPECT_EQ(router.num_inputs(), 3);
  EXPECT_EQ(router.num_outputs(), 17);
}

// ---- VCA parking ---------------------------------------------------------
//
// A refused alloc_vc(class) stays refused until a tail flit of that class's
// port goes through accept() (endpoints.hpp), so the router parks the
// (output port, class) and stops asking until it launches a tail there.

/// Input endpoint fed by the test: one queued flit delivered per cycle.
struct ScriptedInput final : InputEndpoint {
  std::deque<Flit> queue;
  const Flit* poll(Cycle) override {
    return queue.empty() ? nullptr : &queue.front();
  }
  void pop(Cycle) override { queue.pop_front(); }
  void push_credit(VcId, Cycle) override {}
};

/// Output endpoint with one open packet per class (a shared-medium writer
/// lane's admission rule) that counts every alloc_vc call.
struct CountingOutput final : OutputEndpoint {
  std::vector<bool> open = std::vector<bool>(2, false);
  std::vector<int> alloc_calls = std::vector<int>(2, 0);
  std::vector<int> grants = std::vector<int>(2, 0);
  std::vector<PacketId> accepted;
  VcId alloc_vc(int vc_class, Cycle) override {
    const auto c = static_cast<std::size_t>(vc_class);
    ++alloc_calls[c];
    if (open[c]) return kInvalidId;
    open[c] = true;
    ++grants[c];
    return static_cast<VcId>(vc_class);
  }
  bool can_accept(const Flit&, Cycle) const override { return true; }
  void accept(const Flit& flit, Cycle) override {
    accepted.push_back(flit.packet);
    if (flit.tail) open[static_cast<std::size_t>(flit.vc)] = false;
  }
  void wake_when_ready(Waiter, Cycle) override {}
};

/// Routes every packet to output 0 in the class its source stamped.
struct ClassOracle final : RoutingOracle {
  RouteEntry route(RouterId, const Flit& head) const override {
    return {0, head.vc_class};
  }
};

Flit packet_flit(PacketId packet, int vc_class, bool head, bool tail) {
  Flit flit;
  flit.packet = packet;
  flit.head = head;
  flit.tail = tail;
  flit.vc = 0;
  flit.vc_class = static_cast<std::int8_t>(vc_class);
  return flit;
}

TEST(RouterEdge, RefusedVcaRequesterParksUntilTailLeaves) {
  Router::Params params;
  params.num_inputs = 3;
  params.num_outputs = 1;
  params.num_vcs = 2;
  params.buffer_depth = 4;
  const ClassOracle oracle;
  Router router(params, &oracle);
  ScriptedInput in[3];
  for (int i = 0; i < 3; ++i) router.connect_input(i, &in[i]);
  CountingOutput out;
  router.connect_output(0, &out);

  Cycle now = 0;
  const auto run_to = [&](Cycle end) {
    for (; now < end; ++now) router.eval(now);
  };
  // P (class 0, head now, tail held back) takes the class-0 lane at VCA.
  in[0].queue.push_back(packet_flit(1, 0, true, false));
  run_to(3);
  ASSERT_EQ(out.grants[0], 1);
  // Q (class 0) is refused once, then parked: no further calls at all.
  in[1].queue.push_back(packet_flit(2, 0, true, true));
  run_to(6);
  EXPECT_EQ(out.alloc_calls[0], 2);
  // R (class 1) on the same output is not parked by Q's refusal. Its tail
  // is held back too: any tail through output 0 would unpark Q.
  in[2].queue.push_back(packet_flit(3, 1, true, false));
  run_to(20);
  EXPECT_EQ(out.alloc_calls[0], 2) << "parked requester retried";
  EXPECT_EQ(out.alloc_calls[1], 1);
  EXPECT_EQ(out.grants[1], 1);
  // P's tail leaves through output 0: Q is granted on the very next VCA pass
  // (the same eval — VCA runs after switch traversal) and then forwarded.
  in[0].queue.push_back(packet_flit(1, 0, false, true));
  run_to(21);
  EXPECT_EQ(out.alloc_calls[0], 3);
  EXPECT_EQ(out.grants[0], 2);
  run_to(22);
  EXPECT_EQ(out.accepted, (std::vector<PacketId>{1, 3, 1, 2}));
  EXPECT_EQ(router.counters().vca_attempts, 4);
  EXPECT_EQ(router.counters().vc_allocations, 3);
  EXPECT_EQ(router.occupancy(), 0);
}

// ---- Output stalls ---------------------------------------------------------
//
// A router whose every buffered flit is refused by its output sleeps, and
// the refusing output wakes it (OutputEndpoint::wake_when_ready).

/// Output endpoint that refuses everything before `open_at` and remembers
/// the waiter the router registered; the test fires the wake itself.
struct GatedOutput final : OutputEndpoint {
  Cycle open_at = kNeverCycle;
  Waiter waiter;
  std::vector<Cycle> accepted_at;
  VcId alloc_vc(int vc_class, Cycle) override {
    return static_cast<VcId>(vc_class);
  }
  bool can_accept(const Flit&, Cycle now) const override {
    return now >= open_at;
  }
  void accept(const Flit&, Cycle now) override { accepted_at.push_back(now); }
  void wake_when_ready(Waiter w, Cycle) override { waiter = w; }
};

TEST(RouterEdge, OutputStalledRouterSleepsUntilOutputWakesIt) {
  Router::Params params;
  params.num_inputs = 1;
  params.num_outputs = 1;
  params.num_vcs = 2;
  params.buffer_depth = 4;
  const ClassOracle oracle;
  Router router(params, &oracle);
  ScriptedInput in;
  GatedOutput out;
  router.connect_input(0, &in);
  router.connect_output(0, &out);
  Engine engine;
  engine.set_mode(KernelMode::kActivity);
  engine.add(&router);

  // A one-flit packet goes through RC and VCA, then SA finds the output
  // refusing it: the router stalls and registers with the output.
  in.queue.push_back(packet_flit(7, 0, true, true));
  for (int i = 0; i < 10 && !out.waiter; ++i) engine.step();
  ASSERT_EQ(out.waiter, Waiter(&router));
  EXPECT_EQ(router.occupancy(), 1);
  EXPECT_TRUE(router.is_idle());
  EXPECT_EQ(engine.num_active(), 0u);
  std::ostringstream dump;
  router.dump_state(dump);
  EXPECT_NE(dump.str().find("stalled=1"), std::string::npos) << dump.str();

  // Asleep: no evals while the output stays shut.
  const std::int64_t evals = engine.stats().evals;
  for (int i = 0; i < 20; ++i) engine.step();
  EXPECT_EQ(engine.stats().evals, evals);
  EXPECT_TRUE(out.accepted_at.empty());

  // The output opens at `ready` and fires the wake for that cycle: the
  // router forwards on exactly that cycle.
  const Cycle ready = engine.now() + 5;
  out.open_at = ready;
  out.waiter.wake(ready);
  for (int i = 0; i < 10; ++i) engine.step();
  EXPECT_EQ(out.accepted_at, (std::vector<Cycle>{ready}));
  EXPECT_EQ(router.occupancy(), 0);
}

// ---- Pinned arbitration results ------------------------------------------
//
// Saturated points where VCA and SA contend every cycle, so any change to
// the order in which the router visits VCs moves these numbers (kernel
// parity tests cannot see such a change: all kernels share the router).
// The expected values were recorded from the full-scan router that the
// VC-state sets replaced.

struct PinnedPoint {
  TopologyKind topology;
  double rate;
  double throughput, avg_latency, avg_net_latency, avg_hops, energy_pkt_pj;
  double p50, p99, max_latency;
  std::int64_t packets;
};

TEST(RouterEdge, SaturatedArbitrationMatchesFullScanRouter) {
  const PinnedPoint points[] = {
      {TopologyKind::kOwn, 0.02, 0.0095963541666666662, 810.36758321273544,
       744.96671490593337, 3.3285094066570231, 912.59118921144625, 610, 2874,
       3519, 691},
      // p-Clos leaves have 160 VC slots: the sets span three words.
      {TopologyKind::kPClos, 0.03, 0.009479166666666667, 1243.9615384615381,
       1236.501240694789, 2.6972704714640181, 756.05532262349266, 1088, 3229,
       3506, 806},
  };
  for (const PinnedPoint& point : points) {
    ExperimentConfig config;
    config.topology = point.topology;
    config.options.num_cores = 256;
    config.rate = point.rate;
    config.phases.warmup = 200;
    config.phases.measure = 600;
    config.phases.drain_limit = 3000;
    const ExperimentResult result = run_experiment(config);
    SCOPED_TRACE(to_string(point.topology));
    EXPECT_EQ(result.run.measured_packets, point.packets);
    EXPECT_EQ(result.run.p50_latency, point.p50);
    EXPECT_EQ(result.run.p99_latency, point.p99);
    EXPECT_EQ(result.run.max_latency, point.max_latency);
    EXPECT_DOUBLE_EQ(result.run.throughput, point.throughput);
    EXPECT_DOUBLE_EQ(result.run.avg_latency, point.avg_latency);
    EXPECT_DOUBLE_EQ(result.run.avg_net_latency, point.avg_net_latency);
    EXPECT_DOUBLE_EQ(result.run.avg_hops, point.avg_hops);
    EXPECT_DOUBLE_EQ(result.energy_per_packet_pj, point.energy_pkt_pj);
  }
}

TEST(ChannelEdge, ConstructionValidation) {
  std::vector<VcClassRange> classes = {{0, 4}};
  EXPECT_THROW(Channel(MediumType::kElectrical, 0, 1, 4, 8, Length{}, &classes, "x"),
               std::invalid_argument);
  EXPECT_THROW(Channel(MediumType::kElectrical, 1, 0, 4, 8, Length{}, &classes, "x"),
               std::invalid_argument);
  EXPECT_THROW(Channel(MediumType::kElectrical, 1, 1, 0, 8, Length{}, &classes, "x"),
               std::invalid_argument);
  EXPECT_THROW(Channel(MediumType::kElectrical, 1, 1, 4, 8, Length{}, nullptr, "x"),
               std::invalid_argument);
}

TEST(ChannelEdge, VcAllocationRoundRobinsWithinClass) {
  std::vector<VcClassRange> classes = {{0, 4}};
  Channel channel(MediumType::kElectrical, 1, 1, 4, 8, Length{}, &classes, "rr");
  // Allocate twice: distinct VCs while both packets are open.
  const VcId a = channel.out()->alloc_vc(0, 0);
  const VcId b = channel.out()->alloc_vc(0, 0);
  EXPECT_NE(a, b);
  EXPECT_TRUE(channel.vc_busy(a));
  EXPECT_TRUE(channel.vc_busy(b));
  // Exhausting the class returns kInvalidId.
  channel.out()->alloc_vc(0, 0);
  channel.out()->alloc_vc(0, 0);
  EXPECT_EQ(channel.out()->alloc_vc(0, 0), kInvalidId);
}

TEST(ChannelEdge, SerializationGatesAcceptance) {
  std::vector<VcClassRange> classes = {{0, 2}};
  Channel channel(MediumType::kElectrical, 1, 4, 2, 8, Length{}, &classes, "slow");
  Flit flit;
  flit.vc = channel.out()->alloc_vc(0, 0);
  flit.head = true;
  ASSERT_TRUE(channel.out()->can_accept(flit, 0));
  channel.out()->accept(flit, 0);
  EXPECT_FALSE(channel.out()->can_accept(flit, 1));  // busy until cycle 4
  EXPECT_FALSE(channel.out()->can_accept(flit, 3));
  EXPECT_TRUE(channel.out()->can_accept(flit, 4));
}

TEST(ChannelEdge, FlitArrivesAfterLatency) {
  std::vector<VcClassRange> classes = {{0, 2}};
  Channel channel(MediumType::kElectrical, 3, 1, 2, 8, Length{}, &classes, "lat");
  Flit flit;
  flit.vc = channel.out()->alloc_vc(0, 0);
  flit.head = true;
  flit.tail = true;
  channel.out()->accept(flit, 10);
  channel.commit(10);
  EXPECT_EQ(channel.in()->poll(12), nullptr);
  const Flit* arrived = channel.in()->poll(13);
  ASSERT_NE(arrived, nullptr);
  EXPECT_EQ(arrived->vc, flit.vc);
  channel.in()->pop(13);
  EXPECT_EQ(channel.in()->poll(14), nullptr);
}

TEST(ChannelEdge, CreditReturnsAfterOneCycle) {
  std::vector<VcClassRange> classes = {{0, 2}};
  Channel channel(MediumType::kElectrical, 1, 1, 2, 3, Length{}, &classes, "cr");
  EXPECT_EQ(channel.credits(0), 3);
  Flit flit;
  flit.vc = channel.out()->alloc_vc(0, 0);
  flit.head = true;
  flit.tail = true;
  channel.out()->accept(flit, 0);
  EXPECT_EQ(channel.credits(flit.vc), 2);
  channel.commit(0);
  channel.in()->pop(1);
  channel.in()->push_credit(flit.vc, 1);
  channel.commit(1);
  channel.eval(2);  // credit arrival at now=2
  EXPECT_EQ(channel.credits(flit.vc), 3);
}

}  // namespace
}  // namespace ownsim
