// Tier-1 tests for the partitioned parallel kernel (DESIGN.md §5i):
// engine-level plan/lifecycle contracts plus the bit-identity guarantee —
// the report JSON of a parallel run must equal the activity kernel's
// byte-for-byte, for any partition count and thread count, clean and under
// fault campaigns. The epoch-boundary edge cases live here too: latency-1
// pipes crossing a partition cut (inject/eject channels always do), CRC
// retransmissions arriving non-monotonically at a boundary, and a watchdog
// trip mid-epoch from the serial lane.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/simulate.hpp"
#include "fault/campaign.hpp"
#include "metrics/report.hpp"
#include "network/network.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"
#include "topology/registry.hpp"

namespace ownsim {
namespace {

class Probe final : public Clocked {
 public:
  void eval(Cycle now) override { evals.push_back(now); }
  void commit(Cycle now) override { commits.push_back(now); }
  std::vector<Cycle> evals;
  std::vector<Cycle> commits;
};

/// Idleness togglable from the outside (mirrors test_engine.cpp).
struct Sleeper final : Clocked {
  bool idle = false;
  std::vector<Cycle> evals;
  void eval(Cycle now) override { evals.push_back(now); }
  void commit(Cycle) override {}
  bool is_idle() const override { return idle; }
};

ParallelPlan two_partition_plan(std::size_t num_components) {
  ParallelPlan plan;
  plan.num_partitions = 2;
  for (std::size_t i = 0; i < num_components; ++i) {
    plan.partition.push_back(static_cast<int>(i % 2));
    plan.wave.push_back(1);
  }
  return plan;
}

TEST(ParallelEngine, ConfigureRequiresParallelMode) {
  Engine engine;
  Probe p;
  engine.add(&p);
  EXPECT_THROW(engine.configure_parallel(two_partition_plan(1), 2),
               std::logic_error);
}

TEST(ParallelEngine, ConfigureRequiresColdStart) {
  Engine engine;
  engine.set_mode(KernelMode::kParallel);
  Probe p;
  engine.add(&p);
  engine.step();  // planless parallel runs on the activity path
  EXPECT_THROW(engine.configure_parallel(two_partition_plan(1), 2),
               std::logic_error);
}

TEST(ParallelEngine, PlanValidationRejectsBadPlans) {
  Engine engine;
  engine.set_mode(KernelMode::kParallel);
  Probe a, b;
  engine.add(&a);
  engine.add(&b);

  ParallelPlan mismatched = two_partition_plan(2);
  mismatched.wave.pop_back();
  EXPECT_THROW(engine.configure_parallel(mismatched, 2),
               std::invalid_argument);

  ParallelPlan oversized = two_partition_plan(3);  // covers 3, registered 2
  EXPECT_THROW(engine.configure_parallel(oversized, 2),
               std::invalid_argument);

  ParallelPlan bad_wave = two_partition_plan(2);
  bad_wave.wave[0] = 3;
  EXPECT_THROW(engine.configure_parallel(bad_wave, 2), std::invalid_argument);

  ParallelPlan bad_partition = two_partition_plan(2);
  bad_partition.partition[1] = 2;  // >= num_partitions
  EXPECT_THROW(engine.configure_parallel(bad_partition, 2),
               std::invalid_argument);

  ParallelPlan empty;
  EXPECT_THROW(engine.configure_parallel(empty, 2), std::invalid_argument);
}

TEST(ParallelEngine, PlanlessParallelBehavesLikeActivity) {
  Engine engine;
  engine.set_mode(KernelMode::kParallel);
  EXPECT_FALSE(engine.parallel_configured());
  Probe p;
  engine.add(&p);
  engine.run(3);
  EXPECT_EQ(p.evals, (std::vector<Cycle>{0, 1, 2}));
  EXPECT_EQ(p.commits, (std::vector<Cycle>{0, 1, 2}));
}

TEST(ParallelEngine, IdleRetirementAndSkipAheadAcrossPartitions) {
  Engine engine;
  engine.set_mode(KernelMode::kParallel);
  Sleeper a, b;
  engine.add(&a);
  engine.add(&b);
  engine.configure_parallel(two_partition_plan(2), 2);
  EXPECT_TRUE(engine.parallel_configured());

  engine.run(2);
  EXPECT_EQ(a.evals, (std::vector<Cycle>{0, 1}));
  EXPECT_EQ(b.evals, (std::vector<Cycle>{0, 1}));

  // One more eval observes the idleness, then both lanes drain and the
  // remaining budget is skipped in one jump — same schedule the activity
  // kernel produces in test_engine.cpp.
  a.idle = true;
  b.idle = true;
  engine.run(4);
  EXPECT_EQ(a.evals, (std::vector<Cycle>{0, 1, 2}));
  EXPECT_EQ(b.evals, (std::vector<Cycle>{0, 1, 2}));
  EXPECT_EQ(engine.now(), 6);
  EXPECT_GE(engine.stats().cycles_skipped, 3);
}

TEST(ParallelEngine, SetModeTearsDownRuntime) {
  Engine engine;
  engine.set_mode(KernelMode::kParallel);
  Probe p;
  engine.add(&p);
  engine.configure_parallel(two_partition_plan(1), 2);
  ASSERT_TRUE(engine.parallel_configured());
  engine.set_mode(KernelMode::kActivity);
  EXPECT_FALSE(engine.parallel_configured());
  engine.run(2);
  EXPECT_EQ(p.evals, (std::vector<Cycle>{0, 1}));
}

TEST(ParallelEngine, LateAddedComponentsJoinSerialLane) {
  // Components registered after configure_parallel (the driver extras:
  // injector, campaign, watchdog) have ids past the plan and must run in
  // the coordinator's serial lane with their sequential schedule intact.
  Engine engine;
  engine.set_mode(KernelMode::kParallel);
  Probe planned;
  engine.add(&planned);
  engine.configure_parallel(two_partition_plan(1), 2);
  Probe late;
  engine.add(&late);
  engine.run(3);
  EXPECT_EQ(planned.evals, (std::vector<Cycle>{0, 1, 2}));
  EXPECT_EQ(late.evals, (std::vector<Cycle>{0, 1, 2}));
  EXPECT_EQ(late.commits, (std::vector<Cycle>{0, 1, 2}));
}

// ---------------------------------------------------------------------------
// Report-level bit-identity on real networks. experiment_result_json covers
// latency/throughput, the power breakdown, fault totals and every obs
// counter — a byte-equal string means the runs were indistinguishable.

struct ParityPoint {
  ExperimentResult result;
  std::string json;
};

ParityPoint run_point(ExperimentConfig config, KernelMode mode,
                      int threads = 0, int partitions = 0) {
  config.kernel = mode;
  config.threads = threads;
  config.partitions = partitions;
  ParityPoint point;
  point.result = run_experiment(config);
  point.json = experiment_result_json(point.result);
  return point;
}

/// OWN-256 at a sub-saturation load with short tier-1 phases.
ExperimentConfig own256_experiment() {
  ExperimentConfig config;
  config.options.num_cores = 256;
  config.rate = 0.004;
  config.phases.warmup = 300;
  config.phases.measure = 600;
  config.phases.drain_limit = 8000;
  return config;
}

TEST(ParallelParity, Own256ThreeWayReportsAreByteIdentical) {
  const ExperimentConfig config = own256_experiment();
  const ParityPoint activity = run_point(config, KernelMode::kActivity);
  const ParityPoint lockstep = run_point(config, KernelMode::kLockstep);
  const ParityPoint parallel =
      run_point(config, KernelMode::kParallel, /*threads=*/2);
  ASSERT_TRUE(activity.result.run.drained);
  EXPECT_EQ(activity.json, lockstep.json);
  EXPECT_EQ(activity.json, parallel.json);
}

TEST(ParallelParity, PartitionCountNeverChangesTheReport) {
  // Partition-count sweep including 7 — a count that does not divide the
  // 16 OWN-256 routers, so the contiguous cuts land mid-cluster and the
  // latency-1 inject/eject channels cross every cut into the NIC lane.
  const ExperimentConfig config = own256_experiment();
  const ParityPoint reference = run_point(config, KernelMode::kActivity);
  for (const int partitions : {1, 2, 4, 7}) {
    const ParityPoint parallel = run_point(config, KernelMode::kParallel,
                                           /*threads=*/2, partitions);
    EXPECT_EQ(reference.json, parallel.json)
        << "diverged at partitions=" << partitions;
  }
}

TEST(ParallelParity, ThreadCountNeverChangesTheReport) {
  const ExperimentConfig config = own256_experiment();
  const ParityPoint reference = run_point(config, KernelMode::kActivity);
  for (const int threads : {1, 8}) {
    const ParityPoint parallel =
        run_point(config, KernelMode::kParallel, threads);
    EXPECT_EQ(reference.json, parallel.json)
        << "diverged at threads=" << threads;
  }
}

TEST(ParallelParity, PClos256ThreeWayReportsAreByteIdentical) {
  // p-Clos leaf routers carry 40 inputs x 4 VCs = 160 VC slots, so their
  // router VC-state sets span three 64-bit words.
  ExperimentConfig config = own256_experiment();
  config.topology = TopologyKind::kPClos;
  const Network net(build_topology(config.topology, config.options));
  int max_slots = 0;
  for (RouterId r = 0; r < net.spec().num_routers(); ++r) {
    max_slots = std::max(max_slots, net.router(r).num_inputs() *
                                        net.spec().num_vcs);
  }
  ASSERT_GT(max_slots, 128);
  const ParityPoint activity = run_point(config, KernelMode::kActivity);
  const ParityPoint lockstep = run_point(config, KernelMode::kLockstep);
  const ParityPoint parallel =
      run_point(config, KernelMode::kParallel, /*threads=*/2);
  ASSERT_TRUE(activity.result.run.drained);
  EXPECT_EQ(activity.json, lockstep.json);
  EXPECT_EQ(activity.json, parallel.json);
}

TEST(ParallelParity, Cmesh1024UsesTheGenericPartitionFallback) {
  // CMESH publishes no partition hint, so the plan falls back to contiguous
  // router blocks; the wired-mesh pipes (latency >= 1 links) are the
  // boundary traffic here instead of the photonic/wireless media.
  ExperimentConfig config;
  config.topology = TopologyKind::kCMesh;
  config.options.num_cores = 1024;
  config.rate = 0.002;
  config.phases.warmup = 200;
  config.phases.measure = 400;
  config.phases.drain_limit = 6000;
  const ParityPoint activity = run_point(config, KernelMode::kActivity);
  const ParityPoint parallel =
      run_point(config, KernelMode::kParallel, /*threads=*/4);
  ASSERT_TRUE(activity.result.run.drained);
  EXPECT_EQ(activity.json, parallel.json);
}

/// OWN-256 with a fault campaign armed (campaign-capable build).
ExperimentConfig campaign_experiment(fault::CampaignConfig fault) {
  ExperimentConfig config = own256_experiment();
  config.phases.measure = 800;
  config.phases.drain_limit = 15000;
  fault.enabled = true;
  config.fault = fault;
  return config;
}

TEST(ParallelParity, TransientCorruptionCampaignIsByteIdentical) {
  // Stress BER: NACKed copies retransmit, so flits arrive at partition
  // boundaries out of send order (non-monotone cycles on one edge). The
  // staging-buffer merge must still reproduce the sequential wheel order.
  fault::CampaignConfig fault;
  fault.margin = Decibels{-8.0};
  const ExperimentConfig config = campaign_experiment(fault);
  const ParityPoint activity = run_point(config, KernelMode::kActivity);
  const ParityPoint parallel =
      run_point(config, KernelMode::kParallel, /*threads=*/4);
  EXPECT_GT(activity.result.fault.crc_errors, 0);
  EXPECT_GT(activity.result.fault.retransmissions, 0);
  EXPECT_EQ(activity.json, parallel.json);
}

TEST(ParallelParity, MidRunDeathReroutesIdentically) {
  // A permanent kill mid-run: the detector's reroute rewrites route state
  // across clusters while partitions are live. Both kernels must degrade
  // the same 16x16 flow set and report identical totals.
  fault::CampaignConfig fault;
  fault.ber = 0.0;
  fault::Event kill;
  kill.kind = fault::EventKind::kKill;
  kill.at = 500;
  kill.src_cluster = 0;
  kill.dst_cluster = 2;
  fault.events.push_back(kill);
  const ExperimentConfig config = campaign_experiment(fault);
  const ParityPoint activity = run_point(config, KernelMode::kActivity);
  const ParityPoint parallel =
      run_point(config, KernelMode::kParallel, /*threads=*/2);
  EXPECT_EQ(activity.result.fault.flows_degraded, 256);
  EXPECT_EQ(parallel.result.fault.flows_degraded, 256);
  EXPECT_EQ(activity.json, parallel.json);
}

/// Runs the token-deadlock watchdog scenario of test_fault.cpp under one
/// kernel and returns the trip cycle plus the full network report.
struct WatchdogOutcome {
  bool tripped = false;
  Cycle trip_now = 0;
  std::string report_json;
};

WatchdogOutcome run_watchdog_deadlock(KernelMode mode) {
  TopologyOptions options;
  options.num_cores = 256;
  Network net(build_topology(TopologyKind::kOwn, options));
  net.engine().set_mode(mode);
  if (mode == KernelMode::kParallel) net.configure_parallel(/*threads=*/2);

  fault::CampaignConfig config;
  config.enabled = true;
  config.ber = 0.0;
  fault::Event loss;
  loss.kind = fault::EventKind::kTokenLoss;
  loss.at = 1;
  loss.medium = 10;  // cluster 0's waveguide home tile 10
  loss.recovery = kNeverCycle;
  config.events.push_back(loss);
  config.watchdog = true;
  config.watchdog_window = 400;
  std::ostringstream diagnostics;  // keep the trip dump off stderr
  config.diagnostics = &diagnostics;
  fault::FaultCampaign campaign(&net, config);
  campaign.attach();  // campaign + watchdog join the serial lane

  // All traffic needs the lost token: deliveries stop, the watchdog trips
  // mid-epoch (its eval runs in the serial phase between the waves and the
  // commit of the same cycle).
  for (NodeId s = 0; s < 4; ++s) {
    const NodeId d = 40 + s;  // tile 10, same cluster
    net.nic().enqueue_packet(s, d, net.router_of(d), 4, 128,
                             net.injection_vc_class(s, d), 0, true);
  }
  net.engine().run_until(
      [&] { return campaign.watchdog_tripped() || net.drained(); }, 5000);

  WatchdogOutcome outcome;
  outcome.tripped = campaign.watchdog_tripped();
  outcome.trip_now = net.engine().now();
  std::ostringstream os;
  NetworkReport(net).write_json(os);
  outcome.report_json = os.str();
  return outcome;
}

TEST(ParallelParity, WatchdogTripMidEpochIsByteIdentical) {
  const WatchdogOutcome activity =
      run_watchdog_deadlock(KernelMode::kActivity);
  const WatchdogOutcome parallel =
      run_watchdog_deadlock(KernelMode::kParallel);
  ASSERT_TRUE(activity.tripped);
  ASSERT_TRUE(parallel.tripped);
  EXPECT_EQ(activity.trip_now, parallel.trip_now);
  EXPECT_EQ(activity.report_json, parallel.report_json);
}

}  // namespace
}  // namespace ownsim
