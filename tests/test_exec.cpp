// Tests for the parallel execution subsystem (src/exec): thread pool
// lifecycle, exception propagation, cancellation, parallel_for/map — and
// the headline guarantee of the whole layer: a latency sweep is
// bit-identical for 1 and N threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/cancellation.hpp"
#include "exec/parallel_for.hpp"
#include "exec/thread_pool.hpp"
#include "driver/simulate.hpp"
#include "helpers.hpp"
#include "metrics/sweep.hpp"

namespace ownsim {
namespace {

// ---- ThreadPool --------------------------------------------------------------

TEST(ThreadPool, StartupAndShutdownAreClean) {
  for (unsigned threads : {1u, 2u, 4u}) {
    exec::ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
  }  // destructor joins with an empty queue
}

TEST(ThreadPool, ClampsZeroThreadsToOne) {
  exec::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 42; }).get(), 42);
}

TEST(ThreadPool, RunsManyTasksAndReturnsValues) {
  exec::ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::future<int>> futures;
  futures.reserve(100);
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i, &ran] {
      ran.fetch_add(1);
      return i * i;
    }));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futures[i].get(), i * i);
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, TaskExceptionPropagatesThroughFuture) {
  exec::ThreadPool pool(2);
  std::future<int> bad =
      pool.submit([]() -> int { throw std::runtime_error("task boom"); });
  std::future<int> good = pool.submit([] { return 7; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(good.get(), 7);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    exec::ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran.fetch_add(1);
      });
    }
  }  // shutdown is graceful: everything queued still runs
  EXPECT_EQ(ran.load(), 32);
}

// ---- Cancellation ------------------------------------------------------------

TEST(Cancellation, DefaultTokenNeverCancels) {
  const exec::CancellationToken token;
  EXPECT_FALSE(token.cancelled());
}

TEST(Cancellation, TokenObservesSource) {
  exec::CancellationSource source;
  const exec::CancellationToken token = source.token();
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(source.cancel_requested());
  source.request_cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(source.cancel_requested());
}

// ---- parallel_for / parallel_map ---------------------------------------------

TEST(ParallelFor, CoversEveryIndexOnce10k) {
  exec::ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  const bool complete =
      parallel_for(pool, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  EXPECT_TRUE(complete);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ZeroIterationsIsANoop) {
  exec::ThreadPool pool(2);
  EXPECT_TRUE(parallel_for(pool, 0, [](std::size_t) { FAIL(); }));
}

TEST(ParallelFor, RethrowsFirstBodyException) {
  exec::ThreadPool pool(4);
  EXPECT_THROW(parallel_for(pool, 1000,
                            [](std::size_t i) {
                              if (i == 123) {
                                throw std::runtime_error("body boom");
                              }
                            }),
               std::runtime_error);
}

TEST(ParallelFor, PreCancelledTokenRunsNothing) {
  exec::ThreadPool pool(4);
  exec::CancellationSource source;
  source.request_cancel();
  std::atomic<int> ran{0};
  const bool complete = parallel_for(
      pool, 10000, [&](std::size_t) { ran.fetch_add(1); }, source.token());
  EXPECT_FALSE(complete);
  EXPECT_EQ(ran.load(), 0);
}

TEST(ParallelFor, MidFlightCancellationStopsEarly) {
  exec::ThreadPool pool(4);
  exec::CancellationSource source;
  std::atomic<int> ran{0};
  const bool complete = parallel_for(
      pool, 100000,
      [&](std::size_t) {
        if (ran.fetch_add(1) == 50) source.request_cancel();
      },
      source.token());
  EXPECT_FALSE(complete);
  // In-flight iterations finish but the bulk of the range is abandoned.
  EXPECT_LT(ran.load(), 10000);
}

TEST(ParallelMap, ResultsInIndexOrder) {
  exec::ThreadPool pool(4);
  const std::vector<std::size_t> squares = exec::parallel_map(
      pool, 1000, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 1000u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    ASSERT_EQ(squares[i], i * i);
  }
}

TEST(ParallelMap, ThrowsCancelledWhenTokenFires) {
  exec::ThreadPool pool(2);
  exec::CancellationSource source;
  source.request_cancel();
  EXPECT_THROW(exec::parallel_map(
                   pool, 100, [](std::size_t i) { return i; },
                   source.token()),
               exec::Cancelled);
}

// ---- sweep determinism -------------------------------------------------------

void expect_identical(const SweepResult& a, const SweepResult& b) {
  EXPECT_EQ(a.zero_load_latency, b.zero_load_latency);
  EXPECT_EQ(a.saturation_rate, b.saturation_rate);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    const RunResult& x = a.points[i].result;
    const RunResult& y = b.points[i].result;
    EXPECT_EQ(a.points[i].rate, b.points[i].rate);
    EXPECT_EQ(x.offered_rate, y.offered_rate);
    EXPECT_EQ(x.throughput, y.throughput);
    EXPECT_EQ(x.avg_latency, y.avg_latency);
    EXPECT_EQ(x.avg_net_latency, y.avg_net_latency);
    EXPECT_EQ(x.p50_latency, y.p50_latency);
    EXPECT_EQ(x.p99_latency, y.p99_latency);
    EXPECT_EQ(x.max_latency, y.max_latency);
    EXPECT_EQ(x.avg_hops, y.avg_hops);
    EXPECT_EQ(x.measured_packets, y.measured_packets);
    EXPECT_EQ(x.drained, y.drained);
    EXPECT_EQ(x.cycles_simulated, y.cycles_simulated);
    EXPECT_EQ(x.latency_histogram.total(), y.latency_histogram.total());
    EXPECT_EQ(x.latency_histogram.underflow(),
              y.latency_histogram.underflow());
    EXPECT_EQ(x.latency_histogram.overflow(), y.latency_histogram.overflow());
    EXPECT_EQ(x.latency_histogram.counts(), y.latency_histogram.counts());
  }
}

TEST(SweepDeterminism, Own256BitIdenticalAcrossThreadCounts) {
  TopologyOptions topo;
  topo.num_cores = 256;
  const NetworkFactory factory =
      make_network_factory(TopologyKind::kOwn, topo);

  SweepOptions options;
  options.rates = {0.002, 0.004, 0.006};
  options.phases.warmup = 300;
  options.phases.measure = 800;
  options.phases.drain_limit = 8000;
  options.stop_after_saturation = false;
  options.master_seed = 42;

  options.threads = 1;
  const SweepResult serial = latency_sweep(factory, options);
  EXPECT_EQ(serial.telemetry.threads, 1u);
  EXPECT_EQ(serial.telemetry.points_run, 4);  // 3 rates + probe
  EXPECT_GT(serial.telemetry.cycles_simulated, 0);

  options.threads = 4;
  const SweepResult parallel = latency_sweep(factory, options);
  EXPECT_EQ(parallel.telemetry.threads, 4u);

  expect_identical(serial, parallel);
}

TEST(SweepDeterminism, SpeculativeStopMatchesSerialStop) {
  // The ring saturates quickly, so the speculative tail past the knee gets
  // cancelled in the parallel run; the assembled result must still equal
  // the serial stop-at-saturation sweep.
  const NetworkFactory factory = [] {
    return std::make_unique<Network>(testing::ring_spec(8));
  };
  SweepOptions options;
  options.rates = {0.02, 0.05, 0.1, 0.3, 0.6, 0.8, 0.9, 1.0};
  options.phases.warmup = 300;
  options.phases.measure = 1000;
  options.phases.drain_limit = 8000;
  options.stop_after_saturation = true;
  options.master_seed = 7;

  options.threads = 1;
  const SweepResult serial = latency_sweep(factory, options);
  EXPECT_LT(serial.points.size(), options.rates.size());  // it did stop

  options.threads = 4;
  const SweepResult parallel = latency_sweep(factory, options);
  expect_identical(serial, parallel);
}

TEST(SweepDeterminism, MasterSeedSelectsDifferentStreams) {
  const NetworkFactory factory = [] {
    return std::make_unique<Network>(testing::ring_spec(8));
  };
  SweepOptions options;
  options.rates = {0.05};
  options.phases.warmup = 300;
  options.phases.measure = 1500;
  options.phases.drain_limit = 8000;
  options.stop_after_saturation = false;

  options.master_seed = 1;
  const SweepResult a = latency_sweep(factory, options);
  options.master_seed = 2;
  const SweepResult b = latency_sweep(factory, options);
  ASSERT_EQ(a.points.size(), 1u);
  ASSERT_EQ(b.points.size(), 1u);
  // Different master seeds must drive different Bernoulli streams: the
  // measured populations cannot coincide on every statistic.
  const RunResult& x = a.points[0].result;
  const RunResult& y = b.points[0].result;
  EXPECT_TRUE(x.measured_packets != y.measured_packets ||
              x.avg_latency != y.avg_latency ||
              x.max_latency != y.max_latency);
}

TEST(SweepDeterminism, ProgressCallbackSeesEveryPoint) {
  const NetworkFactory factory = [] {
    return std::make_unique<Network>(testing::ring_spec(6));
  };
  SweepOptions options;
  options.rates = {0.02, 0.05, 0.1};
  options.phases.warmup = 200;
  options.phases.measure = 500;
  options.phases.drain_limit = 5000;
  options.stop_after_saturation = false;
  options.threads = 2;
  std::mutex mu;
  std::vector<SweepProgress> snapshots;
  options.progress = [&](const SweepProgress& progress) {
    std::lock_guard<std::mutex> lock(mu);
    snapshots.push_back(progress);
  };
  const SweepResult sweep = latency_sweep(factory, options);
  ASSERT_EQ(snapshots.size(), 4u);  // 3 rates + probe
  for (const SweepProgress& snapshot : snapshots) {
    EXPECT_EQ(snapshot.total, 4);
    EXPECT_GT(snapshot.completed, 0);
    EXPECT_LE(snapshot.completed, 4);
    EXPECT_GT(snapshot.cycles_simulated, 0);
  }
  EXPECT_EQ(sweep.telemetry.points_run, 4);
  EXPECT_EQ(sweep.telemetry.cycles_simulated,
            snapshots.back().cycles_simulated);
}

}  // namespace
}  // namespace ownsim
