// ownbench — OWN-Sim's benchmark program (workloads and metrics are listed in
// BENCHMARK.json at the repository root; perfbench/run.py builds and runs it).
//
//   ownbench --workload NAME --seed N --seconds S --trace 0|1
//            [--references FILE] [--spans-out FILE] [--toy]
//
// --trace 0 runs the workload's load point through the public entry
// run_experiment(config, RunHooks) for as many repetitions as S seconds
// allow and reports the end-to-end metrics. Set-up is timed from the call to
// `before_run`, the run from `before_run` to `after_run`.
//
// --trace 1 alternates such untraced repetitions with traced ones that make
// the layer calls one at a time (build_experiment_spec, Network(spec),
// configure_parallel, run_load_point with a progress callback), each inside
// a span. The spans give the per-layer metrics and are written to
// --spans-out when the benchmark ends.
//
// Every repetition is gated: the SHA-256 of experiment_result_json must equal
// the reference digest for (workload, preset, seed) recorded in FILE, or,
// for a seed with no recorded digest, the digest of an activity-kernel run of
// the same point. A traced repetition must reproduce the untraced RunResult
// (deterministic_eq). Any failure makes the exit code 1.
//
// Output: a run record line, then the result object as the last line.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/sha256.hpp"
#include "driver/experiment_config.hpp"
#include "driver/simulate.hpp"
#include "exec/thread_pool.hpp"
#include "serve/json.hpp"

namespace {

using ownsim::serve::Json;
using Clock = std::chrono::steady_clock;

struct Workload {
  const char* name;
  /// Load point in the ownsim_cli key=value vocabulary (CLI default phases
  /// unless overridden here).
  const char* settings;
  /// Workload whose recorded digests this one must reproduce: the parallel
  /// kernel must give byte-identical results to the activity kernel.
  const char* reference;
};

// Why these three: own1024-sat is the saturated, drain-dominated OWN-1024
// CLI point where every component runs every cycle (router stages and medium
// arbitration carry the time); own256-sparse evaluates ~1% of components per
// stepped cycle, so engine scheduling and per-eval fixed cost dominate;
// own1024-sat-par is own1024-sat on the partitioned kernel, isolating
// partitioning and barrier cost.
constexpr Workload kWorkloads[] = {
    {"own1024-sat",
     "topology=own cores=1024 pattern=UN rate=0.004 kernel=activity",
     "own1024-sat"},
    {"own256-sparse",
     "topology=own cores=256 pattern=UN rate=0.001 kernel=activity "
     "measure=1000000",
     "own256-sparse"},
    {"own1024-sat-par",
     "topology=own cores=1024 pattern=UN rate=0.004 kernel=parallel threads=2",
     "own1024-sat"},
};

/// Short phases for the self-test; same topologies, kernels and loads.
constexpr const char* kToyPhases = "warmup=300 measure=700 drain=2000";

/// Set-up-only repetitions made before the timed runs, so setup_s is a
/// median over enough samples even when only a few full runs fit.
constexpr int kSetupProbes = 41;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool toy = false;
  std::string references;
  std::string spans_out;
};

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

const char* kernel_name(ownsim::KernelMode mode) {
  switch (mode) {
    case ownsim::KernelMode::kActivity: return "activity";
    case ownsim::KernelMode::kLockstep: return "lockstep";
    case ownsim::KernelMode::kParallel: return "parallel";
  }
  return "?";
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--toy") {
      args.toy = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(key + ": missing value");
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
      have_seconds = args.seconds > 0.0;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace: want 0 or 1");
      }
      args.trace = value == "1";
      have_trace = true;
    } else if (key == "--references") {
      args.references = value;
    } else if (key == "--spans-out") {
      args.spans_out = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument(
        "usage: ownbench --workload NAME --seed N --seconds S>0 --trace 0|1 "
        "[--references FILE] [--spans-out FILE] [--toy]");
  }
  return args;
}

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  std::string known;
  for (const Workload& w : kWorkloads) known += std::string(" ") + w.name;
  throw std::invalid_argument("unknown workload '" + name + "'; known:" +
                              known);
}

ownsim::ExperimentConfig make_config(const std::string& settings,
                                     std::uint64_t seed) {
  ownsim::ExperimentConfig config = ownsim::parse_experiment_config(
      ownsim::Config::from_string(settings));
  config.injector.master_seed = seed;
  return config;
}

/// Recorded digest for (workload, preset, seed), if FILE lists one. Lines:
/// `<workload> <preset> <seed> <sha256>`; '#' starts a comment.
std::optional<std::string> recorded_digest(const std::string& path,
                                           const std::string& workload,
                                           const std::string& preset,
                                           std::uint64_t seed) {
  if (path.empty()) return std::nullopt;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open references file " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string w, p, digest;
    std::uint64_t s = 0;
    if (!(fields >> w >> p >> s >> digest)) {
      throw std::runtime_error("malformed references line: " + line);
    }
    if (w == workload && p == preset && s == seed) return digest;
  }
  return std::nullopt;
}

// ---- tracing ---------------------------------------------------------------

struct Span {
  int id;
  int parent;  ///< -1 for a root
  int run;     ///< shared by every span of one traced repetition
  std::string name;
  double start_s;  ///< since the benchmark started
  double end_s;
};

/// In-memory span recorder; spans are written out once, at the end.
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  double now() const { return since(epoch_); }
  int open(std::string name, int parent, int run) {
    const double t = now();
    spans_.push_back({static_cast<int>(spans_.size()), parent, run,
                      std::move(name), t, t});
    return spans_.back().id;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_s = now(); }
  void add(std::string name, int parent, int run, double start_s,
           double end_s) {
    spans_.push_back({static_cast<int>(spans_.size()), parent, run,
                      std::move(name), start_s, end_s});
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Total and self time (span time minus the time its children cover; the
  /// children of one span never overlap) per span name.
  std::map<std::string, std::pair<double, double>> totals() const {
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_time[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
      }
    }
    std::map<std::string, std::pair<double, double>> out;
    for (const Span& s : spans_) {
      auto& [total, self] = out[s.name];
      total += s.end_s - s.start_s;
      self += s.end_s - s.start_s - child_time[static_cast<std::size_t>(s.id)];
    }
    return out;
  }

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// ---- repetitions -----------------------------------------------------------

/// What one repetition observed; `failure` is empty when it passed the gate.
struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  ownsim::ExperimentResult result;
  ownsim::Engine::Stats stats;
  /// obs counters summed by component kind: "router.flits_forwarded", ...
  std::map<std::string, std::int64_t> by_kind;
  std::int64_t flits_ejected = 0;
  std::string digest;
  std::string failure;
};

std::map<std::string, std::int64_t> sum_by_kind(const ownsim::Network& net) {
  std::map<std::string, std::int64_t> out;
  net.obs().for_each([&out](const std::string& name, std::int64_t value) {
    const auto first = name.find('.');
    const auto last = name.rfind('.');
    if (first == std::string::npos) return;
    out[name.substr(0, first) + name.substr(last)] += value;
  });
  return out;
}

/// One run through the public entry, timed by its hooks.
Rep untraced_rep(const ownsim::ExperimentConfig& config) {
  Rep rep;
  Clock::time_point before{}, after{};
  ownsim::RunHooks hooks;
  hooks.before_run = [&before](ownsim::Network&) { before = Clock::now(); };
  hooks.after_run = [&](ownsim::Network& net, const ownsim::ExperimentResult&) {
    after = Clock::now();
    rep.stats = net.engine().stats();
    rep.by_kind = sum_by_kind(net);
    rep.flits_ejected = net.nic().flits_ejected();
  };
  const auto start = Clock::now();
  rep.result = ownsim::run_experiment(config, hooks);
  rep.setup_s = std::chrono::duration<double>(before - start).count();
  rep.run_s = std::chrono::duration<double>(after - before).count();
  rep.digest = ownsim::sha256_hex(ownsim::experiment_result_json(rep.result));
  if (rep.result.run.cancelled) rep.failure = "run cancelled";
  if (rep.result.watchdog_tripped) rep.failure = "watchdog tripped";
  return rep;
}

/// Set-up only: the run is cancelled from `before_run`, so no cycle runs.
double setup_probe(const ownsim::ExperimentConfig& config) {
  ownsim::exec::CancellationSource stop;
  Clock::time_point before{};
  ownsim::RunHooks hooks;
  hooks.cancel = stop.token();
  hooks.before_run = [&](ownsim::Network&) {
    before = Clock::now();
    stop.request_cancel();
  };
  const auto start = Clock::now();
  ownsim::run_experiment(config, hooks);
  return std::chrono::duration<double>(before - start).count();
}

struct TracedRep {
  ownsim::RunResult run;
  double build_s = 0.0;
  double construct_s = 0.0;
  double partition_s = 0.0;
  std::vector<double> slice_ms;  ///< wall ms per 256 simulated cycles
};

/// The layer calls of run_experiment made one at a time, each in a span.
/// Mirrors run_experiment for configs without fault campaign or adaptation
/// (none of the workloads enable them); the untraced comparison catches drift.
TracedRep traced_rep(const ownsim::ExperimentConfig& config, Tracer& tracer,
                     int run) {
  TracedRep rep;
  const int root = tracer.open("run", -1, run);

  const int build = tracer.open("topology.build", root, run);
  ownsim::NetworkSpec spec = ownsim::build_experiment_spec(config);
  tracer.close(build);

  const int construct = tracer.open("network.construct", root, run);
  auto network = std::make_unique<ownsim::Network>(std::move(spec));
  tracer.close(construct);

  const int partition = tracer.open("sim.partition", root, run);
  ownsim::Engine& engine = network->engine();
  if (config.kernel.has_value()) engine.set_mode(*config.kernel);
  if (engine.mode() == ownsim::KernelMode::kParallel &&
      (!engine.parallel_configured() || config.threads > 0 ||
       config.partitions > 0)) {
    network->configure_parallel(
        config.threads > 0 ? static_cast<unsigned>(config.threads)
                           : ownsim::exec::default_threads(),
        config.partitions);
  }
  tracer.close(partition);

  ownsim::TrafficPattern pattern(config.pattern, config.options.num_cores);
  ownsim::Injector::Params params = config.injector;
  params.rate = config.rate;
  ownsim::Injector injector(network.get(), pattern, params);
  engine.add(&injector);

  const int load_point = tracer.open("metrics.run_load_point", root, run);
  double last_t = tracer.now();
  ownsim::Cycle last_cycles = 0;
  const ownsim::RunProgressFn progress =
      [&](const ownsim::RunProgress& p) {
        const double t = tracer.now();
        const std::string_view phase = p.phase;
        if (phase != "drain") {
          tracer.add("sim.slice", load_point, run, last_t, t);
          const auto cycles = static_cast<double>(p.total_cycles - last_cycles);
          if (cycles > 0) rep.slice_ms.push_back((t - last_t) * 1e3 * 256.0 / cycles);
        } else if (p.phase_cycles > 0) {
          tracer.add("metrics.drain", load_point, run, last_t, t);
        }
        last_t = t;
        last_cycles = p.total_cycles;
      };
  rep.run = ownsim::run_load_point(*network, injector, config.phases, {},
                                   &progress);
  tracer.close(load_point);
  tracer.close(root);

  const auto duration = [&tracer](int id) {
    const Span& s = tracer.spans()[static_cast<std::size_t>(id)];
    return s.end_s - s.start_s;
  };
  rep.build_s = duration(build);
  rep.construct_s = duration(construct);
  rep.partition_s = duration(partition);
  return rep;
}

void write_spans(const std::string& path, const Tracer& tracer) {
  Json::Array spans;
  for (const Span& s : tracer.spans()) {
    spans.push_back(Json(Json::Object{{"id", Json(s.id)},
                                      {"parent", Json(s.parent)},
                                      {"run", Json(s.run)},
                                      {"name", Json(s.name)},
                                      {"start_s", Json(s.start_s)},
                                      {"end_s", Json(s.end_s)}}));
  }
  Json::Object totals;
  for (const auto& [name, t] : tracer.totals()) {
    totals[name] = Json(Json::Object{{"total_s", Json(t.first)},
                                     {"self_s", Json(t.second)}});
  }
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << Json(Json::Object{{"spans", Json(std::move(spans))},
                           {"by_name", Json(std::move(totals))}})
             .dump()
      << '\n';
}

Json metric(double value, const char* unit) {
  return Json(Json::Object{{"value", Json(value)}, {"unit", Json(unit)}});
}

Json::Array to_array(const std::vector<double>& values) {
  return Json::Array(values.begin(), values.end());
}

double ratio(std::int64_t num, std::int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

int run(const Args& args) {
  const auto epoch = Clock::now();
  const Workload& workload = find_workload(args.workload);
  const std::string settings =
      std::string(workload.settings) +
      (args.toy ? std::string(" ") + kToyPhases : "");
  const ownsim::ExperimentConfig config = make_config(settings, args.seed);
  const ownsim::KernelMode kernel =
      config.kernel.value_or(ownsim::KernelMode::kActivity);
  const int workers =
      kernel == ownsim::KernelMode::kParallel ? config.threads : 0;
  const unsigned host_cores = std::max(1u, std::thread::hardware_concurrency());
  if (static_cast<unsigned>(workers) + 1 > host_cores) {
    std::cerr << "ownbench: workload " << workload.name << " needs " << workers
              << " worker threads + the main thread, but this host has "
              << host_cores << " cores; refusing to run it\n";
    return 2;
  }

  const std::string preset = args.toy ? "toy" : "full";
  std::optional<std::string> reference = recorded_digest(
      args.references, workload.reference, preset, args.seed);
  const std::string reference_source =
      reference.has_value() ? "recorded" : "activity-run";

  std::vector<double> setup_s;
  for (int i = 0; i < kSetupProbes; ++i) setup_s.push_back(setup_probe(config));

  // Repetitions until the next one would overrun --seconds (at least one).
  // In traced mode each step is an untraced + traced pair.
  Tracer tracer(epoch);
  std::vector<Rep> reps;
  std::vector<TracedRep> traced;
  int attempted = 0;
  int failed = 0;
  bool traced_matches = true;
  const auto fail = [&failed](const std::string& why) {
    ++failed;
    std::cerr << "ownbench: FAIL " << why << '\n';
  };
  double step_s = 0.0;
  while (attempted == 0 || since(epoch) + step_s <= args.seconds) {
    const auto step_start = Clock::now();
    try {
      ++attempted;
      reps.push_back(untraced_rep(config));
      setup_s.push_back(reps.back().setup_s);
      if (args.trace) {
        ++attempted;
        traced.push_back(
            traced_rep(config, tracer, static_cast<int>(traced.size())));
        if (!ownsim::deterministic_eq(traced.back().run,
                                      reps.front().result.run)) {
          traced_matches = false;
          fail("traced RunResult differs from the untraced one");
        }
      }
    } catch (const std::exception& e) {
      fail(std::string("exception: ") + e.what());
      break;
    }
    step_s = since(step_start);
  }
  if (reps.empty()) return 1;

  // The gate. Without a recorded digest the reference is an activity-kernel
  // run of the same point: the first repetition, or one extra run when the
  // workload itself uses another kernel.
  if (!reference.has_value()) {
    if (kernel == ownsim::KernelMode::kActivity) {
      reference = reps.front().digest;
    } else {
      ownsim::ExperimentConfig activity = config;
      activity.kernel = ownsim::KernelMode::kActivity;
      reference = untraced_rep(activity).digest;
    }
  }
  for (const Rep& rep : reps) {
    if (!rep.failure.empty()) {
      fail(rep.failure);
    } else if (rep.digest != *reference) {
      fail("result digest " + rep.digest + " != reference " + *reference);
    }
  }

  std::vector<double> run_s, cycles_per_s, warmup_s, measure_s, drain_s;
  for (const Rep& rep : reps) {
    run_s.push_back(rep.run_s);
    cycles_per_s.push_back(
        static_cast<double>(rep.result.run.cycles_simulated) / rep.run_s);
    warmup_s.push_back(rep.result.run.profile.warmup_seconds);
    measure_s.push_back(rep.result.run.profile.measure_seconds);
    drain_s.push_back(rep.result.run.profile.drain_seconds);
  }
  const Rep& last = reps.back();
  const ownsim::RunResult& result = last.result.run;

  Json::Object metrics;
  Json::Object record{
      {"workload", Json(workload.name)},
      {"settings", Json(settings)},
      {"seed", Json(args.seed)},
      {"preset", Json(preset)},
      {"cache_key", Json(ownsim::experiment_cache_key(config))},
      {"code_version", Json(ownsim::code_version())},
      {"kernel", Json(kernel_name(kernel))},
      {"worker_threads", Json(workers)},
      {"host_cores", Json(static_cast<std::int64_t>(host_cores))},
      {"run_s_samples", Json(to_array(run_s))},
      {"setup_s_samples", Json(to_array(setup_s))},
      {"result_digest", Json(last.digest)},
      {"reference_source", Json(reference_source)},
      {"failed_frac", Json(static_cast<double>(failed) / attempted)},
      {"phase_walls_s",
       Json(Json::Object{{"warmup", Json(median(warmup_s))},
                         {"measure", Json(median(measure_s))},
                         {"drain", Json(median(drain_s))}})},
      {"cycles_simulated", Json(result.cycles_simulated)},
      {"drained", Json(result.drained)},
  };

  if (!args.trace) {
    metrics["run_s"] = metric(median(run_s), "s");
    metrics["sim_cycles_per_s"] = metric(median(cycles_per_s), "1/s");
    metrics["setup_s"] = metric(median(setup_s), "s");
    // The process high-water after the first repetition: later repetitions
    // only add allocator fragmentation, which would make it drift with the
    // repetition count.
    metrics["peak_rss_mb"] = metric(
        static_cast<double>(reps.front().result.run.profile.peak_rss_bytes) /
            (1024.0 * 1024.0),
        "MB");
    metrics["throughput_fnc"] = metric(result.throughput, "flits/node/cycle");
    metrics["latency_avg_cyc"] = metric(result.avg_latency, "cycles");
    metrics["latency_p99_cyc"] = metric(result.p99_latency, "cycles");
    metrics["energy_pkt_pj"] = metric(last.result.energy_per_packet_pj, "pJ");
  } else if (!traced.empty()) {
    std::vector<double> t_run, t_warm, t_meas, t_drain, build, construct,
        partition, slices;
    for (const TracedRep& t : traced) {
      t_run.push_back(t.run.profile.wall_seconds);
      t_warm.push_back(t.run.profile.warmup_seconds);
      t_meas.push_back(t.run.profile.measure_seconds);
      t_drain.push_back(t.run.profile.drain_seconds);
      build.push_back(t.build_s);
      construct.push_back(t.construct_s);
      partition.push_back(t.partition_s);
      slices.insert(slices.end(), t.slice_ms.begin(), t.slice_ms.end());
    }
    std::sort(slices.begin(), slices.end());
    // Highest of these percentiles with at least ten samples beyond it.
    double tail_pct = 50.0;
    for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
      if (static_cast<double>(slices.size()) * (1.0 - pct / 100.0) >= 10.0) {
        tail_pct = pct;
        break;
      }
    }
    std::vector<double> untraced_wall;
    for (const Rep& rep : reps) {
      untraced_wall.push_back(rep.result.run.profile.wall_seconds);
    }
    const ownsim::Engine::Stats& stats = last.stats;
    const auto& k = last.by_kind;
    const auto count = [&k](const char* name) {
      const auto it = k.find(name);
      return it == k.end() ? std::int64_t{0} : it->second;
    };
    const std::int64_t forwarded = count("router.flits_forwarded");
    const std::int64_t sa_retries = count("router.sa_retries");
    const std::int64_t packets = count("medium.packets");
    const std::int64_t arb_retries = count("medium.arb_retries");
    const double wall = median(t_run);

    metrics["metrics.warmup_s"] = metric(median(t_warm), "s");
    metrics["metrics.measure_s"] = metric(median(t_meas), "s");
    metrics["metrics.drain_s"] = metric(median(t_drain), "s");
    metrics["metrics.drain_share"] = metric(median(t_drain) / wall, "ratio");
    metrics["sim.evals"] = metric(static_cast<double>(stats.evals), "count");
    metrics["sim.wakes"] = metric(static_cast<double>(stats.wakes), "count");
    metrics["sim.cycles_stepped"] =
        metric(static_cast<double>(stats.cycles_stepped), "count");
    metrics["sim.cycles_skipped"] =
        metric(static_cast<double>(stats.cycles_skipped), "count");
    metrics["sim.ns_per_eval"] =
        metric(median(run_s) * 1e9 * ratio(1, stats.evals), "ns");
    metrics["sim.evals_per_flit"] =
        metric(ratio(stats.evals, forwarded), "ratio");
    metrics["sim.slice_ms.p50"] = metric(percentile(slices, 50.0), "ms");
    metrics["sim.slice_ms.tail"] = metric(percentile(slices, tail_pct), "ms");
    metrics["sim.slice_tail_pct"] = metric(tail_pct, "%");
    metrics["sim.slice_samples"] =
        metric(static_cast<double>(slices.size()), "count");
    metrics["sim.partition_s"] = metric(median(partition), "s");
    metrics["network.router.flits_forwarded"] =
        metric(static_cast<double>(forwarded), "count");
    metrics["network.router.sa_retries"] =
        metric(static_cast<double>(sa_retries), "count");
    metrics["network.router.sa_grant_ratio"] =
        metric(ratio(forwarded, forwarded + sa_retries), "ratio");
    metrics["network.medium.packets"] =
        metric(static_cast<double>(packets), "count");
    metrics["network.medium.arb_retries"] =
        metric(static_cast<double>(arb_retries), "count");
    metrics["network.medium.arb_grant_ratio"] =
        metric(ratio(packets, packets + arb_retries), "ratio");
    metrics["network.medium.token_wait_cycles"] =
        metric(static_cast<double>(count("medium.token_wait_cycles")), "count");
    metrics["network.medium.multicast_discard_flits"] = metric(
        static_cast<double>(count("medium.multicast_discard_flits")), "count");
    metrics["network.link.flits"] =
        metric(static_cast<double>(count("link.flits")), "count");
    metrics["topology.build_s"] = metric(median(build), "s");
    metrics["network.construct_s"] = metric(median(construct), "s");
    metrics["traffic.packets_offered"] = metric(
        static_cast<double>(count("injector.packets_offered")), "count");
    metrics["traffic.accept_ratio"] = metric(
        ratio(last.flits_ejected, count("injector.flits_offered")), "ratio");
    metrics["trace.overhead_s"] = metric(wall - median(untraced_wall), "s");

    Json::Object self_s;
    for (const auto& [name, t] : tracer.totals()) self_s[name] = Json(t.second);
    record["span_self_s"] = Json(std::move(self_s));
    record["traced_matches_untraced"] = Json(traced_matches);
    record["traced_repetitions"] =
        Json(static_cast<std::int64_t>(traced.size()));
    if (!args.spans_out.empty()) {
      write_spans(args.spans_out, tracer);
      record["spans_file"] = Json(args.spans_out);
    }
  }

  std::cout << Json(Json::Object{{"run_record", Json(std::move(record))}}).dump()
            << '\n';
  std::cout << Json(Json::Object{{"correct", Json(failed == 0)},
                                 {"attempted", Json(attempted)},
                                 {"failed", Json(failed)},
                                 {"metrics", Json(std::move(metrics))}})
                   .dump()
            << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "ownbench: " << e.what() << '\n';
    return 2;
  }
}
