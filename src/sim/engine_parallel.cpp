// Parallel (partitioned) kernel: the waved epoch schedule of DESIGN.md §5i.
//
// One epoch == one cycle (the minimum cross-component pipe latency, i.e. the
// conservative lookahead bound). Each cycle runs as:
//
//   barrier A   coordinator published {kStep, now}
//     workers:  per lane — activate due wakeups, eval wave-1 actives
//   barrier B
//     workers:  per lane — eval wave-2 actives
//   barrier C
//     coordinator: activate + eval the serial lane (id order), exclusive —
//     the driver extras may mutate any component (fault injection, route
//     patches) exactly as they do after the full sweep in the sequential
//     kernel, because their ids are the highest in the registry.
//   barrier D
//     everyone:  per lane — merge boundary staging buffers (wakes + commit
//     requests raised for this lane during the waves), commit actives and
//     extras, retire idle components, promote non-idle extras.
//   barrier E   coordinator advances now_.
//
// Determinism: within a lane everything runs in ascending id order; across
// lanes the only shared state is (a) the flag bytes of per-lane component
// ids (disjoint), (b) the staging buffers (single writer during waves,
// single reader at commit, ordered by the barriers), and (c) component state
// whose cross-wave access pattern the §5i pair argument shows to be
// conflict-free. Wheels order on (cycle, id), so merge order is immaterial.
#include <algorithm>
#include <exception>
#include <stdexcept>
#include <utility>

#include "sim/engine.hpp"
#include "sim/parallel.hpp"

namespace ownsim {

namespace detail {
thread_local ParallelEvalCtx* tl_parallel_ctx = nullptr;
}  // namespace detail

void ParallelPlan::validate(std::size_t num_components) const {
  if (partition.size() != wave.size()) {
    throw std::invalid_argument(
        "ParallelPlan: partition/wave size mismatch");
  }
  if (partition.size() > num_components) {
    throw std::invalid_argument(
        "ParallelPlan: plan covers more components than registered");
  }
  if (num_partitions < 1) {
    throw std::invalid_argument("ParallelPlan: need >= 1 partition");
  }
  for (std::size_t i = 0; i < partition.size(); ++i) {
    if (partition[i] < 0 || partition[i] >= num_partitions) {
      throw std::invalid_argument("ParallelPlan: partition out of range");
    }
    if (wave[i] != 1 && wave[i] != 2) {
      throw std::invalid_argument("ParallelPlan: wave must be 1 or 2");
    }
  }
}

namespace {
unsigned clamp_workers(unsigned threads, int partitions) {
  const unsigned cap = partitions > 0 ? static_cast<unsigned>(partitions) : 1u;
  if (threads < 1u) threads = 1u;
  return std::min(threads, cap);
}
}  // namespace

ParallelRuntime::ParallelRuntime(Engine* engine, ParallelPlan plan,
                                 unsigned threads)
    : engine_(engine),
      plan_(std::move(plan)),
      lanes_(static_cast<std::size_t>(plan_.num_partitions) + 1),
      worker_errors_(clamp_workers(threads, plan_.num_partitions)),
      barrier_(static_cast<int>(worker_errors_.size()) + 1),
      pool_(static_cast<unsigned>(worker_errors_.size())) {
  for (ParallelLane& lane : lanes_) {
    lane.wake_out.resize(lanes_.size());
    lane.commit_out.resize(lanes_.size());
  }
  workers_.reserve(worker_errors_.size());
  for (int slot = 0; slot < static_cast<int>(worker_errors_.size()); ++slot) {
    workers_.push_back(
        pool_.submit([this, slot] { engine_->parallel_worker(this, slot); }));
  }
}

ParallelRuntime::~ParallelRuntime() {
  command_.store(Command::kExit, std::memory_order_relaxed);
  barrier_.arrive_and_wait();  // release the workers with the exit command
  barrier_.arrive_and_wait();  // exit acknowledgement
  for (std::future<void>& worker : workers_) worker.get();
  // pool_ (last member) joins the worker threads before barrier_ dies.
}

Engine::~Engine() = default;

void Engine::configure_parallel(ParallelPlan plan, unsigned threads) {
  if (now_ != 0) {
    throw std::logic_error(
        "Engine::configure_parallel: only from a cold start (now()==0)");
  }
  if (mode_ != KernelMode::kParallel) {
    throw std::logic_error(
        "Engine::configure_parallel: set_mode(KernelMode::kParallel) first");
  }
  plan.validate(components_.size());
  if (runtime_ != nullptr) teardown_parallel();
  runtime_ = std::make_unique<ParallelRuntime>(this, std::move(plan), threads);
  distribute_to_lanes();
}

void Engine::teardown_parallel() {
  collect_from_lanes();
  runtime_.reset();
}

void Engine::distribute_to_lanes() {
  ParallelRuntime& rt = *runtime_;
  for (const int id : active_) {
    ParallelLane& lane = rt.lanes_[static_cast<std::size_t>(rt.lane_of(id))];
    (rt.wave_of(id) == 1 ? lane.active1 : lane.active2).push_back(id);
  }
  active_.clear();
  while (!wheel_.empty()) {
    const WheelEntry entry = wheel_.top();
    wheel_.pop();
    rt.lanes_[static_cast<std::size_t>(rt.lane_of(entry.second))].wheel.push(
        entry);
  }
  for (const int id : commit_extras_) {
    rt.lanes_[static_cast<std::size_t>(rt.lane_of(id))]
        .commit_extras.push_back(id);
  }
  commit_extras_.clear();
}

void Engine::collect_from_lanes() {
  ParallelRuntime& rt = *runtime_;
  for (ParallelLane& lane : rt.lanes_) {
    active_.insert(active_.end(), lane.active1.begin(), lane.active1.end());
    active_.insert(active_.end(), lane.active2.begin(), lane.active2.end());
    lane.active1.clear();
    lane.active2.clear();
    while (!lane.wheel.empty()) {
      wheel_.push(lane.wheel.top());
      lane.wheel.pop();
    }
    commit_extras_.insert(commit_extras_.end(), lane.commit_extras.begin(),
                          lane.commit_extras.end());
    lane.commit_extras.clear();
    stats_.evals += lane.evals;
    stats_.wakes += lane.wakes;
    lane.evals = 0;
    lane.wakes = 0;
  }
  std::sort(active_.begin(), active_.end());
}

std::size_t Engine::num_active() const {
  if (runtime_ == nullptr) return active_.size();
  std::size_t total = 0;
  for (const ParallelLane& lane : runtime_->lanes_) {
    total += lane.active1.size() + lane.active2.size();
  }
  return total;
}

Cycle Engine::next_wake() const {
  if (runtime_ == nullptr) {
    return wheel_.empty() ? kNeverCycle : wheel_.top().first;
  }
  Cycle next = kNeverCycle;
  for (const ParallelLane& lane : runtime_->lanes_) {
    if (!lane.wheel.empty()) next = std::min(next, lane.wheel.top().first);
  }
  return next;
}

Engine::Stats Engine::stats() const {
  Stats total = stats_;
  if (runtime_ != nullptr) {
    for (const ParallelLane& lane : runtime_->lanes_) {
      total.evals += lane.evals;
      total.wakes += lane.wakes;
    }
  }
  return total;
}

void Engine::lane_wheel_push(int id, Cycle effective) {
  ParallelRuntime& rt = *runtime_;
  rt.lanes_[static_cast<std::size_t>(rt.lane_of(id))].wheel.push(
      {effective, id});
}

void Engine::lane_commit_extra_push(int id) {
  ParallelRuntime& rt = *runtime_;
  rt.lanes_[static_cast<std::size_t>(rt.lane_of(id))].commit_extras.push_back(
      id);
}

void Engine::lane_add_active(int id) {
  ParallelRuntime& rt = *runtime_;
  ParallelLane& lane = rt.lanes_[static_cast<std::size_t>(rt.lane_of(id))];
  (rt.wave_of(id) == 1 ? lane.active1 : lane.active2).push_back(id);
}

void Engine::parallel_wake(ParallelEvalCtx& ctx, int id, Cycle effective) {
  ParallelRuntime& rt = *runtime_;
  const int dst = rt.lane_of(id);
  if (dst == ctx.lane_index) {
    ctx.lane->wheel.push({effective, id});
    ++ctx.lane->wakes;
  } else {
    // Boundary wake: staged per (source lane, destination lane) edge and
    // merged into the owner's wheel at the commit phase. The wheel orders on
    // (cycle, id), so merge order cannot perturb the schedule.
    ctx.lane->wake_out[static_cast<std::size_t>(dst)].push_back(
        {effective, id});
  }
}

void Engine::parallel_commit_request(ParallelEvalCtx& ctx, int id) {
  ParallelRuntime& rt = *runtime_;
  const int dst = rt.lane_of(id);
  if (dst == ctx.lane_index) {
    if (is_active_[static_cast<std::size_t>(id)] != 0 ||
        commit_requested_[static_cast<std::size_t>(id)] != 0) {
      return;
    }
    commit_requested_[static_cast<std::size_t>(id)] = 1;
    ctx.lane->commit_extras.push_back(id);
  } else {
    // Requests for a foreign component are staged unconditionally; the
    // owning lane deduplicates at merge time (two lanes may legitimately
    // request the same channel in one cycle — flit from one side, credit
    // from the other — and the flag byte belongs to the owner).
    ctx.lane->commit_out[static_cast<std::size_t>(dst)].push_back(id);
  }
}

void Engine::activate_lane(ParallelRuntime& rt, ParallelLane& lane,
                           Cycle now) {
  while (!lane.wheel.empty() && lane.wheel.top().first <= now) {
    const int id = lane.wheel.top().second;
    lane.wheel.pop();
    if (is_active_[static_cast<std::size_t>(id)] == 0) {
      is_active_[static_cast<std::size_t>(id)] = 1;
      (rt.wave_of(id) == 1 ? lane.newly1 : lane.newly2).push_back(id);
    }
  }
  if (!lane.newly1.empty()) merge_sorted(lane.active1, lane.newly1);
  if (!lane.newly2.empty()) merge_sorted(lane.active2, lane.newly2);
}

void Engine::run_lane_front(ParallelRuntime& rt, int lane_index, Cycle now) {
  ParallelLane& lane = rt.lanes_[static_cast<std::size_t>(lane_index)];
  activate_lane(rt, lane, now);
  ParallelEvalCtx ctx{this, &lane, lane_index, now};
  detail::tl_parallel_ctx = &ctx;
  for (const int id : lane.active1) {
    components_[static_cast<std::size_t>(id)]->eval(now);
  }
  lane.evals += static_cast<std::int64_t>(lane.active1.size());
  detail::tl_parallel_ctx = nullptr;
}

void Engine::run_lane_wave2(ParallelRuntime& rt, int lane_index, Cycle now) {
  ParallelLane& lane = rt.lanes_[static_cast<std::size_t>(lane_index)];
  ParallelEvalCtx ctx{this, &lane, lane_index, now};
  detail::tl_parallel_ctx = &ctx;
  for (const int id : lane.active2) {
    components_[static_cast<std::size_t>(id)]->eval(now);
  }
  lane.evals += static_cast<std::int64_t>(lane.active2.size());
  detail::tl_parallel_ctx = nullptr;
}

void Engine::finish_lane(ParallelRuntime& rt, int lane_index, Cycle now) {
  ParallelLane& lane = rt.lanes_[static_cast<std::size_t>(lane_index)];
  // Merge the boundary staging buffers published for this lane. Commit
  // requests deduplicate here against the owner's flag bytes, matching the
  // sequential kernel's enqueue-time dedup (set membership is identical;
  // only commit order within the set differs, and commits are
  // component-local).
  for (ParallelLane& src : rt.lanes_) {
    auto& wakes = src.wake_out[static_cast<std::size_t>(lane_index)];
    for (const ParallelLane::WakeEntry& entry : wakes) lane.wheel.push(entry);
    lane.wakes += static_cast<std::int64_t>(wakes.size());
    wakes.clear();
    auto& requests = src.commit_out[static_cast<std::size_t>(lane_index)];
    for (const int id : requests) {
      if (is_active_[static_cast<std::size_t>(id)] != 0 ||
          commit_requested_[static_cast<std::size_t>(id)] != 0) {
        continue;
      }
      commit_requested_[static_cast<std::size_t>(id)] = 1;
      lane.commit_extras.push_back(id);
    }
    requests.clear();
  }
  ParallelEvalCtx ctx{this, &lane, lane_index, now};
  detail::tl_parallel_ctx = &ctx;
  for (const int id : lane.active1) {
    components_[static_cast<std::size_t>(id)]->commit(now);
  }
  for (const int id : lane.active2) {
    components_[static_cast<std::size_t>(id)]->commit(now);
  }
  for (const int id : lane.commit_extras) {
    components_[static_cast<std::size_t>(id)]->commit(now);
    commit_requested_[static_cast<std::size_t>(id)] = 0;
  }
  // Retire actives that fell idle; promote extras whose freshly latched
  // state leaves them non-idle — same rules as step_activity.
  const auto retire = [this](std::vector<int>& list) {
    std::size_t keep = 0;
    for (const int id : list) {
      if (components_[static_cast<std::size_t>(id)]->is_idle()) {
        is_active_[static_cast<std::size_t>(id)] = 0;
      } else {
        list[keep++] = id;
      }
    }
    list.resize(keep);
  };
  retire(lane.active1);
  retire(lane.active2);
  for (const int id : lane.commit_extras) {
    if (is_active_[static_cast<std::size_t>(id)] == 0 &&
        !components_[static_cast<std::size_t>(id)]->is_idle()) {
      is_active_[static_cast<std::size_t>(id)] = 1;
      (rt.wave_of(id) == 1 ? lane.newly1 : lane.newly2).push_back(id);
    }
  }
  lane.commit_extras.clear();
  if (!lane.newly1.empty()) merge_sorted(lane.active1, lane.newly1);
  if (!lane.newly2.empty()) merge_sorted(lane.active2, lane.newly2);
  detail::tl_parallel_ctx = nullptr;
}

void Engine::parallel_worker(ParallelRuntime* rt, int slot) {
  const int workers = static_cast<int>(rt->worker_errors_.size());
  for (;;) {
    rt->barrier_.arrive_and_wait();  // A: command published
    if (rt->command_.load(std::memory_order_relaxed) ==
        ParallelRuntime::Command::kExit) {
      rt->barrier_.arrive_and_wait();  // exit acknowledgement
      return;
    }
    const Cycle now = rt->step_now_.load(std::memory_order_relaxed);
    const int partitions = rt->num_partitions();
    std::exception_ptr& error = rt->worker_errors_[static_cast<std::size_t>(
        slot)];
    if (error == nullptr) {
      try {
        for (int lane = slot; lane < partitions; lane += workers) {
          run_lane_front(*rt, lane, now);
        }
      } catch (...) {
        error = std::current_exception();
        rt->failed_.store(true, std::memory_order_relaxed);
      }
    }
    rt->barrier_.arrive_and_wait();  // B
    if (error == nullptr) {
      try {
        for (int lane = slot; lane < partitions; lane += workers) {
          run_lane_wave2(*rt, lane, now);
        }
      } catch (...) {
        error = std::current_exception();
        rt->failed_.store(true, std::memory_order_relaxed);
      }
    }
    rt->barrier_.arrive_and_wait();  // C (serial phase runs on coordinator)
    rt->barrier_.arrive_and_wait();  // D
    if (error == nullptr) {
      try {
        for (int lane = slot; lane < partitions; lane += workers) {
          finish_lane(*rt, lane, now);
        }
      } catch (...) {
        error = std::current_exception();
        rt->failed_.store(true, std::memory_order_relaxed);
      }
    }
    rt->barrier_.arrive_and_wait();  // E: cycle complete
  }
}

void Engine::parallel_step() {
  ParallelRuntime& rt = *runtime_;
  rt.command_.store(ParallelRuntime::Command::kStep,
                    std::memory_order_relaxed);
  rt.step_now_.store(now_, std::memory_order_relaxed);
  stepping_ = true;
  rt.barrier_.arrive_and_wait();  // A — workers: activate + wave 1
  rt.barrier_.arrive_and_wait();  // B — workers: wave 2
  rt.barrier_.arrive_and_wait();  // C — serial window is now exclusive
  if (rt.coordinator_error_ == nullptr) {
    try {
      run_lane_front(rt, rt.serial_lane(), now_);
    } catch (...) {
      rt.coordinator_error_ = std::current_exception();
      rt.failed_.store(true, std::memory_order_relaxed);
    }
  }
  rt.barrier_.arrive_and_wait();  // D — everyone: merge + commit + retire
  if (rt.coordinator_error_ == nullptr) {
    try {
      finish_lane(rt, rt.serial_lane(), now_);
    } catch (...) {
      rt.coordinator_error_ = std::current_exception();
      rt.failed_.store(true, std::memory_order_relaxed);
    }
  }
  rt.barrier_.arrive_and_wait();  // E — cycle complete
  stepping_ = false;
  ++stats_.cycles_stepped;
  ++now_;
}

bool Engine::parallel_globally_idle() const {
  for (const ParallelLane& lane : runtime_->lanes_) {
    if (!lane.active1.empty() || !lane.active2.empty()) return false;
    if (!lane.wheel.empty() && lane.wheel.top().first <= now_) return false;
  }
  return true;
}

void Engine::parallel_skip(Cycle deadline) {
  Cycle target = deadline;
  for (const ParallelLane& lane : runtime_->lanes_) {
    if (!lane.wheel.empty()) target = std::min(target, lane.wheel.top().first);
  }
  if (target > now_) {
    stats_.cycles_skipped += target - now_;
    now_ = target;
  }
}

namespace {
/// Rethrows the first captured error (coordinator first, then slot order).
void rethrow_runtime_error(ParallelRuntime& rt, std::exception_ptr& coord,
                           std::vector<std::exception_ptr>& workers) {
  (void)rt;
  if (coord != nullptr) {
    std::exception_ptr error = coord;
    coord = nullptr;
    std::rethrow_exception(error);
  }
  for (std::exception_ptr& worker : workers) {
    if (worker != nullptr) {
      std::exception_ptr error = worker;
      worker = nullptr;
      std::rethrow_exception(error);
    }
  }
}
}  // namespace

void Engine::parallel_run(Cycle cycles) {
  ParallelRuntime& rt = *runtime_;
  const Cycle deadline = now_ + cycles;
  while (now_ < deadline) {
    if (parallel_globally_idle()) {
      parallel_skip(deadline);
    } else {
      parallel_step();
      if (rt.failed_.load(std::memory_order_relaxed)) break;
    }
  }
  if (rt.failed_.load(std::memory_order_relaxed)) {
    rt.failed_.store(false, std::memory_order_relaxed);
    rethrow_runtime_error(rt, rt.coordinator_error_, rt.worker_errors_);
  }
}

bool Engine::parallel_run_until(const std::function<bool()>& done,
                                Cycle max_cycles) {
  ParallelRuntime& rt = *runtime_;
  const Cycle deadline = now_ + max_cycles;
  bool fired = false;
  while (now_ < deadline) {
    if (parallel_globally_idle()) {
      // Same contract as the sequential activity kernel: one check settles
      // the whole idle gap; a true predicate consumes one (no-op) cycle.
      if (done()) {
        ++now_;
        fired = true;
        break;
      }
      parallel_skip(deadline);
      continue;
    }
    parallel_step();
    if (rt.failed_.load(std::memory_order_relaxed)) break;
    if (done()) {
      fired = true;
      break;
    }
  }
  if (rt.failed_.load(std::memory_order_relaxed)) {
    rt.failed_.store(false, std::memory_order_relaxed);
    rethrow_runtime_error(rt, rt.coordinator_error_, rt.worker_errors_);
  }
  return fired;
}

}  // namespace ownsim
