// Cycle-driven simulation kernel.
//
// Holds a registry of non-owning `Clocked*` components and advances them in
// two phases per cycle. Components are owned by whoever built them (normally
// `Network`). Two kernels share the registry (see DESIGN.md §5e):
//
//  * kActivity (default) — activity-driven: only components in the active
//    set are evaluated/committed; a wheel of future wakeups re-activates
//    dormant components, and `run`/`run_until` fast-forward `now_` across
//    globally idle gaps (bounded by the next scheduled wakeup). Bit-identical
//    to lockstep by the quiescence contract in sim/clocked.hpp.
//  * kLockstep — the original tick-everything loop: eval all, commit all,
//    now()+1. Escape hatch + differential-testing baseline; selected with
//    OWNSIM_LOCKSTEP=1 or `set_mode`.
//  * kParallel — activity semantics with the network partitioned across
//    worker threads (sim/parallel.hpp, DESIGN.md §5i). Behaves exactly like
//    kActivity until `configure_parallel` installs a partition plan;
//    selected with OWNSIM_PDES=1 or `set_mode`. Bit-identical to both other
//    kernels for any partition count and thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/types.hpp"
#include "sim/clocked.hpp"

namespace ownsim {

enum class KernelMode {
  kActivity,  ///< active set + wake wheel + idle skip-ahead
  kLockstep,  ///< eval/commit every component every cycle
  kParallel,  ///< activity semantics, partitions evaluated on worker threads
};

class ParallelRuntime;
struct ParallelEvalCtx;
struct ParallelLane;
struct ParallelPlan;

class Engine {
 public:
  /// Mode defaults to kActivity unless the environment overrides it:
  /// OWNSIM_PDES=1 selects kParallel, OWNSIM_LOCKSTEP=1 wins over both.
  Engine();
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Registers a component. Must not be null, must not already be registered;
  /// pointer must outlive the engine. Newly added components start active
  /// (they are evaluated from the next cycle, exactly like lockstep) and
  /// retire on their own once `is_idle()`.
  void add(Clocked* component);

  /// Selects the kernel. Only allowed before the first cycle (now() == 0):
  /// the kernels agree on component state only from a cold start. Switching
  /// away from kParallel tears down any configured partition runtime.
  void set_mode(KernelMode mode);
  KernelMode mode() const { return mode_; }

  /// Installs a partition plan and spins up `threads` workers for the
  /// kParallel kernel (requires mode() == kParallel and now() == 0; the plan
  /// must cover the components registered so far — later additions fall into
  /// the serial lane). Replaces any previous plan. The worker count is
  /// clamped to [1, plan.num_partitions].
  void configure_parallel(ParallelPlan plan, unsigned threads);
  bool parallel_configured() const { return runtime_ != nullptr; }

  /// Current cycle (number of completed steps).
  Cycle now() const { return now_; }

  /// Advances exactly one cycle (never skips ahead, in either mode). Like
  /// run and run_until, it returns with every component settled
  /// (Clocked::settle), so state read between calls is exact.
  void step();

  /// Advances `cycles` cycles; in activity mode, globally idle stretches are
  /// skipped in one jump to the next wakeup (or to the end of the budget).
  void run(Cycle cycles);

  /// Steps until `done()` returns true or `max_cycles` elapse. Returns true
  /// if `done()` fired. The predicate is checked after every *active* cycle
  /// and once per idle gap (state cannot change while nothing is awake), so
  /// it must be a pure function of component state — not of `now()` — for
  /// the check to be exact in activity mode. Lockstep checks every cycle.
  bool run_until(const std::function<bool()>& done, Cycle max_cycles);

  std::size_t num_components() const { return components_.size(); }

  /// Components currently in the active set (diagnostics/tests).
  std::size_t num_active() const;

  /// Earliest pending wakeup, or kNeverCycle when the wheel is empty.
  Cycle next_wake() const;

  /// Kernel statistics (observational; reset never, monotone within a run).
  struct Stats {
    std::int64_t cycles_stepped = 0;  ///< cycles with at least one eval
    std::int64_t cycles_skipped = 0;  ///< cycles fast-forwarded while idle
    std::int64_t evals = 0;           ///< component evals performed
    std::int64_t wakes = 0;           ///< wakeups posted to the wheel
  };
  /// Aggregated over the partition lanes when a parallel plan is configured.
  /// Safe to call between cycles and from the serial phase (workers parked).
  Stats stats() const;

 private:
  friend class Clocked;
  friend class ParallelRuntime;

  /// Posts a wakeup for `component` at cycle `at` (clamped: never before the
  /// next cycle the engine will execute). Called via Clocked::request_wake.
  void wake(Clocked* component, Cycle at);

  /// Marks `component` for commit this cycle even if dormant. Called via
  /// Clocked::request_commit (only meaningful during an eval phase).
  void commit_request(Clocked* component);

  /// One cycle of the selected kernel, without settling.
  void advance();
  void step_lockstep();
  void step_activity();
  /// The sequential kernels' run_until loop, without settling.
  bool step_until(const std::function<bool()>& done, Cycle max_cycles);
  /// Calls settle(now_) on every component.
  void settle();

  /// Sorts `fresh` and merges it into the sorted `list` in place (a
  /// backward merge: no scratch allocation), then clears `fresh`. The two
  /// hold disjoint ids. Cheaper than re-sorting the whole active list when
  /// a few components wake.
  static void merge_sorted(std::vector<int>& list, std::vector<int>& fresh);

  /// True when no component is active and no wakeup is due at `now_`
  /// (then nothing can change until `next_wake()`).
  bool globally_idle() const {
    return mode_ != KernelMode::kLockstep && active_.empty() &&
           (wheel_.empty() || wheel_.top().first > now_);
  }

  /// Jumps `now_` to the next wakeup, clamped to `deadline`.
  void skip_to_next_event(Cycle deadline);

  // --- Parallel kernel (engine_parallel.cpp). Once `configure_parallel`
  // installed a runtime, the per-lane structures ARE the scheduler state;
  // the global `active_`/`wheel_` above stay empty until teardown.
  void teardown_parallel();
  void distribute_to_lanes();
  void collect_from_lanes();
  void parallel_step();
  void parallel_run(Cycle cycles);
  bool parallel_run_until(const std::function<bool()>& done, Cycle max_cycles);
  bool parallel_globally_idle() const;
  void parallel_skip(Cycle deadline);
  void parallel_worker(ParallelRuntime* rt, int slot);
  void activate_lane(ParallelRuntime& rt, ParallelLane& lane, Cycle now);
  void run_lane_front(ParallelRuntime& rt, int lane_index, Cycle now);
  void run_lane_wave2(ParallelRuntime& rt, int lane_index, Cycle now);
  void finish_lane(ParallelRuntime& rt, int lane_index, Cycle now);
  void parallel_wake(ParallelEvalCtx& ctx, int id, Cycle effective);
  void parallel_commit_request(ParallelEvalCtx& ctx, int id);
  void lane_wheel_push(int id, Cycle effective);
  void lane_commit_extra_push(int id);
  void lane_add_active(int id);

  std::vector<Clocked*> components_;
  Cycle now_ = 0;
  KernelMode mode_ = KernelMode::kActivity;

  // Activity-kernel state. `active_` is kept sorted by registration id so a
  // partial sweep preserves lockstep's relative eval order (determinism).
  // The flag vectors use unsigned char, not bool: under the parallel kernel
  // distinct component ids are flipped from distinct threads, which needs
  // distinct memory locations (vector<bool> packs bits).
  std::vector<int> active_;
  std::vector<unsigned char> is_active_;  ///< per component id
  using WheelEntry = std::pair<Cycle, int>;  // (cycle, component id)
  std::priority_queue<WheelEntry, std::vector<WheelEntry>,
                      std::greater<WheelEntry>>
      wheel_;
  std::vector<int> commit_extras_;  ///< dormant ids to commit this cycle
  std::vector<unsigned char> commit_requested_;  ///< per id, cleared per cycle
  std::vector<int> newly_active_;  ///< scratch for the activation merge
  bool stepping_ = false;  ///< inside step(): same-cycle wakes defer to now+1

  Stats stats_;
  std::unique_ptr<ParallelRuntime> runtime_;
};

}  // namespace ownsim
