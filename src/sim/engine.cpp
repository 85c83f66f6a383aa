#include "sim/engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "sim/parallel.hpp"

namespace ownsim {

// Defined here (not in clocked.hpp) to break the Clocked <-> Engine include
// cycle: the inline helpers only need the Engine definition.
void Clocked::request_wake(Cycle at) {
  if (engine_ != nullptr) engine_->wake(this, at);
}

void Clocked::request_commit() {
  if (engine_ != nullptr) engine_->commit_request(this);
}

Engine::Engine() {
  // OWNSIM_PDES=1 opts every engine in the process into the parallel kernel
  // (Network installs a default partition plan when it sees the mode).
  const char* pdes = std::getenv("OWNSIM_PDES");
  if (pdes != nullptr && pdes[0] == '1') mode_ = KernelMode::kParallel;
  // Escape hatch: OWNSIM_LOCKSTEP=1 reverts every engine in the process to
  // the tick-everything kernel (differential debugging, A/B timing). Wins
  // over OWNSIM_PDES when both are set.
  const char* env = std::getenv("OWNSIM_LOCKSTEP");
  if (env != nullptr && env[0] == '1') mode_ = KernelMode::kLockstep;
}

void Engine::add(Clocked* component) {
  if (component == nullptr) throw std::invalid_argument("Engine::add: null");
  if (component->engine_ != nullptr) {
    throw std::logic_error("Engine::add: component already registered");
  }
  component->engine_ = this;
  component->sched_id_ = static_cast<int>(components_.size());
  components_.push_back(component);
  // New components start active (lockstep semantics from the next cycle);
  // idle ones retire after their first evaluated cycle. Ids are monotone, so
  // appending keeps the active lists sorted. With a parallel plan installed,
  // ids past the plan belong to the serial lane (driver extras keep their
  // exact sequential schedule there).
  is_active_.push_back(1);
  commit_requested_.push_back(0);
  if (runtime_ != nullptr) {
    lane_add_active(component->sched_id_);
  } else {
    active_.push_back(component->sched_id_);
  }
}

void Engine::set_mode(KernelMode mode) {
  if (now_ != 0) {
    throw std::logic_error(
        "Engine::set_mode: kernels agree only from a cold start (now()==0)");
  }
  // Leaving kParallel returns the lane state to the global scheduler so the
  // selected kernel sees exactly the cold-start picture it expects.
  if (mode != KernelMode::kParallel && runtime_ != nullptr) {
    teardown_parallel();
  }
  mode_ = mode;
}

void Engine::wake(Clocked* component, Cycle at) {
  // Lockstep evaluates everything anyway; recording wakes would only grow
  // the wheel without ever draining it.
  if (mode_ == KernelMode::kLockstep) return;
  const int id = component->sched_id_;
  ParallelEvalCtx* ctx = detail::tl_parallel_ctx;
  if (ctx != nullptr && ctx->engine == this) {
    // Inside a parallel phase the floor is always ctx->now + 1, so the
    // active-and-already-due skip below can never fire — boundary wakes go
    // straight to the staging buffers.
    parallel_wake(*ctx, id, std::max(at, ctx->now + 1));
    return;
  }
  // Mid-step wakes cannot rewind into the executing cycle (the target's eval
  // slot may already be past); between steps, cycle now_ is still upcoming.
  const Cycle floor = stepping_ ? now_ + 1 : now_;
  const Cycle effective = std::max(at, floor);
  if (is_active_[static_cast<std::size_t>(id)] != 0 && effective <= now_) {
    return;
  }
  if (runtime_ != nullptr) {
    lane_wheel_push(id, effective);
  } else {
    wheel_.push({effective, id});
  }
  ++stats_.wakes;
}

void Engine::commit_request(Clocked* component) {
  if (mode_ == KernelMode::kLockstep) return;
  const int id = component->sched_id_;
  ParallelEvalCtx* ctx = detail::tl_parallel_ctx;
  if (ctx != nullptr && ctx->engine == this) {
    parallel_commit_request(*ctx, id);
    return;
  }
  if (is_active_[static_cast<std::size_t>(id)] != 0 ||
      commit_requested_[static_cast<std::size_t>(id)] != 0) {
    return;
  }
  commit_requested_[static_cast<std::size_t>(id)] = 1;
  if (runtime_ != nullptr) {
    lane_commit_extra_push(id);
  } else {
    commit_extras_.push_back(id);
  }
}

void Engine::step() {
  advance();
  settle();
}

void Engine::settle() {
  for (Clocked* c : components_) c->settle(now_);
}

void Engine::advance() {
  if (runtime_ != nullptr) {
    parallel_step();
  } else if (mode_ == KernelMode::kLockstep) {
    step_lockstep();
  } else {
    step_activity();
  }
}

void Engine::merge_sorted(std::vector<int>& list, std::vector<int>& fresh) {
  std::sort(fresh.begin(), fresh.end());
  std::size_t i = list.size();
  std::size_t j = fresh.size();
  std::size_t k = i + j;
  list.resize(k);
  while (j > 0) {
    if (i > 0 && list[i - 1] > fresh[j - 1]) {
      list[--k] = list[--i];
    } else {
      list[--k] = fresh[--j];
    }
  }
  fresh.clear();
}

void Engine::step_lockstep() {
  stepping_ = true;
  for (Clocked* c : components_) c->eval(now_);
  for (Clocked* c : components_) c->commit(now_);
  stats_.evals += static_cast<std::int64_t>(components_.size());
  ++stats_.cycles_stepped;
  stepping_ = false;
  ++now_;
}

void Engine::step_activity() {
  stepping_ = true;

  // 1. Activate every component whose wakeup is due. Entries for components
  //    that re-activated earlier are stale and dropped here (lazy dedup).
  while (!wheel_.empty() && wheel_.top().first <= now_) {
    const int id = wheel_.top().second;
    wheel_.pop();
    if (!is_active_[static_cast<std::size_t>(id)]) {
      is_active_[static_cast<std::size_t>(id)] = true;
      newly_active_.push_back(id);
    }
  }
  // Registration order == id order: keeping the list sorted preserves
  // lockstep's relative eval order over the evaluated subset.
  if (!newly_active_.empty()) merge_sorted(active_, newly_active_);

  // 2. Two-phase sweep over the active subset. Evals may post wakes (>= now+1)
  //    and commit requests for dormant peers they staged writes into.
  for (const int id : active_) {
    components_[static_cast<std::size_t>(id)]->eval(now_);
  }
  for (const int id : active_) {
    components_[static_cast<std::size_t>(id)]->commit(now_);
  }
  for (const int id : commit_extras_) {
    components_[static_cast<std::size_t>(id)]->commit(now_);
    commit_requested_[static_cast<std::size_t>(id)] = false;
  }
  stats_.evals += static_cast<std::int64_t>(active_.size());

  // 3. Retire actives that fell idle; promote extras whose freshly latched
  //    state leaves them non-idle (e.g. a channel that latched a credit).
  std::size_t keep = 0;
  for (const int id : active_) {
    if (components_[static_cast<std::size_t>(id)]->is_idle()) {
      is_active_[static_cast<std::size_t>(id)] = false;
    } else {
      active_[keep++] = id;
    }
  }
  active_.resize(keep);
  for (const int id : commit_extras_) {
    if (!is_active_[static_cast<std::size_t>(id)] &&
        !components_[static_cast<std::size_t>(id)]->is_idle()) {
      is_active_[static_cast<std::size_t>(id)] = true;
      newly_active_.push_back(id);
    }
  }
  commit_extras_.clear();
  if (!newly_active_.empty()) merge_sorted(active_, newly_active_);

  ++stats_.cycles_stepped;
  stepping_ = false;
  ++now_;
}

void Engine::skip_to_next_event(Cycle deadline) {
  const Cycle target =
      wheel_.empty() ? deadline : std::min(wheel_.top().first, deadline);
  if (target > now_) {
    stats_.cycles_skipped += target - now_;
    now_ = target;
  }
}

void Engine::run(Cycle cycles) {
  if (runtime_ != nullptr) {
    parallel_run(cycles);
  } else {
    const Cycle deadline = now_ + cycles;
    while (now_ < deadline) {
      if (globally_idle()) {
        skip_to_next_event(deadline);
      } else {
        advance();
      }
    }
  }
  settle();
}

bool Engine::run_until(const std::function<bool()>& done, Cycle max_cycles) {
  const bool fired = runtime_ != nullptr
                         ? parallel_run_until(done, max_cycles)
                         : step_until(done, max_cycles);
  settle();
  return fired;
}

bool Engine::step_until(const std::function<bool()>& done, Cycle max_cycles) {
  const Cycle deadline = now_ + max_cycles;
  if (mode_ == KernelMode::kLockstep) {
    while (now_ < deadline) {
      advance();
      if (done()) return true;
    }
    return false;
  }
  while (now_ < deadline) {
    if (globally_idle()) {
      // Nothing is awake: component state is frozen until the next wakeup, so
      // one check settles the whole gap. A true predicate still consumes one
      // (no-op) cycle, exactly as the lockstep loop would have.
      if (done()) {
        ++now_;
        return true;
      }
      skip_to_next_event(deadline);
      continue;
    }
    advance();
    if (done()) return true;
  }
  return false;
}

}  // namespace ownsim
