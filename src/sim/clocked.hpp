// Two-phase clocked component interface.
//
// Every hardware entity (router, channel, shared medium, NIC) advances in two
// phases per cycle:
//   eval(now)   — compute next state; may *stage* writes into other
//                 components' mailboxes but must not make them visible.
//   commit(now) — latch staged state; staged writes become visible for
//                 cycle now+1.
//
// All cross-component communication goes through latency >= 1 pipes, so the
// relative eval order of components never changes results.
//
// Quiescence contract (activity-driven kernel, DESIGN.md §5e): a component
// may declare itself dormant via `is_idle()`. The engine then skips its
// eval/commit until something wakes it. A component (or a peer staging a
// write into it) must therefore:
//   * call `request_wake(at)` whenever state will need evaluating at cycle
//     `at` (a flit/credit arrival, a scheduled injection), and
//   * call `request_commit()` during eval whenever it staged writes that
//     must be latched this cycle (the engine commits it even if dormant).
// Any per-cycle state a dormant component would have mutated anyway (e.g. a
// free-running token) must be reconstructed in closed form on the next eval.
// If such state is observable (a sleeping medium's token-wait counters), the
// component also brings it up to date in `settle`, which the engine calls on
// every component whenever control returns to the caller between steps.
// The default `is_idle()` returns false: unaware components simply stay in
// the active set every cycle, which is always correct (lockstep behaviour).
#pragma once

#include "common/types.hpp"

namespace ownsim {

class Engine;

class Clocked {
 public:
  virtual ~Clocked() = default;
  virtual void eval(Cycle now) = 0;
  virtual void commit(Cycle now) = 0;

  /// True when eval/commit would be a no-op until the next `request_wake`.
  /// Consulted by the engine after each commit; see the contract above.
  virtual bool is_idle() const { return false; }

  /// Applies the closed-form catch-up through cycle `now - 1` (the last
  /// executed cycle) so state read between steps is exact. Called by the
  /// engine on every component at the end of every step/run/run_until;
  /// must not change what later evals compute.
  virtual void settle(Cycle now) { (void)now; }

  /// Asks the engine to evaluate this component at cycle `at` (clamped to
  /// the earliest cycle the engine can still honor). Public because peers
  /// wake each other (a channel wakes its sink router at flit arrival).
  /// No-op when unscheduled. Defined in engine.cpp (avoids an include cycle).
  void request_wake(Cycle at);

 protected:
  /// True once this component is registered with an engine. Gap catch-up
  /// (token position, RR pointers) must be gated on this so manually driven
  /// components (unit tests) keep plain per-call semantics.
  bool scheduled() const { return engine_ != nullptr; }

  /// Asks the engine to commit this component at the current cycle even if
  /// it is dormant (staged writes must latch). No-op when unscheduled.
  void request_commit();

 private:
  friend class Engine;
  Engine* engine_ = nullptr;
  int sched_id_ = -1;
};

}  // namespace ownsim
