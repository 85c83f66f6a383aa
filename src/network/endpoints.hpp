// Port endpoint interfaces.
//
// A router (or NIC) sees each of its ports through one of two narrow
// interfaces, so point-to-point channels and token-arbitrated shared media
// (photonic MWSR waveguides, wireless SWMR channels) plug in uniformly:
//
//  * `InputEndpoint`  — where flits arrive; the consumer polls, pops, and
//    returns credits as buffer slots free up.
//  * `OutputEndpoint` — where flits depart; supports downstream-VC allocation
//    (VCA) and per-cycle acceptance checks (SA/ST).
//
// For a `Channel` the downstream VC is a real VC of the next router's input
// port and credits are tracked per VC at the sender. For a shared medium the
// "VC" returned by `alloc_vc` is just the class id: the medium performs the
// real reader-VC assignment and credit check at transmission time, which
// models packet-granular token arbitration.
#pragma once

#include "common/types.hpp"
#include "network/flit.hpp"
#include "sim/clocked.hpp"

namespace ownsim {

/// A component that serves many ports in one eval (the NIC). Endpoints name
/// the port an event concerns instead of just waking the component, so its
/// eval visits only the ports with work. Under the parallel kernel the marks
/// come from other partitions' threads, but never while the listener itself
/// evaluates (output_ready is called from wave-2 evals or the listener's own
/// eval, input_pending from commits or the listener's own eval; DESIGN.md
/// §5i), so implementations need only race-free, order-independent marking
/// (atomic ORs).
class PortListener : public Clocked {
 public:
  /// `port`'s output endpoint may accept again from cycle `at`: mark the
  /// port and wake at `at`.
  virtual void output_ready(int port, Cycle at) = 0;
  /// `port`'s input endpoint latched a flit; the endpoint's own sink wake
  /// covers its arrival cycle.
  virtual void input_pending(int port) = 0;
};

/// Whom an output endpoint wakes once it could accept again: a whole
/// component (a router), or one port of a PortListener (the NIC).
class Waiter {
 public:
  Waiter() = default;
  Waiter(Clocked* component) : component_(component) {}  // NOLINT: implicit
  Waiter(PortListener* listener, int port)
      : component_(listener), listener_(listener), port_(port) {}

  explicit operator bool() const { return component_ != nullptr; }
  friend bool operator==(const Waiter&, const Waiter&) = default;

  void wake(Cycle at) const {
    if (listener_ != nullptr) {
      listener_->output_ready(port_, at);
    } else {
      component_->request_wake(at);
    }
  }

 private:
  Clocked* component_ = nullptr;
  PortListener* listener_ = nullptr;
  int port_ = -1;
};

class InputEndpoint {
 public:
  virtual ~InputEndpoint() = default;

  /// Flit arriving this cycle, or nullptr. Stable until pop() or next cycle.
  virtual const Flit* poll(Cycle now) = 0;

  /// Consumes the flit returned by poll().
  virtual void pop(Cycle now) = 0;

  /// Returns one credit for `vc` to the upstream side (latency >= 1).
  virtual void push_credit(VcId vc, Cycle now) = 0;
};

class OutputEndpoint {
 public:
  virtual ~OutputEndpoint() = default;

  /// Tries to allocate a downstream VC for a new packet of `vc_class`.
  /// Returns kInvalidId when none is available this cycle; a refusal has no
  /// side effect.
  ///
  /// Parking contract (the router relies on it to stop re-asking): once
  /// `alloc_vc(c)` is refused, it stays refused until a tail flit goes
  /// through `accept()` on this same endpoint — the only place a granted VC
  /// or lane is released. Only the owning router calls `accept`, so that
  /// router alone knows when a refused class may succeed again.
  virtual VcId alloc_vc(int vc_class, Cycle now) = 0;

  /// True if `flit` (already VC-allocated) can be accepted this cycle:
  /// serialization slot free and a buffer credit available.
  virtual bool can_accept(const Flit& flit, Cycle now) const = 0;

  /// Wake contract (routers and the NIC rely on it to sleep while their
  /// outputs refuse them, DESIGN.md §5e): after `can_accept` refused
  /// `waiter` at `now`, wake `waiter` no later than the first cycle
  /// `can_accept` could return true. Waking early is allowed — the waiter
  /// re-checks and registers again. A registration fires at most once, and
  /// an `accept` drops it (the waiter is evaluating then and re-registers if
  /// it stalls again).
  virtual void wake_when_ready(Waiter waiter, Cycle now) = 0;

  /// Hands the flit to the link/medium. Caller must have checked can_accept.
  virtual void accept(const Flit& flit, Cycle now) = 0;
};

}  // namespace ownsim
