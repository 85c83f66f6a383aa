// Input-buffered virtual-channel router with the paper's 5-stage pipeline:
// RC (route computation) -> VCA (virtual-channel allocation) -> SA (switch
// allocation) -> ST (switch traversal) -> LT (link traversal).
//
// Each input VC advances through a per-packet state machine
// (IDLE -> ROUTING -> VCA -> ACTIVE) one stage per cycle; body flits reuse
// the packet's allocation and only contend for the switch. Switch allocation
// is separable input-first with round-robin priority at both stages. Flow
// control is credit-based wormhole; credits return through the upstream
// endpoint as buffer slots free. The VC states are mirrored in slot sets so
// every stage visits only the VCs that can act, in the same round-robin
// order as a full scan (DESIGN.md §5).
//
// Port counts are asymmetric (e.g. an OWN photonic router reads ONE home
// waveguide but writes 15), so inputs and outputs are configured separately.
// Injection/ejection ports are plain ports wired to NIC channels by the
// Network assembler.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/slot_set.hpp"
#include "common/types.hpp"
#include "network/endpoints.hpp"
#include "network/flit.hpp"
#include "obs/counters.hpp"
#include "sim/clocked.hpp"

namespace ownsim {

/// Next-hop decision for a head flit at some router.
struct RouteEntry {
  PortId out_port = kInvalidId;
  std::int8_t vc_class = 0;
};

/// Supplies routing decisions. `route` is called once per packet per hop
/// (during RC); when `at == flit.dst_router` it must return the ejection port.
class RoutingOracle {
 public:
  virtual ~RoutingOracle() = default;
  virtual RouteEntry route(RouterId at, const Flit& head) const = 0;
};

/// Activity counters consumed by the power model.
struct RouterCounters {
  std::int64_t buffer_writes = 0;   ///< flits written into input VCs
  std::int64_t buffer_reads = 0;    ///< flits read out at switch traversal
  std::int64_t crossbar_flits = 0;  ///< flits through the crossbar
  std::int64_t crossbar_bits = 0;
  std::int64_t route_computations = 0;
  std::int64_t vc_allocations = 0;
  std::int64_t switch_allocations = 0;  ///< granted SA requests
  /// Work counters (not power inputs): `alloc_vc` calls made by VCA, and
  /// SA stage-1 nominations (input ports that requested an output).
  std::int64_t vca_attempts = 0;
  std::int64_t sa_nominations = 0;
};

class Router final : public Clocked {
 public:
  struct Params {
    RouterId id = 0;
    int num_inputs = 0;   ///< total, including injection ports
    int num_outputs = 0;  ///< total, including ejection ports
    int num_vcs = 4;
    int buffer_depth = 8;
  };

  Router(Params params, const RoutingOracle* oracle);

  /// Wiring (done once by the Network assembler before the first cycle).
  void connect_input(PortId port, InputEndpoint* endpoint);
  void connect_output(PortId port, OutputEndpoint* endpoint);

  void eval(Cycle now) override;
  void commit(Cycle /*now*/) override {}

  /// Dormant when no flit is buffered, or when the last eval stalled: it
  /// took no flit, nominated nothing in SA, granted no VC and left no VC
  /// waiting for detect/RC/VCA (parked requesters may remain — only this
  /// router's own tail unparks them). The next eval of a stalled router
  /// would change nothing until an input delivers a flit (the source
  /// channel/medium's sink wake) or a refusing output frees up, and every
  /// such output was asked to wake it (OutputEndpoint::wake_when_ready).
  /// The only per-cycle state a dormant router would have touched — the VCA
  /// rotation pointer — is reconstructed in closed form at the next eval
  /// (see eval). DESIGN.md §5e.
  bool is_idle() const override { return occupancy_ == 0 || stalled_; }

  RouterId id() const { return params_.id; }
  int num_inputs() const { return params_.num_inputs; }
  int num_outputs() const { return params_.num_outputs; }
  int radix() const { return std::max(params_.num_inputs, params_.num_outputs); }
  const RouterCounters& counters() const { return counters_; }

  /// Total flits currently buffered (used for drain detection).
  int occupancy() const { return occupancy_; }

  /// Registers this router's counters with `registry` (handles resolved
  /// once). Names: "router.<id>.{flits_forwarded,sa_retries,
  /// buffer_highwater}".
  void bind_obs(obs::Registry& registry);

  /// Writes a human-readable dump of every non-idle input VC, preceded by a
  /// summary of why the router may be asleep: the stall flag, the parked
  /// VCA slots and the blocked (output, class) pairs (debug aid).
  void dump_state(std::ostream& os) const;

 private:
  enum class VcState : std::uint8_t { kIdle, kRouting, kVca, kActive };

  struct InputVc {
    VcState state = VcState::kIdle;
    RingBuffer<Flit> buffer;  ///< a view of flit_slab_
    RouteEntry route;
    VcId out_vc = kInvalidId;
  };

  struct InputPort {
    InputEndpoint* endpoint = nullptr;
    std::vector<InputVc> vcs;
    int rr_vc = 0;  ///< SA stage-1 round-robin pointer
  };

  struct OutputPort {
    OutputEndpoint* endpoint = nullptr;
    int rr_input = 0;  ///< SA stage-2 round-robin pointer
  };

  // Each stage returns whether it changed state the next eval depends on
  // (a flit taken, an SA nomination, a VC granted).
  bool stage_intake(Cycle now);
  bool stage_switch(Cycle now);  // SA + ST + LT launch
  bool stage_vca(Cycle now);
  void stage_rc();
  void stage_detect();

  /// Asks every output that refused an ACTIVE VC this eval to wake the
  /// router once it could accept again (called when the eval stalled, so
  /// every slot in active_ was refused).
  void wait_for_outputs(Cycle now);

  /// Input slots: VC v of input i is slot i * num_vcs + v in the VC-state
  /// sets below.
  int num_slots() const { return params_.num_inputs * params_.num_vcs; }
  int slot(int i, int v) const { return i * params_.num_vcs + v; }
  InputVc& slot_vc(int s) {
    return inputs_[static_cast<std::size_t>(s / params_.num_vcs)]
        .vcs[static_cast<std::size_t>(s % params_.num_vcs)];
  }
  /// Slot of (output port, VC class) in blocked_.
  int class_slot(PortId o, int vc_class) const {
    return o * params_.num_vcs + vc_class;
  }

  Params params_;
  const RoutingOracle* oracle_;
  /// Storage of every VC buffer, buffer_depth flits per input slot (one
  /// allocation per router instead of one per VC).
  RingSlab<Flit> flit_slab_;
  std::vector<InputPort> inputs_;
  std::vector<OutputPort> outputs_;
  int vca_rr_ = 0;  ///< round-robin start for VCA request order
  int occupancy_ = 0;
  bool stalled_ = false;  ///< last eval changed nothing; see is_idle()
  Cycle last_eval_ = -1;  ///< for vca_rr_ catch-up across skipped cycles
  RouterCounters counters_;
  obs::Counter obs_flits_forwarded_;
  obs::Counter obs_sa_retries_;
  obs::Gauge obs_buffer_highwater_;

  // VC-state sets over input slots (see slot()); each mirrors InputVc::state
  // (and buffer occupancy) and is updated where those change.
  SlotSet idle_head_;  ///< kIdle with a buffered head (detect's work)
  SlotSet routing_;    ///< kRouting
  SlotSet vca_;        ///< kVca, not parked (VCA's work)
  SlotSet parked_;     ///< kVca waiting on a blocked (output, class)
  SlotSet active_;     ///< kActive with a buffered flit (SA's work)
  /// (output port, class) pairs whose alloc_vc was refused; see stage_vca.
  SlotSet blocked_;
  SlotSet waited_outputs_;  ///< wait_for_outputs scratch: outputs asked

  // Scratch for SA (persistent to avoid per-cycle allocation).
  std::vector<int> sa_request_;   ///< per nominating input: its VC index
  std::vector<int> sa_winners_;   ///< inputs that nominated a VC this cycle
  std::vector<int> grant_key_;    ///< per output: RR distance of best request
  std::vector<int> grant_input_;  ///< per output: input holding best request
  std::vector<int> granted_outputs_;
};

}  // namespace ownsim
