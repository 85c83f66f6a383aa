// Point-to-point link with credit-based flow control.
//
// A `Channel` joins one upstream output port to one downstream input port.
// It bundles:
//   * a forward flit pipe with `latency` cycles of delay and a serialization
//     constraint of `cycles_per_flit` (bandwidth normalization — see
//     topology/bisection.*), and
//   * a reverse credit pipe (fixed 1-cycle latency) so the sender tracks the
//     downstream buffer occupancy per VC.
//
// The sender side implements `OutputEndpoint` (VC allocation against the
// downstream input port, credit checks); the receiver side implements
// `InputEndpoint`. Both latencies are >= 1, so component eval order never
// affects results.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/quantity.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "network/endpoints.hpp"
#include "network/flit.hpp"
#include "obs/counters.hpp"
#include "sim/clocked.hpp"

namespace ownsim {

namespace obs {
class Registry;
class TraceWriter;
}

namespace fault {
struct Protocol;
}

/// Maps a deadlock class to a contiguous range of VC ids.
struct VcClassRange {
  VcId first = 0;
  int count = 1;
};

/// Traffic counters for energy accounting (read post-run by the power model).
struct LinkCounters {
  std::int64_t flits = 0;
  std::int64_t bits = 0;
};

/// Reliability-protocol counters of one channel (fault/protocol.hpp); plain
/// integers so the fault campaign's acceptance logic never depends on the
/// (compile-time removable) obs registry.
struct LinkFaultCounters {
  std::int64_t crc_errors = 0;       ///< receptions that failed the CRC
  std::int64_t retransmissions = 0;  ///< flit copies re-sent (NACK or outage)
};

class Channel final : public Clocked {
 public:
  /// `num_vcs`/`buffer_depth` describe the downstream input port;
  /// `classes` maps vc_class -> VC range (shared network-wide).
  Channel(MediumType medium, int latency, int cycles_per_flit, int num_vcs,
          int buffer_depth, Length distance,
          const std::vector<VcClassRange>* classes, std::string name);

  OutputEndpoint* out() { return &sender_; }
  InputEndpoint* in() { return &receiver_; }

  void eval(Cycle now) override;
  void commit(Cycle now) override;

  /// Dormant once both pipes and both staging buffers are empty. While any
  /// flit or credit is in flight the channel stays active so arrivals are
  /// absorbed at exactly their arrival cycle (lockstep-identical timing).
  bool is_idle() const override {
    return flit_pipe_.empty() && credit_pipe_.empty() &&
           staged_flits_.empty() && staged_credits_.empty();
  }

  /// Component to wake when a flit completes the forward pipe (the router or
  /// NIC polling `in()`). Wired once by the Network assembler; optional —
  /// unwired channels (unit tests) simply post no wakes.
  void set_sink(Clocked* sink) { sink_ = sink; }
  /// Multi-port sink (the NIC): also marks `port` pending at every commit
  /// that latches a flit and at every pop that leaves one in the pipe.
  void set_sink(PortListener* sink, int port) {
    sink_ = sink;
    port_sink_ = sink;
    sink_port_ = port;
  }

  MediumType medium() const { return medium_; }
  int latency() const { return latency_; }
  int cycles_per_flit() const { return cycles_per_flit_; }
  Length distance() const { return distance_; }
  const std::string& name() const { return name_; }
  const LinkCounters& counters() const { return counters_; }
  int num_vcs() const { return static_cast<int>(credits_.size()); }

  /// Sender-visible credits for `vc` (mainly for tests).
  int credits(VcId vc) const { return credits_[vc]; }
  bool vc_busy(VcId vc) const { return vc_busy_[vc]; }

  /// Registers this channel's counters with `registry` (handles resolved
  /// once; see obs/counters.hpp). Names: "link.<name>.flits".
  void bind_obs(obs::Registry& registry);

  /// Attaches a trace writer; busy intervals are emitted as complete events
  /// on track (TraceWriter::kPidLinks, `tid`). Null detaches.
  void set_trace(obs::TraceWriter* trace, int tid);

  /// Emits the still-open busy interval, if any (called at end of run).
  void flush_trace();

  // ---- runtime fault model (fault/campaign.*) -------------------------------
  /// Arms the link-level reliability protocol on this channel: accepted flits
  /// corrupt independently with the protocol's per-flit error rate (drawn
  /// from `rng`, one deterministic stream per channel), and corrupt arrivals
  /// are NACKed + retransmitted with bounded exponential backoff. Requires
  /// latency >= 2 so a corrupt front flit is always intercepted one cycle
  /// before the receiving router could poll it (kernel bit-identity; see
  /// DESIGN.md §5f). `registry` may be null (no obs counters).
  void set_fault_model(const fault::Protocol* protocol, Rng rng,
                       obs::Registry* registry);

  /// Channel flap: the sender cannot launch before `until`, and in-flight
  /// copies are lost to the outage — they retransmit after restoration
  /// (arrivals pushed past `until`, FIFO spacing preserved).
  void set_outage(Cycle until, Cycle now);

  /// Permanent mid-run death: the channel keeps accepting (wormhole bodies
  /// must follow their head) but every flit pays the exhausted-backoff
  /// penalty, in-flight copies included. No flit is ever dropped; the
  /// persistent-failure detector reroutes new traffic away (see campaign).
  void set_dying(Cycle now);
  bool dying() const { return dying_; }

  const LinkFaultCounters& fault_counters() const { return fault_counters_; }

  // ---- online adaptation hooks (adapt/controller.hpp) -----------------------
  /// Overrides the armed protocol's static `ber` for this channel's
  /// corruption draws with a live, thermally-driven value; the protocol
  /// keeps providing the timing parameters (ack_timeout, backoff, attempt
  /// bound). Negative restores the static operating point.
  void set_live_ber(double ber) { live_ber_ = ber; }
  double live_ber() const { return live_ber_; }

  /// Changes the serialization constraint for future accepts (per-link rate
  /// backoff: slower symbols, more margin). In-flight flits are unaffected.
  void set_cycles_per_flit(int cycles_per_flit);

  /// One line per in-flight/staged flit and pending credit (empty channel:
  /// no output). Diagnostic aid for the watchdog dump and parity debugging.
  void dump_state(std::ostream& os) const;

 private:
  /// Coalesces per-flit serialization slots into contiguous busy intervals:
  /// a gap (now past the previous slot's end) flushes the open interval.
  void note_busy(Cycle now);
  struct Timed;
  /// Draws the transit-corruption outcome for a just-accepted flit (or the
  /// exhausted penalty when the channel is dying). Called from accept only
  /// when a fault model is attached.
  void apply_fault_on_accept(Timed& timed);
  struct Sender final : OutputEndpoint {
    explicit Sender(Channel* ch) : channel(ch) {}
    VcId alloc_vc(int vc_class, Cycle now) override;
    bool can_accept(const Flit& flit, Cycle now) const override;
    void accept(const Flit& flit, Cycle now) override;
    void wake_when_ready(Waiter waiter, Cycle now) override;
    Channel* channel;
  };

  struct Receiver final : InputEndpoint {
    explicit Receiver(Channel* ch) : channel(ch) {}
    const Flit* poll(Cycle now) override;
    void pop(Cycle now) override;
    void push_credit(VcId vc, Cycle now) override;
    Channel* channel;
  };

  struct Timed {
    Flit flit;
    Cycle arrival;
    int attempts = 0;  ///< failed receptions so far (fault model only)
  };
  struct TimedCredit {
    VcId vc;
    Cycle arrival;
  };

  MediumType medium_;
  int latency_;
  int cycles_per_flit_;
  Length distance_;
  const std::vector<VcClassRange>* classes_;
  std::string name_;

  // Sender state (touched only by the upstream component's eval).
  std::vector<int> credits_;
  std::vector<bool> vc_busy_;  // set by alloc_vc, cleared only by a tail's
                               // accept (endpoints.hpp parking contract)
  std::vector<int> rr_next_;  // per-class round-robin VC pointer
  Cycle next_free_ = 0;
  /// Sender refused for lack of a credit; woken at now+1 by the eval that
  /// absorbs the next credit (endpoints.hpp wake contract).
  Waiter credit_waiter_;

  // Pipes. `staged_*` filled during eval, merged in commit.
  std::deque<Timed> flit_pipe_;
  std::vector<Timed> staged_flits_;
  std::deque<TimedCredit> credit_pipe_;
  std::vector<TimedCredit> staged_credits_;

  Clocked* sink_ = nullptr;  ///< woken at forward-pipe arrivals
  PortListener* port_sink_ = nullptr;  ///< == sink_ when it serves many ports
  int sink_port_ = -1;

  LinkCounters counters_;
  obs::Counter obs_flits_;

  /// Per-flit corruption probability honoring a live-BER override.
  double flit_error_p(std::uint32_t bits) const;

  // Fault-model state (null protocol = healthy channel, zero overhead).
  const fault::Protocol* fault_ = nullptr;
  Rng fault_rng_{};
  double live_ber_ = -1.0;  ///< < 0: use the protocol's static ber
  bool dying_ = false;
  LinkFaultCounters fault_counters_;
  obs::Counter obs_crc_errors_;
  obs::Counter obs_retransmissions_;

  // Trace state (observational only; see obs/trace.hpp).
  obs::TraceWriter* trace_ = nullptr;
  int trace_tid_ = 0;
  Cycle busy_start_ = -1;  ///< -1: no interval open
  Cycle busy_end_ = 0;     ///< end of the last occupied serialization slot

  Sender sender_{this};
  Receiver receiver_{this};
};

}  // namespace ownsim
