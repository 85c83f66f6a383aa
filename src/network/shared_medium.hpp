// Token-arbitrated shared medium.
//
// Models the two shared-channel structures of the OWN architecture (and of
// the OptXB baseline):
//
//  * Photonic MWSR waveguide — many writers, ONE reader (the "home" tile).
//    A token circulates among the writers; the holder transmits one whole
//    packet (wormhole on the bus: the token is held until the tail flit is
//    launched), then the token moves on, one writer position per cycle.
//
//  * Wireless SWMR channel (OWN-1024) — several writers (one per cluster of
//    the transmitting group) sharing a token, and several readers (every
//    cluster of the destination group). The signal is *multicast*: only the
//    intended reader's input port receives the flits, but every listening
//    reader pays receive energy (`multicast_rx = true`), exactly as §III.B
//    describes ("the rest will discard it ... receiver power is consumed").
//
// Reader-side VC assignment and buffer credits are owned by the medium: the
// medium is the only writer into its reader ports, so it can account
// occupancy exactly; routers return credits through the reader endpoint.
// Writer ports expose `OutputEndpoint` with packet-granular admission (a new
// head is admitted only once the previous packet fully drained), which models
// the per-packet token arbitration of the paper.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/slot_set.hpp"
#include "common/thread_annotations.hpp"
#include "common/types.hpp"
#include "network/channel.hpp"  // VcClassRange, LinkCounters
#include "network/endpoints.hpp"
#include "network/flit.hpp"
#include "obs/counters.hpp"
#include "sim/clocked.hpp"

namespace ownsim {

namespace obs {
class TraceWriter;
}

/// Counters specific to shared media (token behavior, multicast RX cost).
struct MediumCounters {
  std::int64_t packets = 0;
  std::int64_t flits = 0;
  std::int64_t tx_bits = 0;
  std::int64_t rx_bits = 0;          ///< includes discarded multicast copies
  std::int64_t token_wait_cycles = 0;///< cycles a pending head waited for the token
  /// SWMR multicast: flit copies received-and-discarded by the non-target
  /// readers (§III.B "the rest will discard it"); 0 on MWSR media.
  std::int64_t multicast_discard_flits = 0;
  // Reliability-protocol counters (fault/protocol.hpp); plain integers so the
  // fault campaign's acceptance logic never depends on the obs registry.
  std::int64_t crc_errors = 0;       ///< receptions that failed the CRC
  std::int64_t retransmissions = 0;  ///< flit copies re-sent on a NACK
  std::int64_t token_recoveries = 0; ///< tokens regenerated after a loss
};

/// How writers are granted the medium.
///  kTokenRing — the paper's scheme: a token circulates one writer position
///               per cycle and is held for a whole packet ("token transfer
///               consumes a few extra cycles").
///  kIdeal     — zero-cost arbitration: any pending writer may start the
///               cycle the bus frees (round-robin fairness). Ablation
///               baseline isolating the token's latency cost.
enum class ArbitrationKind { kTokenRing, kIdeal };

class SharedMedium final : public Clocked {
 public:
  struct Params {
    MediumType medium = MediumType::kPhotonic;
    ArbitrationKind arbitration = ArbitrationKind::kTokenRing;
    int num_writers = 1;
    int num_readers = 1;
    int latency = 1;             ///< propagation, cycles
    int cycles_per_flit = 1;     ///< serialization on the medium
    int num_vcs = 4;             ///< per reader input port
    int buffer_depth = 8;        ///< per reader VC
    int max_packet_flits = 8;    ///< writer staging capacity
    Length distance;
    bool multicast_rx = false;   ///< SWMR: every reader pays RX energy
    std::string name;
    /// Given a flit's destination, which reader index receives it.
    std::function<int(NodeId dst, RouterId dst_router)> select_reader;
  };

  SharedMedium(Params params, const std::vector<VcClassRange>* classes);

  OutputEndpoint* writer(int index);
  InputEndpoint* reader(int index);

  void eval(Cycle now) override;
  void commit(Cycle now) override;
  /// Applies the token and token-wait catch-up through `now - 1`, so the
  /// counters of a sleeping medium are exact whenever they are read.
  void settle(Cycle now) override { catch_up(now - 1); }

  /// Dormant when no transmission is active and no writer has flits staged,
  /// or asleep: the last eval found that the evals before a known event
  /// change nothing but the token position and the token-wait counters
  /// (plan_sleep). Pending reader credits are absorbed lazily (credits are
  /// only *read* by the eval), and the free-running token position and
  /// counters are reconstructed in closed form at the next eval — both
  /// lockstep-identical (DESIGN.md §5e). A lost token forces per-cycle
  /// evals: the closed-form catch-up assumes a *rotating* token, so both
  /// kernels must observe the frozen token the same way (§5f).
  bool is_idle() const override {
    return !token_loss_pending_ &&
           (asleep_ || (!active_ && nonempty_stagings_ == 0));
  }

  /// Component to wake when a delivery reaches reader `index` (the router
  /// polling that reader endpoint). Wired once by the Network assembler.
  void set_reader_sink(int index, Clocked* sink) {
    readers_.at(static_cast<std::size_t>(index)).sink = sink;
  }

  const MediumCounters& counters() const { return counters_; }
  /// Evals run so far (a work counter for benchmarks, not a model counter).
  std::int64_t evals() const { return evals_; }
  const Params& params() const { return params_; }
  int token_position() const { return token_; }
  bool transmitting() const { return active_; }

  /// Registers this medium's counters with `registry` (handles resolved
  /// once). Names: "medium.<name>.{packets,flits,token_wait_cycles,
  /// arb_retries,multicast_discard_flits}".
  void bind_obs(obs::Registry& registry);

  /// Attaches a trace writer: token grants become instant events and
  /// per-packet bus occupancy complete events on (kPidMedia, `tid`).
  void set_trace(obs::TraceWriter* trace, int tid);

  // ---- runtime fault model (fault/campaign.*) -------------------------------
  /// Arms the reliability protocol: each launched flit corrupts independently
  /// with the protocol's per-flit error rate, and the writer retries while
  /// holding the token — arrival and the next transmit slot slide by the
  /// summed backoff. `registry` may be null (no obs counters).
  void set_fault_model(const fault::Protocol* protocol, Rng rng,
                       obs::Registry* registry);

  /// MAC-level token loss: from the next cycle the token is frozen — no
  /// rotation, no new grants (the active transmission, if any, completes).
  /// At `recover_at` the recovery protocol regenerates the token at writer 0;
  /// `kNeverCycle` means it is never recovered (deadlock — watchdog fodder).
  /// Token-ring media only. The caller must post a wake (campaign does).
  void lose_token(Cycle now, Cycle recover_at);
  bool token_lost() const { return token_loss_pending_; }

  // ---- online adaptation hooks (adapt/controller.hpp) -----------------------
  /// Overrides the armed protocol's static `ber` for this medium's
  /// corruption draws with a live, thermally-driven value; timing parameters
  /// still come from the protocol. Negative restores the static point.
  void set_live_ber(double ber) { live_ber_ = ber; }
  double live_ber() const { return live_ber_; }

  /// Changes the serialization constraint for future launches (rate
  /// backoff). The active transmission keeps its already-reserved slots.
  void set_cycles_per_flit(int cycles_per_flit);

 private:
  // Writers stage packets per VC class. This is load-bearing for deadlock
  // freedom: in OWN, pre-wireless (class 0) and post-wireless (class 1)
  // packets share photonic writer ports, and a single shared staging buffer
  // would let a blocked class-0 packet stall class-1 behind it, closing a
  // class-0 -> wireless -> class-1 -> class-0 dependency cycle.
  struct ClassStaging {
    RingBuffer<Flit> staging;     // a view of the medium's flit_slab_
    std::vector<Flit> staged_in;  // becomes visible to the medium at commit
    int staged_count = 0;         // staging.size() + staged_in.size()
    int reader = 0;               // reader of the lane's packet: select_reader
                                  // of its head, cached at accept
    bool packet_open = false;     // a packet has been VCA'd and not yet fully
                                  // accepted (head..tail) on this class;
                                  // cleared only by the tail's accept
                                  // (endpoints.hpp parking contract)
  };

  struct Writer final : OutputEndpoint {
    VcId alloc_vc(int vc_class, Cycle now) override;
    bool can_accept(const Flit& flit, Cycle now) const override;
    void accept(const Flit& flit, Cycle now) override;
    void wake_when_ready(Waiter waiter, Cycle now) override;

    SharedMedium* medium = nullptr;
    int index = 0;
    std::vector<ClassStaging> per_class;
    int rr_class = 0;  ///< round-robin among classes with pending heads
    /// Sender refused by a full/undrained lane; woken at now+1 by the eval
    /// that pops this writer's staging (endpoints.hpp wake contract).
    Waiter waiter;
  };

  struct Reader final : InputEndpoint {
    const Flit* poll(Cycle now) override;
    void pop(Cycle now) override;
    void push_credit(VcId vc, Cycle now) override;

    SharedMedium* medium = nullptr;
    int index = 0;
    struct Timed {
      Flit flit;
      Cycle arrival;
    };
    std::deque<Timed> delivery;
    struct TimedCredit {
      VcId vc;
      Cycle arrival;
    };
    std::deque<TimedCredit> credit_pipe;
    std::vector<TimedCredit> staged_credits;
    std::vector<int> credits;      // per VC
    std::vector<bool> vc_busy;     // per VC, owned by the medium
    Clocked* sink = nullptr;       // woken at delivery arrivals
  };

  /// The lane and reader VC a start of writer `w` would take now: its
  /// per-class stagings round-robin from rr_class, each staged head trying
  /// its reader's VCs in the class round-robin. None when no staged head can
  /// start. try_start applies this choice and plan_sleep only tests for it,
  /// so the two always agree on whether a writer can start.
  struct StartChoice {
    int cls;
    VcId vc;
  };
  std::optional<StartChoice> choose_start(int w) const;
  /// Starts transmitting writer `w`'s staged head packet on choose_start's
  /// choice; false (and no change) when there is none.
  bool try_start(int w, Cycle now);
  /// Reconstructs the token and its counters over the cycles after
  /// last_eval_ up to `through` (see eval step 0).
  void catch_up(Cycle through);
  /// Decides, at the end of an eval, whether the evals until a known event
  /// would be no-ops but for the token and its counters, and if so sleeps
  /// until that event (DESIGN.md §5e "Shared media sleep").
  void plan_sleep(Cycle now);

  Params params_;
  const std::vector<VcClassRange>* classes_;
  /// Storage of every writer lane's staging ring, max_packet_flits flits per
  /// (writer, class) — one allocation per medium instead of one per lane.
  RingSlab<Flit> flit_slab_;
  std::vector<Writer> writers_;
  std::vector<Reader> readers_;
  std::vector<int> rr_vc_next_;  // per-class RR pointer for reader VC choice

  int token_ = 0;
  Cycle last_eval_ = -1;  ///< last cycle evaluated or caught up (catch_up)
  bool active_ = false;
  int active_writer_ = 0;
  int active_class_ = 0;
  int active_reader_ = 0;
  VcId active_vc_ = kInvalidId;
  Cycle next_tx_slot_ = 0;

  // Dirty lists so eval/commit cost scales with activity, not endpoint count
  // (an OptXB-1024 waveguide has 255 writers; scanning them per cycle would
  // dominate runtime). Under the parallel kernel routers from different
  // partitions push into them concurrently during wave 1, hence the mutex;
  // the commit-time merge is membership-order-independent (each endpoint
  // appears at most once per cycle, and the merge folds per-endpoint state),
  // so results stay bit-identical for any arrival order.
  mutable Mutex dirty_mu_;
  std::vector<int> dirty_writers_ OWNSIM_GUARDED_BY(dirty_mu_);
  std::vector<int> dirty_readers_ OWNSIM_GUARDED_BY(dirty_mu_);
  int nonempty_stagings_ = 0;  ///< lanes with flits staged (token-wait stat)
  /// Writers with at least one non-empty lane staging: the only writers
  /// arbitration can grant, walked from the token instead of every writer.
  SlotSet staged_writers_;

  // Sleep state (plan_sleep). Under lockstep these are computed but unused.
  bool asleep_ = false;          ///< idle until a wake or (below) a merge
  bool wake_on_merge_ = false;   ///< a new head or a credit ends the sleep
  bool staged_at_eval_ = false;  ///< nonempty_stagings_ > 0 after last eval
  std::int64_t evals_ = 0;

  // Fault-model state (null protocol = healthy medium, zero overhead).
  const fault::Protocol* fault_ = nullptr;
  Rng fault_rng_{};
  double live_ber_ = -1.0;  ///< < 0: use the protocol's static ber
  bool token_loss_pending_ = false;
  Cycle token_lost_until_ = kNeverCycle;

  MediumCounters counters_;
  obs::Counter obs_packets_;
  obs::Counter obs_flits_;
  obs::Counter obs_token_wait_;
  obs::Counter obs_arb_retries_;
  obs::Counter obs_discards_;
  obs::Counter obs_crc_errors_;
  obs::Counter obs_retransmissions_;
  obs::Counter obs_token_recoveries_;

  // Trace state (observational only).
  obs::TraceWriter* trace_ = nullptr;
  int trace_tid_ = 0;
  Cycle active_start_ = 0;  ///< grant cycle of the active transmission
};

}  // namespace ownsim
