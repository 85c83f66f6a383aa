// Network interface controller.
//
// One `Nic` instance serves every core: it owns per-node source queues,
// injects flits through each node's injection channel (respecting VC
// allocation and credits, exactly like a router output), and drains each
// node's ejection channel, assembling `PacketRecord`s when tail flits land.
//
// Source queues are unbounded so that offered load beyond saturation is
// measurable (accepted throughput flattens while queues grow) — the standard
// open-loop methodology for latency/throughput curves (Fig 7b,c).
//
// An eval visits only the ports with work, kept in two ready sets: ports
// whose queue can inject (non-empty and not waiting on its injection
// channel) and ports whose ejection channel latched a flit (DESIGN.md §5e).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "network/endpoints.hpp"
#include "network/flit.hpp"
#include "sim/clocked.hpp"

namespace ownsim {

class Nic final : public PortListener {
 public:
  explicit Nic(int num_nodes);

  /// Wiring (once per node, before the first cycle).
  void connect(NodeId node, OutputEndpoint* inject, InputEndpoint* eject);

  /// Queues a `size_flits`-flit packet for injection. `vc_class` is the
  /// deadlock class of the packet's first hop out of the source router.
  /// Returns the packet's id (unique per simulation).
  PacketId enqueue_packet(NodeId src, NodeId dst, RouterId dst_router,
                          int size_flits, std::uint32_t flit_bits,
                          int vc_class, Cycle now, bool measured);

  void eval(Cycle now) override;
  void commit(Cycle /*now*/) override {}

  /// Dormant when no port can inject and no ejection is pending. A queued
  /// port missing from the inject set waits on its injection channel, which
  /// wakes it (output_ready); ejections are announced by the eject channels'
  /// sink wakes; `enqueue_packet` posts a self-wake.
  bool is_idle() const override {
    return inject_ready_.empty() && eject_pending_.empty();
  }

  void output_ready(int port, Cycle at) override;
  void input_pending(int port) override { eject_pending_.insert(port); }

  /// Packets fully ejected so far (records kept in ejection order).
  const std::vector<PacketRecord>& records() const { return records_; }
  /// Drops accumulated records (e.g. after warmup).
  void clear_records() { records_.clear(); }

  /// Flits waiting in source queues (offered-but-not-injected backlog).
  std::int64_t queued_flits() const { return queued_flits_; }
  /// Packets created / injected / ejected since construction.
  std::int64_t packets_created() const { return packets_created_; }
  std::int64_t packets_ejected() const { return packets_ejected_; }
  /// Measured packets fully ejected (drain detection for the runner).
  std::int64_t measured_ejected() const { return measured_ejected_; }
  std::int64_t flits_injected() const { return flits_injected_; }
  std::int64_t flits_ejected() const { return flits_ejected_; }
  /// Packets in flight (created but not fully ejected).
  std::int64_t packets_in_flight() const {
    return packets_created_ - packets_ejected_;
  }
  /// Ports visited by evals so far (a work counter for benchmarks).
  std::int64_t port_visits() const { return port_visits_; }

 private:
  struct Port {
    OutputEndpoint* inject = nullptr;
    InputEndpoint* eject = nullptr;
    std::deque<Flit> queue;
    VcId open_vc = kInvalidId;  ///< VC of the packet currently injecting
  };

  /// Port bitset with atomic words. Other partitions' threads mark ports
  /// concurrently with each other (wave-2 credit wakes, commit-time eject
  /// marks), never with the NIC's eval, so relaxed atomics suffice.
  class PortSet {
   public:
    explicit PortSet(int size);
    void insert(int port) {
      word(port).fetch_or(bit(port), std::memory_order_relaxed);
    }
    void erase(int port) {
      word(port).fetch_and(~bit(port), std::memory_order_relaxed);
    }
    bool contains(int port) const {
      return (word(port).load(std::memory_order_relaxed) & bit(port)) != 0;
    }
    bool empty() const;
    /// Smallest member of [from, size), or size.
    int next(int from) const;

   private:
    static std::uint64_t bit(int port) {
      return std::uint64_t{1} << (port & 63);
    }
    std::atomic<std::uint64_t>& word(int port) const {
      return words_[static_cast<std::size_t>(port >> 6)];
    }
    int size_;
    int num_words_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> words_;
  };

  void inject(int p, Cycle now);
  void eject(int p, Cycle now);

  std::vector<Port> ports_;
  PortSet inject_ready_;   ///< non-empty queue, not waiting on its channel
  PortSet eject_pending_;  ///< eject channel latched a flit
  std::vector<PacketRecord> records_;
  PacketId next_packet_ = 0;
  std::int64_t queued_flits_ = 0;
  std::int64_t packets_created_ = 0;
  std::int64_t packets_ejected_ = 0;
  std::int64_t measured_ejected_ = 0;
  std::int64_t flits_injected_ = 0;
  std::int64_t flits_ejected_ = 0;
  std::int64_t port_visits_ = 0;
};

}  // namespace ownsim
