// The NIC visits only ports with work (DESIGN.md §5e): an inject-ready set
// (queued and not waiting on its injection channel) and an eject-pending set
// (the ejection channel latched a flit), walked in ascending port order. The
// records, packet ids and injection cycles must equal those of a NIC that
// scans every port every cycle, under both the activity and lockstep kernels:
// several ejections in one cycle and inject ports parked on credits.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <tuple>
#include <type_traits>
#include <vector>

#include "network/channel.hpp"
#include "network/nic.hpp"
#include "sim/engine.hpp"

namespace ownsim {
namespace {

constexpr int kPorts = 9;

/// The NIC's port loop before ready sets: every port, every cycle.
struct FullScanNic final : Clocked {
  struct Port {
    OutputEndpoint* inject = nullptr;
    InputEndpoint* eject = nullptr;
    std::deque<Flit> queue;
    VcId open_vc = kInvalidId;
  };
  std::vector<Port> ports = std::vector<Port>(kPorts);
  std::vector<PacketRecord> records_;
  PacketId next_packet = 0;

  const std::vector<PacketRecord>& records() const { return records_; }

  PacketId enqueue(NodeId src, NodeId dst, int size, Cycle now) {
    const PacketId id = next_packet++;
    for (int s = 0; s < size; ++s) {
      Flit flit;
      flit.packet = id;
      flit.src = src;
      flit.dst = dst;
      flit.head = s == 0;
      flit.tail = s == size - 1;
      flit.seq = static_cast<std::int16_t>(s);
      flit.packet_size = static_cast<std::int16_t>(size);
      flit.created = now;
      ports[static_cast<std::size_t>(src)].queue.push_back(flit);
    }
    return id;
  }

  void eval(Cycle now) override {
    for (auto& port : ports) {
      if (!port.queue.empty()) {
        Flit& flit = port.queue.front();
        if (flit.head && port.open_vc == kInvalidId) {
          port.open_vc = port.inject->alloc_vc(flit.vc_class, now);
        }
        if (port.open_vc != kInvalidId) {
          flit.vc = port.open_vc;
          if (port.inject->can_accept(flit, now)) {
            if (flit.head) {
              for (std::size_t k = 0; k < port.queue.size() &&
                                      port.queue[k].packet == flit.packet;
                   ++k) {
                port.queue[k].injected = now;
              }
            }
            const bool tail = flit.tail;
            port.inject->accept(flit, now);
            port.queue.pop_front();
            if (tail) port.open_vc = kInvalidId;
          }
        }
      }
      const Flit* flit = port.eject->poll(now);
      if (flit == nullptr) continue;
      if (flit->tail) {
        PacketRecord rec;
        rec.packet = flit->packet;
        rec.src = flit->src;
        rec.dst = flit->dst;
        rec.created = flit->created;
        rec.injected = flit->injected;
        rec.ejected = now;
        rec.size_flits = flit->packet_size;
        records_.push_back(rec);
      }
      const VcId vc = flit->vc;
      port.eject->pop(now);
      port.eject->push_credit(vc, now);
    }
  }
  void commit(Cycle) override {}
};

using Arrival = std::tuple<Cycle, int, PacketId, int, Cycle>;

/// Plays the routers: drains each injection channel but returns a credit
/// only every `credit_gap` cycles per port (so injection parks on credits),
/// and launches scripted packets into the ejection channels — several ports
/// in the same cycle.
struct Routers final : Clocked {
  std::vector<InputEndpoint*> inject_in;
  std::vector<OutputEndpoint*> eject_out;
  std::vector<std::deque<Flit>> to_eject = std::vector<std::deque<Flit>>(kPorts);
  std::vector<VcId> eject_vc = std::vector<VcId>(kPorts, kInvalidId);
  std::vector<std::deque<VcId>> held = std::vector<std::deque<VcId>>(kPorts);
  std::vector<Arrival> arrivals;  ///< (cycle, port, packet, seq, injected)
  Cycle credit_gap = 3;

  void eval(Cycle now) override {
    for (int p = 0; p < kPorts; ++p) {
      const auto i = static_cast<std::size_t>(p);
      if (const Flit* flit = inject_in[i]->poll(now)) {
        arrivals.emplace_back(now, p, flit->packet, flit->seq,
                              flit->injected);
        held[i].push_back(flit->vc);
        inject_in[i]->pop(now);
      }
      if (!held[i].empty() && now % credit_gap == p % credit_gap) {
        inject_in[i]->push_credit(held[i].front(), now);
        held[i].pop_front();
      }
      auto& queue = to_eject[i];
      if (queue.empty() || queue.front().created > now) continue;
      Flit flit = queue.front();
      if (flit.head) eject_vc[i] = eject_out[i]->alloc_vc(0, now);
      if (eject_vc[i] == kInvalidId) continue;
      flit.vc = eject_vc[i];
      if (!eject_out[i]->can_accept(flit, now)) continue;
      eject_out[i]->accept(flit, now);
      queue.pop_front();
    }
  }
  void commit(Cycle) override {}
};

struct Outcome {
  std::vector<std::tuple<PacketId, NodeId, NodeId, Cycle, Cycle, Cycle>>
      records;
  std::vector<Arrival> arrivals;
};

/// Packets ejected at `port`: two-flit packets from `first`, one launched
/// every `every` cycles.
void script_ejections(Routers& routers, int port, Cycle first, Cycle every) {
  for (int k = 0; k < 6; ++k) {
    for (int s = 0; s < 2; ++s) {
      Flit flit;
      flit.packet = 1000 + port * 10 + k;
      flit.src = (port + 4) % kPorts;
      flit.dst = port;
      flit.head = s == 0;
      flit.tail = s == 1;
      flit.packet_size = 2;
      flit.created = first + every * k;
      routers.to_eject[static_cast<std::size_t>(port)].push_back(flit);
    }
  }
}

/// Runs the scenario through `NicT` (Nic or FullScanNic) under `mode`.
template <typename NicT, typename Enqueue>
Outcome run(KernelMode mode, NicT& nic, Enqueue enqueue) {
  const std::vector<VcClassRange> classes = {{0, 2}};
  std::vector<std::unique_ptr<Channel>> channels;
  Routers routers;
  Engine engine;
  engine.set_mode(mode);
  engine.add(&nic);
  engine.add(&routers);
  for (int p = 0; p < kPorts; ++p) {
    auto inject = std::make_unique<Channel>(MediumType::kElectrical, 1, 1, 2,
                                            2, Length{}, &classes, "inj");
    auto eject = std::make_unique<Channel>(MediumType::kElectrical, 1, 1, 2,
                                           4, Length{}, &classes, "ej");
    routers.inject_in.push_back(inject->in());
    routers.eject_out.push_back(eject->out());
    if constexpr (std::is_same_v<NicT, Nic>) {
      nic.connect(p, inject->out(), eject->in());
      eject->set_sink(&nic, p);
    } else {
      nic.ports[static_cast<std::size_t>(p)].inject = inject->out();
      nic.ports[static_cast<std::size_t>(p)].eject = eject->in();
    }
    engine.add(inject.get());
    engine.add(eject.get());
    channels.push_back(std::move(inject));
    channels.push_back(std::move(eject));
  }
  // Ports 2, 3, 5 and 8 eject in the same cycles; port 6 interleaves.
  for (const int p : {2, 3, 5, 8}) script_ejections(routers, p, 4, 5);
  script_ejections(routers, 6, 7, 3);
  // Injection backlog on every port (4-flit packets against two credits).
  for (int p = 0; p < kPorts; ++p) {
    for (int k = 0; k < 3; ++k) enqueue((p * 5) % kPorts, p, 4, Cycle{0});
  }
  engine.run(200);
  Outcome out;
  for (const PacketRecord& r : nic.records()) {
    out.records.emplace_back(r.packet, r.src, r.dst, r.created, r.injected,
                             r.ejected);
  }
  out.arrivals = routers.arrivals;
  return out;
}

TEST(NicPorts, ReadySetsMatchAFullScan) {
  for (const KernelMode mode : {KernelMode::kActivity, KernelMode::kLockstep}) {
    SCOPED_TRACE(static_cast<int>(mode));
    Nic nic(kPorts);
    const Outcome sets = run(mode, nic, [&nic](NodeId src, NodeId dst,
                                               int size, Cycle now) {
      nic.enqueue_packet(src, dst, 0, size, 128, 0, now, true);
    });
    FullScanNic scan;
    const Outcome reference =
        run(mode, scan, [&scan](NodeId src, NodeId dst, int size, Cycle now) {
          scan.enqueue(src, dst, size, now);
        });
    ASSERT_EQ(reference.records.size(), 30u);  // 5 ports x 6 packets
    ASSERT_EQ(reference.arrivals.size(), 9u * 3 * 4);  // every flit
    EXPECT_EQ(sets.records, reference.records);
    EXPECT_EQ(sets.arrivals, reference.arrivals);
    // Parked ports and idle ports cost no visits: far fewer than a scan.
    EXPECT_LT(nic.port_visits(), 200 * kPorts / 2);
  }
}

}  // namespace
}  // namespace ownsim
