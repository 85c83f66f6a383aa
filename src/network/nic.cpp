#include "network/nic.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace ownsim {

Nic::PortSet::PortSet(int size)
    : size_(std::max(0, size)),
      num_words_((size_ + 63) / 64),
      words_(std::make_unique<std::atomic<std::uint64_t>[]>(
          static_cast<std::size_t>(num_words_))) {}

bool Nic::PortSet::empty() const {
  for (int w = 0; w < num_words_; ++w) {
    if (words_[static_cast<std::size_t>(w)].load(std::memory_order_relaxed) !=
        0) {
      return false;
    }
  }
  return true;
}

int Nic::PortSet::next(int from) const {
  if (from >= size_) return size_;
  int w = from >> 6;
  std::uint64_t bits =
      words_[static_cast<std::size_t>(w)].load(std::memory_order_relaxed) &
      (~std::uint64_t{0} << (from & 63));
  while (bits == 0) {
    if (++w == num_words_) return size_;
    bits = words_[static_cast<std::size_t>(w)].load(std::memory_order_relaxed);
  }
  return std::min(size_, w * 64 + std::countr_zero(bits));
}

Nic::Nic(int num_nodes) : inject_ready_(num_nodes), eject_pending_(num_nodes) {
  if (num_nodes < 1) throw std::invalid_argument("Nic: num_nodes must be >= 1");
  ports_.resize(static_cast<std::size_t>(num_nodes));
}

void Nic::connect(NodeId node, OutputEndpoint* inject, InputEndpoint* eject) {
  auto& port = ports_.at(static_cast<std::size_t>(node));
  if (port.inject != nullptr || port.eject != nullptr) {
    throw std::logic_error("Nic: node double-wired");
  }
  port.inject = inject;
  port.eject = eject;
}

PacketId Nic::enqueue_packet(NodeId src, NodeId dst, RouterId dst_router,
                             int size_flits, std::uint32_t flit_bits,
                             int vc_class, Cycle now, bool measured) {
  assert(size_flits >= 1);
  auto& port = ports_.at(static_cast<std::size_t>(src));
  if (port.queue.empty()) inject_ready_.insert(src);
  const PacketId id = next_packet_++;
  for (int s = 0; s < size_flits; ++s) {
    Flit flit;
    flit.packet = id;
    flit.src = src;
    flit.dst = dst;
    flit.dst_router = dst_router;
    flit.head = (s == 0);
    flit.tail = (s == size_flits - 1);
    flit.seq = static_cast<std::int16_t>(s);
    flit.packet_size = static_cast<std::int16_t>(size_flits);
    flit.vc_class = static_cast<std::int8_t>(vc_class);
    flit.created = now;
    flit.measured = measured;
    flit.size_bits = flit_bits;
    port.queue.push_back(flit);
  }
  queued_flits_ += size_flits;
  ++packets_created_;
  // Callers enqueue either mid-eval (the injector) — where the NIC's eval
  // slot for `now` has already passed, so the engine clamps the wake to
  // now+1 (matching lockstep: the NIC is registered before every traffic
  // source) — or between steps, where cycle `now` is still upcoming and the
  // wake lands on it.
  request_wake(now);
  return id;
}

void Nic::output_ready(int port, Cycle at) {
  inject_ready_.insert(port);
  request_wake(at);
}

void Nic::eval(Cycle now) {
  // Visit the union of both sets in ascending port order, injecting then
  // ejecting per port, exactly as a scan over every port would act. Members
  // are read live, so a port marked ahead of the walk is still visited this
  // cycle.
  const int n = static_cast<int>(ports_.size());
  const auto next = [&](int from) {
    return std::min(inject_ready_.next(from), eject_pending_.next(from));
  };
  for (int p = next(0); p < n; p = next(p + 1)) {
    ++port_visits_;
    if (inject_ready_.contains(p)) inject(p, now);
    if (eject_pending_.contains(p)) eject(p, now);
  }
}

void Nic::inject(int p, Cycle now) {
  // At most one flit per node per cycle.
  Port& port = ports_[static_cast<std::size_t>(p)];
  if (port.inject == nullptr) {
    inject_ready_.erase(p);  // unwired node: its queue never drains
    return;
  }
  Flit& flit = port.queue.front();
  if (flit.head && port.open_vc == kInvalidId) {
    port.open_vc = port.inject->alloc_vc(flit.vc_class, now);
  }
  if (port.open_vc == kInvalidId) return;  // retried next cycle
  flit.vc = port.open_vc;
  if (!port.inject->can_accept(flit, now)) {
    // Every eval until the channel could accept again would be refused:
    // leave the set until it names this port (output_ready).
    inject_ready_.erase(p);
    port.inject->wake_when_ready(Waiter(this, p), now);
    return;
  }
  if (flit.head) {
    // Stamp the whole packet (its flits are contiguous at the queue front)
    // so the tail flit carries the injection time to ejection.
    for (std::size_t k = 0;
         k < port.queue.size() && port.queue[k].packet == flit.packet; ++k) {
      port.queue[k].injected = now;
    }
  }
  const bool tail = flit.tail;
  port.inject->accept(flit, now);
  port.queue.pop_front();
  --queued_flits_;
  ++flits_injected_;
  if (tail) port.open_vc = kInvalidId;
  if (port.queue.empty()) inject_ready_.erase(p);
}

void Nic::eject(int p, Cycle now) {
  // At most one flit per node per cycle.
  Port& port = ports_[static_cast<std::size_t>(p)];
  const Flit* flit = port.eject->poll(now);
  if (flit == nullptr) return;  // latched but not due yet: stays pending
  eject_pending_.erase(p);  // before pop, which re-marks a non-empty pipe
  ++flits_ejected_;
  if (flit->tail) {
    PacketRecord rec;
    rec.packet = flit->packet;
    rec.src = flit->src;
    rec.dst = flit->dst;
    rec.created = flit->created;
    rec.injected = flit->injected;
    rec.ejected = now;
    rec.hops = flit->hops;
    rec.size_flits = flit->packet_size;
    rec.measured = flit->measured;
    records_.push_back(rec);
    ++packets_ejected_;
    if (rec.measured) ++measured_ejected_;
  }
  const VcId vc = flit->vc;
  port.eject->pop(now);
  port.eject->push_credit(vc, now);
}

}  // namespace ownsim
