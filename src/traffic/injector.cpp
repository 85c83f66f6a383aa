#include "traffic/injector.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace ownsim {

Injector::Injector(Network* network, TrafficPattern pattern, Params params)
    : network_(network), pattern_(pattern), params_(params) {
  if (network_ == nullptr) throw std::invalid_argument("Injector: null network");
  if (params_.rate < 0.0 || params_.packet_flits < 1) {
    throw std::invalid_argument("Injector: bad rate/packet size");
  }
  if (pattern_.num_nodes() != network_->spec().num_nodes) {
    throw std::invalid_argument("Injector: pattern/network size mismatch");
  }
  rngs_.reserve(static_cast<std::size_t>(network_->spec().num_nodes));
  for (NodeId n = 0; n < network_->spec().num_nodes; ++n) {
    rngs_.emplace_back(params_.master_seed, static_cast<std::uint64_t>(n));
  }
  lookahead_.resize(static_cast<std::size_t>(network_->spec().num_nodes));
  obs::Registry& registry = network_->obs();
  obs_packets_offered_ = registry.counter("injector.packets_offered");
  obs_flits_offered_ = registry.counter("injector.flits_offered");
}

void Injector::advance(NodeLookahead& node, Rng& rng, double p) {
  // One draw per cycle, in cycle order — the exact draws the per-cycle
  // Bernoulli loop would have made on this node's private stream.
  const Cycle limit = node.drawn_until + kLookaheadCycles;
  for (Cycle c = node.drawn_until; c < limit; ++c) {
    if (rng.chance(p)) {
      node.next_fire = c;
      node.drawn_until = c + 1;
      return;
    }
  }
  node.next_fire = kNeverCycle;
  node.drawn_until = limit;
}

void Injector::eval(Cycle now) {
  if (!enabled_) return;
  const double p = params_.rate / params_.packet_flits;
  const bool measured = now >= measure_begin_ && now < measure_end_;
  const bool multipath = network_->spec().has_alt_routing();
  if (!armed_) {
    // Every node starts drawing at `now`, so every node is due.
    armed_ = true;
    for (NodeId src = 0; src < network_->spec().num_nodes; ++src) {
      lookahead_[static_cast<std::size_t>(src)] = {kNeverCycle, now};
      due_.push_back(src);
    }
  }
  // Only nodes whose next event is due can change state this cycle. They run
  // in ascending node order, so NIC enqueue order and packet ids are those
  // of a per-cycle visit of every node.
  while (!calendar_.empty() && calendar_.front().first <= now) {
    std::pop_heap(calendar_.begin(), calendar_.end(),
                  std::greater<CalendarEntry>{});
    due_.push_back(calendar_.back().second);
    calendar_.pop_back();
  }
  std::sort(due_.begin(), due_.end());
  for (const NodeId src : due_) run_node(src, now, p, measured, multipath);
  due_.clear();
  if (!calendar_.empty()) request_wake(calendar_.front().first);
}

void Injector::run_node(NodeId src, Cycle now, double p, bool measured,
                        bool multipath) {
  auto& node = lookahead_[static_cast<std::size_t>(src)];
  Rng& rng = rngs_[static_cast<std::size_t>(src)];
  if (node.next_fire != kNeverCycle && node.next_fire < now) {
    // Fire missed while disabled: restart this node's process at `now`
    // (see header — the paused stream position is not rewound).
    node.next_fire = kNeverCycle;
    node.drawn_until = now;
  }
  while (node.next_fire == kNeverCycle && node.drawn_until <= now) {
    advance(node, rng, p);
  }
  if (node.next_fire == now) {
    const NodeId dst = pattern_.dest(src, rng);
    // O1TURN-style topologies balance load by flipping a fair coin between
    // the two routing functions per packet.
    const bool use_alt = multipath && rng.chance(0.5);
    network_->nic().enqueue_packet(
        src, dst, network_->router_of(dst), params_.packet_flits,
        params_.flit_bits, network_->injection_vc_class(src, dst, use_alt),
        now, measured);
    ++packets_offered_;
    if (measured) ++measured_offered_;
    obs_packets_offered_.inc();
    obs_flits_offered_.add(params_.packet_flits);
    // The gap draws for now+1.. resume only after the fire's dest/alt
    // draws, preserving the per-node stream order.
    node.next_fire = kNeverCycle;
    node.drawn_until = now + 1;
    advance(node, rng, p);
  }
  // The node's next event: its pre-drawn fire, or where drawing resumes. One
  // left at or before `now` (after a pause, drawing can resume in the past)
  // is not re-run this eval; the wake clamps it to the next cycle.
  calendar_.emplace_back(
      node.next_fire != kNeverCycle ? node.next_fire : node.drawn_until, src);
  std::push_heap(calendar_.begin(), calendar_.end(),
                 std::greater<CalendarEntry>{});
}

}  // namespace ownsim
