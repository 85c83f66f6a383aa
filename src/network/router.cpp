#include "network/router.hpp"

#include <cassert>
#include <ostream>
#include <stdexcept>
#include <string>

namespace ownsim {

Router::Router(Params params, const RoutingOracle* oracle)
    : params_(params),
      oracle_(oracle),
      idle_head_(num_slots()),
      routing_(num_slots()),
      vca_(num_slots()),
      parked_(num_slots()),
      active_(num_slots()),
      blocked_(params.num_outputs * params.num_vcs),
      waited_outputs_(params.num_outputs) {
  if (params_.num_inputs < 1 || params_.num_outputs < 1) {
    throw std::invalid_argument("Router: needs >=1 input and output port");
  }
  if (oracle_ == nullptr) {
    throw std::invalid_argument("Router: oracle must not be null");
  }
  const auto depth =
      static_cast<std::size_t>(std::max(1, params_.buffer_depth));
  flit_slab_ = RingSlab<Flit>(static_cast<std::size_t>(num_slots()) * depth);
  inputs_.resize(static_cast<std::size_t>(params_.num_inputs));
  for (int i = 0; i < params_.num_inputs; ++i) {
    auto& vcs = inputs_[static_cast<std::size_t>(i)].vcs;
    vcs.resize(static_cast<std::size_t>(params_.num_vcs));
    for (int v = 0; v < params_.num_vcs; ++v) {
      vcs[static_cast<std::size_t>(v)].buffer = RingBuffer<Flit>(
          flit_slab_.slots() + static_cast<std::size_t>(slot(i, v)) * depth,
          depth);
    }
  }
  outputs_.resize(static_cast<std::size_t>(params_.num_outputs));
  sa_request_.assign(inputs_.size(), -1);
  sa_winners_.reserve(inputs_.size());
  grant_key_.assign(outputs_.size(), -1);
  grant_input_.assign(outputs_.size(), -1);
  granted_outputs_.reserve(outputs_.size());
}

void Router::bind_obs(obs::Registry& registry) {
  const std::string prefix = "router." + std::to_string(params_.id) + ".";
  obs_flits_forwarded_ = registry.counter(prefix + "flits_forwarded");
  obs_sa_retries_ = registry.counter(prefix + "sa_retries");
  obs_buffer_highwater_ = registry.gauge(prefix + "buffer_highwater");
}

void Router::connect_input(PortId port, InputEndpoint* endpoint) {
  auto& slot = inputs_.at(static_cast<std::size_t>(port)).endpoint;
  if (slot != nullptr) throw std::logic_error("Router: input port double-wired");
  slot = endpoint;
}

void Router::connect_output(PortId port, OutputEndpoint* endpoint) {
  auto& slot = outputs_.at(static_cast<std::size_t>(port)).endpoint;
  if (slot != nullptr) throw std::logic_error("Router: output port double-wired");
  slot = endpoint;
}

void Router::eval(Cycle now) {
  // Activity kernel: the lockstep loop rotates vca_rr_ by num_vcs every
  // cycle unconditionally. Cycles skipped while dormant are caught up in
  // closed form so VCA arbitration stays bit-identical to lockstep. Gated on
  // scheduled(): manually driven routers (unit tests) keep per-call
  // semantics, and under a lockstep engine the gap is always zero.
  if (scheduled()) {
    const Cycle gap = now - last_eval_ - 1;
    if (gap > 0) {
      const Cycle advance =
          (vca_rr_ + static_cast<Cycle>(params_.num_vcs) * gap) %
          std::max(1, num_slots());
      vca_rr_ = static_cast<int>(advance);
    }
    last_eval_ = now;
  }
  // Order implements pipelining: SA consumes last cycle's VCA grants, VCA
  // consumes last cycle's RC results, and so on. Intake runs first so an
  // arriving head is detected the same cycle and enters RC the next.
  const bool took = stage_intake(now);
  const bool nominated = stage_switch(now);
  const bool granted = stage_vca(now);
  stage_rc();
  stage_detect();
  // Stalled: nothing moved and no VC waits for RC or VCA next cycle (detect
  // always empties idle_head_). The next eval would only rotate vca_rr_, so
  // the router sleeps until an arrival or a refusing output wakes it.
  const int total = num_slots();
  stalled_ = !took && !nominated && !granted &&
             routing_.next(0, total) == total && vca_.next(0, total) == total;
  if (stalled_) wait_for_outputs(now);
}

void Router::wait_for_outputs(Cycle now) {
  const int total = num_slots();
  for (int s = active_.next(0, total); s < total;
       s = active_.next(s + 1, total)) {
    const PortId o = slot_vc(s).route.out_port;
    if (waited_outputs_.contains(o)) continue;
    waited_outputs_.insert(o);
    auto* out = outputs_[static_cast<std::size_t>(o)].endpoint;
    if (out != nullptr) out->wake_when_ready(this, now);
  }
  waited_outputs_.erase_range(0, params_.num_outputs);
}

bool Router::stage_intake(Cycle now) {
  bool took = false;
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    auto& port = inputs_[i];
    if (port.endpoint == nullptr) continue;
    const Flit* flit = port.endpoint->poll(now);
    if (flit == nullptr) continue;
    auto& vc = port.vcs.at(static_cast<std::size_t>(flit->vc));
    const int s = slot(static_cast<int>(i), flit->vc);
    assert(!vc.buffer.full() && "credit protocol violated");
    vc.buffer.push(*flit);
    port.endpoint->pop(now);
    if (vc.state == VcState::kIdle) {
      idle_head_.insert(s);
    } else if (vc.state == VcState::kActive) {
      active_.insert(s);
    }
    ++occupancy_;
    ++counters_.buffer_writes;
    obs_buffer_highwater_.observe_max(occupancy_);
    took = true;
  }
  return took;
}

bool Router::stage_switch(Cycle now) {
  // SA stage 1: each input port with a sendable ACTIVE VC nominates the
  // first one, in round-robin order from its rr_vc, that its output accepts.
  const int nvc = params_.num_vcs;
  const int n_in = params_.num_inputs;
  const int total = num_slots();
  sa_winners_.clear();
  for (int s = active_.next(0, total); s < total;) {
    const int i = s / nvc;
    const int lo = i * nvc;
    auto& port = inputs_[static_cast<std::size_t>(i)];
    active_.for_each_from(lo, lo + nvc, lo + port.rr_vc, [&](int t) {
      const auto& vc = port.vcs[static_cast<std::size_t>(t - lo)];
      Flit flit = vc.buffer.front();
      flit.vc = vc.out_vc;
      auto* out =
          outputs_[static_cast<std::size_t>(vc.route.out_port)].endpoint;
      if (out == nullptr || !out->can_accept(flit, now)) return true;
      sa_request_[static_cast<std::size_t>(i)] = t - lo;
      sa_winners_.push_back(i);
      return false;
    });
    s = active_.next(lo + nvc, total);
  }
  counters_.sa_nominations += static_cast<std::int64_t>(sa_winners_.size());

  // SA stage 2: each contended output grants the requesting input with the
  // smallest round-robin distance from its pointer (equivalent to scanning
  // inputs from rr_input, but O(#requests) instead of O(inputs x outputs)).
  for (int i : sa_winners_) {
    const int v = sa_request_[static_cast<std::size_t>(i)];
    const auto& vc =
        inputs_[static_cast<std::size_t>(i)].vcs[static_cast<std::size_t>(v)];
    const auto o = static_cast<std::size_t>(vc.route.out_port);
    const int key = (i - outputs_[o].rr_input + n_in) % n_in;
    if (grant_key_[o] < 0) granted_outputs_.push_back(static_cast<int>(o));
    if (grant_key_[o] < 0 || key < grant_key_[o]) {
      grant_key_[o] = key;
      grant_input_[o] = i;
    }
  }

  // ST + LT launch for every granted (input, output) pair.
  for (const int o : granted_outputs_) {
    auto& out = outputs_[static_cast<std::size_t>(o)];
    const int i = grant_input_[static_cast<std::size_t>(o)];
    grant_key_[static_cast<std::size_t>(o)] = -1;
    auto& port = inputs_[static_cast<std::size_t>(i)];
    const int v = sa_request_[static_cast<std::size_t>(i)];
    auto& vc = port.vcs[static_cast<std::size_t>(v)];

    Flit flit = vc.buffer.pop();
    --occupancy_;
    const VcId arrived_vc = flit.vc;  // VC on the upstream link (for credit)
    flit.vc = vc.out_vc;
    ++flit.hops;
    out.endpoint->accept(flit, now);
    port.endpoint->push_credit(arrived_vc, now);

    ++counters_.buffer_reads;
    ++counters_.crossbar_flits;
    counters_.crossbar_bits += flit.size_bits;
    ++counters_.switch_allocations;
    obs_flits_forwarded_.inc();

    port.rr_vc = (v + 1) % nvc;
    out.rr_input = (i + 1) % n_in;

    const int s = slot(i, v);
    if (flit.tail || vc.buffer.empty()) active_.erase(s);
    if (flit.tail) {
      vc.state = VcState::kIdle;
      vc.out_vc = kInvalidId;
      if (!vc.buffer.empty()) idle_head_.insert(s);
      // A tail through this port is the only event that can turn a refused
      // alloc_vc into a grant (endpoints.hpp), so its parked classes retry.
      blocked_.erase_range(class_slot(o, 0), class_slot(o + 1, 0));
      for (int p = parked_.next(0, total); p < total;
           p = parked_.next(p + 1, total)) {
        if (slot_vc(p).route.out_port != o) continue;
        parked_.erase(p);
        vca_.insert(p);
      }
    }
  }
  // Inputs that nominated a VC this cycle but lost stage-2 arbitration
  // retry next cycle — the switch-contention signal.
  obs_sa_retries_.add(static_cast<std::int64_t>(sa_winners_.size()) -
                      static_cast<std::int64_t>(granted_outputs_.size()));
  granted_outputs_.clear();
  return !sa_winners_.empty();
}

bool Router::stage_vca(Cycle now) {
  // Separable VCA: walk VCA-state input VCs starting from a rotating offset;
  // each requester asks its output endpoint for a downstream VC of the
  // packet's class. Endpoints grant first-come within a cycle, so the
  // rotation provides fairness across ports. A refused (output, class) is
  // marked in blocked_ — the endpoint contract guarantees it would be
  // refused again until this router launches a tail through that output —
  // and its requesters move to parked_ without calling the endpoint. The
  // tail returns them to vca_; skipping refusals changes no result.
  const int total = num_slots();
  bool granted_any = false;
  vca_.for_each_from(0, total, vca_rr_, [&](int s) {
    InputVc& vc = slot_vc(s);
    const int cls = class_slot(vc.route.out_port, vc.route.vc_class);
    if (!blocked_.contains(cls)) {
      auto* out =
          outputs_[static_cast<std::size_t>(vc.route.out_port)].endpoint;
      if (out == nullptr) return true;
      ++counters_.vca_attempts;
      const VcId granted = out->alloc_vc(vc.route.vc_class, now);
      if (granted != kInvalidId) {
        assert(!vc.buffer.empty());
        vc.out_vc = granted;
        vc.state = VcState::kActive;
        vca_.erase(s);
        active_.insert(s);
        ++counters_.vc_allocations;
        granted_any = true;
        return true;
      }
      blocked_.insert(cls);
    }
    vca_.erase(s);
    parked_.insert(s);
    return true;
  });
  vca_rr_ = (vca_rr_ + params_.num_vcs) % std::max(1, total);
  return granted_any;
}

void Router::stage_rc() {
  const int total = num_slots();
  for (int s = routing_.next(0, total); s < total;
       s = routing_.next(s + 1, total)) {
    InputVc& vc = slot_vc(s);
    assert(!vc.buffer.empty() && vc.buffer.front().head);
    Flit& head = vc.buffer.front();
    vc.route = oracle_->route(params_.id, head);
    assert(vc.route.out_port >= 0 &&
           vc.route.out_port < static_cast<PortId>(outputs_.size()));
    assert(vc.route.vc_class >= 0 && vc.route.vc_class < params_.num_vcs);
    head.vc_class = vc.route.vc_class;
    vc.state = VcState::kVca;
    routing_.erase(s);
    vca_.insert(s);
    ++counters_.route_computations;
  }
}

void Router::dump_state(std::ostream& os) const {
  static const char* kStateNames[] = {"IDLE", "ROUTING", "VCA", "ACTIVE"};
  // Why the router may be asleep: a stalled router waits for an arrival or
  // for a refusing output's wake; parked slots wait for this router's own
  // tail through a blocked (output, class).
  os << "router " << params_.id << " stalled=" << (stalled_ ? 1 : 0)
     << " parked=[";
  const int total = num_slots();
  const char* sep = "";
  for (int s = parked_.next(0, total); s < total;
       s = parked_.next(s + 1, total)) {
    os << sep << "in" << s / params_.num_vcs << ".vc" << s % params_.num_vcs;
    sep = " ";
  }
  os << "] blocked=[";
  sep = "";
  const int classes = params_.num_outputs * params_.num_vcs;
  for (int c = blocked_.next(0, classes); c < classes;
       c = blocked_.next(c + 1, classes)) {
    os << sep << "out" << c / params_.num_vcs << ".cls" << c % params_.num_vcs;
    sep = " ";
  }
  os << "]\n";
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    const auto& port = inputs_[i];
    for (std::size_t v = 0; v < port.vcs.size(); ++v) {
      const auto& vc = port.vcs[v];
      if (vc.state == VcState::kIdle && vc.buffer.empty()) continue;
      os << "router " << params_.id << " in" << i << " vc" << v << " state="
         << kStateNames[static_cast<int>(vc.state)] << " buffered="
         << vc.buffer.size();
      if (!vc.buffer.empty()) {
        const Flit& f = vc.buffer.front();
        os << " front={pkt=" << f.packet << " seq=" << f.seq
           << (f.head ? " H" : "") << (f.tail ? " T" : "") << " src=" << f.src
           << " dst=" << f.dst << " cls=" << static_cast<int>(f.vc_class)
           << "}";
      }
      os << " route.port=" << vc.route.out_port << " out_vc=" << vc.out_vc
         << '\n';
    }
  }
}

void Router::stage_detect() {
  const int total = num_slots();
  for (int s = idle_head_.next(0, total); s < total;
       s = idle_head_.next(s + 1, total)) {
    InputVc& vc = slot_vc(s);
    assert(vc.buffer.front().head && "body flit at idle VC head");
    vc.state = VcState::kRouting;
    idle_head_.erase(s);
    routing_.insert(s);
  }
}

}  // namespace ownsim
