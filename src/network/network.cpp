#include "network/network.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "exec/thread_pool.hpp"
#include "obs/trace.hpp"

namespace ownsim {

RouteEntry Network::SpecOracle::route(RouterId at, const Flit& head) const {
  const Network& net = *network_;
  if (head.dst_router == at) {
    // Ejection: ports for attached nodes follow the network output ports.
    const int base = net.spec_.routers[at].num_net_out;
    const int local = net.local_index_[head.dst];
    return RouteEntry{static_cast<PortId>(base + local), 0};
  }
  // Classful multi-path routing (O1TURN-style): packets travelling in the
  // alternate class set follow the alternate routing function.
  if (net.spec_.has_alt_routing() &&
      head.vc_class >= net.spec_.alt_min_class) {
    return net.spec_.route_table_alt[at][head.dst_router];
  }
  return net.spec_.route_table[at][head.dst_router];
}

Network::Network(NetworkSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
  const int nr = spec_.num_routers();

  // Node attachment bookkeeping.
  attached_.resize(static_cast<std::size_t>(nr));
  local_index_.resize(static_cast<std::size_t>(spec_.num_nodes));
  for (NodeId n = 0; n < spec_.num_nodes; ++n) {
    const RouterId r = spec_.nodes[n].router;
    local_index_[n] = static_cast<int>(attached_[r].size());
    attached_[r].push_back(n);
  }

  // Routers (network ports + one in/out pair per attached node).
  routers_.reserve(static_cast<std::size_t>(nr));
  for (RouterId r = 0; r < nr; ++r) {
    Router::Params params;
    params.id = r;
    params.num_inputs =
        spec_.routers[r].num_net_in + static_cast<int>(attached_[r].size());
    params.num_outputs =
        spec_.routers[r].num_net_out + static_cast<int>(attached_[r].size());
    params.num_vcs = spec_.num_vcs;
    params.buffer_depth = spec_.buffer_depth;
    routers_.push_back(
        std::make_unique<Router>(params, &oracle_));
  }

  // Point-to-point links.
  channels_.reserve(spec_.links.size());
  for (const LinkSpec& link : spec_.links) {
    auto channel = std::make_unique<Channel>(
        link.medium, link.latency, link.cycles_per_flit, spec_.num_vcs,
        spec_.buffer_depth, link.distance, &spec_.vc_classes, link.name);
    routers_[link.src_router]->connect_output(link.src_port, channel->out());
    routers_[link.dst_router]->connect_input(link.dst_port, channel->in());
    channel->set_sink(routers_[link.dst_router].get());
    channels_.push_back(std::move(channel));
  }

  // Shared media.
  media_.reserve(spec_.media.size());
  for (const MediumSpec& ms : spec_.media) {
    SharedMedium::Params params;
    params.medium = ms.medium;
    params.num_writers = static_cast<int>(ms.writers.size());
    params.num_readers = static_cast<int>(ms.readers.size());
    params.latency = ms.latency;
    params.cycles_per_flit = ms.cycles_per_flit;
    params.num_vcs = spec_.num_vcs;
    params.buffer_depth = spec_.buffer_depth;
    params.max_packet_flits = ms.max_packet_flits;
    params.distance = ms.distance;
    params.multicast_rx = ms.multicast_rx;
    params.arbitration = ms.arbitration;
    params.name = ms.name;
    params.select_reader = ms.select_reader;
    auto medium = std::make_unique<SharedMedium>(params, &spec_.vc_classes);
    for (std::size_t w = 0; w < ms.writers.size(); ++w) {
      const auto& [r, p] = ms.writers[w];
      routers_[r]->connect_output(p, medium->writer(static_cast<int>(w)));
    }
    for (std::size_t rd = 0; rd < ms.readers.size(); ++rd) {
      const auto& [r, p] = ms.readers[rd];
      routers_[r]->connect_input(p, medium->reader(static_cast<int>(rd)));
      medium->set_reader_sink(static_cast<int>(rd), routers_[r].get());
    }
    media_.push_back(std::move(medium));
  }

  // NIC and per-node injection/ejection channels.
  nic_ = std::make_unique<Nic>(spec_.num_nodes);
  node_channels_.reserve(2 * static_cast<std::size_t>(spec_.num_nodes));
  for (NodeId n = 0; n < spec_.num_nodes; ++n) {
    const RouterId r = spec_.nodes[n].router;
    const int local = local_index_[n];
    const PortId in_port =
        static_cast<PortId>(spec_.routers[r].num_net_in + local);
    const PortId out_port =
        static_cast<PortId>(spec_.routers[r].num_net_out + local);

    auto inject = std::make_unique<Channel>(
        MediumType::kElectrical, 1, 1, spec_.num_vcs, spec_.buffer_depth,
        Length{}, &spec_.vc_classes, "inj" + std::to_string(n));
    routers_[r]->connect_input(in_port, inject->in());
    inject->set_sink(routers_[r].get());
    auto eject = std::make_unique<Channel>(
        MediumType::kElectrical, 1, 1, spec_.num_vcs, spec_.buffer_depth,
        Length{}, &spec_.vc_classes, "ej" + std::to_string(n));
    routers_[r]->connect_output(out_port, eject->out());
    eject->set_sink(nic_.get(), n);
    nic_->connect(n, inject->out(), eject->in());
    node_channels_.push_back(std::move(inject));
    node_channels_.push_back(std::move(eject));
  }

  // Registration order is fixed (determinism): NIC, routers, media, channels.
  engine_.add(nic_.get());
  for (auto& r : routers_) engine_.add(r.get());
  for (auto& m : media_) engine_.add(m.get());
  for (auto& c : channels_) engine_.add(c.get());
  for (auto& c : node_channels_) engine_.add(c.get());

  // Observability: resolve counter handles once, after all components exist.
  for (auto& r : routers_) r->bind_obs(obs_);
  for (auto& m : media_) m->bind_obs(obs_);
  for (auto& c : channels_) c->bind_obs(obs_);

  // OWNSIM_PDES=1 put the engine in kParallel at construction; install the
  // default plan right away so even driverless users (tests, examples) get
  // the parallel kernel without extra wiring. The driver re-configures with
  // explicit threads/partitions knobs when the config asks for them.
  if (engine_.mode() == KernelMode::kParallel) {
    configure_parallel(exec::default_threads());
  }
}

ParallelPlan Network::build_partition_plan(int partitions) const {
  const int nr = spec_.num_routers();
  // Per-router partition labels: topology hint (densified in label order so
  // arbitrary label values work) unless empty or an override forces the
  // generic contiguous-block fallback.
  std::vector<int> router_part(static_cast<std::size_t>(nr), 0);
  int num_router_parts = 1;
  if (partitions <= 0 &&
      spec_.partition_hint.size() == static_cast<std::size_t>(nr)) {
    std::map<int, int> dense;
    for (const int label : spec_.partition_hint) dense.emplace(label, 0);
    int next = 0;
    for (auto& [label, id] : dense) id = next++;
    for (int r = 0; r < nr; ++r) {
      router_part[static_cast<std::size_t>(r)] =
          dense[spec_.partition_hint[static_cast<std::size_t>(r)]];
    }
    num_router_parts = next;
  } else {
    const int want = partitions > 0 ? partitions : std::min(8, nr);
    const int p = std::clamp(want, 1, nr);
    const int block = (nr + p - 1) / p;
    for (int r = 0; r < nr; ++r) {
      router_part[static_cast<std::size_t>(r)] = r / block;
    }
    num_router_parts = (nr + block - 1) / block;
  }

  ParallelPlan plan;
  // The NIC touches every node's inject/eject channel, so it gets a
  // partition of its own rather than serializing one router partition.
  const int nic_part = num_router_parts;
  plan.num_partitions = num_router_parts + 1;
  plan.partition.reserve(engine_.num_components());
  plan.wave.reserve(engine_.num_components());
  const auto push = [&plan](int part, std::uint8_t wave) {
    plan.partition.push_back(part);
    plan.wave.push_back(wave);
  };
  // Mirror the registration order above exactly: NIC, routers, media,
  // network links, node channels. Producers (NIC + routers) evaluate in
  // wave 1, pipes (media + every channel) in wave 2; pipes join the
  // partition of their receiving side so a delivery wake stays lane-local.
  push(nic_part, 1);
  for (int r = 0; r < nr; ++r) {
    push(router_part[static_cast<std::size_t>(r)], 1);
  }
  for (const MediumSpec& ms : spec_.media) {
    push(router_part[static_cast<std::size_t>(ms.readers.at(0).first)], 2);
  }
  for (const LinkSpec& link : spec_.links) {
    push(router_part[static_cast<std::size_t>(link.dst_router)], 2);
  }
  for (NodeId n = 0; n < spec_.num_nodes; ++n) {
    const int part =
        router_part[static_cast<std::size_t>(spec_.nodes[n].router)];
    push(part, 2);  // inject channel (read by the node's router)
    push(part, 2);  // eject channel (read by the NIC, delivered cross-lane)
  }
  return plan;
}

void Network::configure_parallel(unsigned threads, int partitions) {
  if (engine_.mode() != KernelMode::kParallel) {
    engine_.set_mode(KernelMode::kParallel);
  }
  engine_.configure_parallel(build_partition_plan(partitions), threads);
}

void Network::set_trace(obs::TraceWriter* trace) {
  trace_ = trace;
  if (trace != nullptr) {
    trace->set_process_name(obs::TraceWriter::kPidRun, "run phases");
    trace->set_process_name(obs::TraceWriter::kPidMedia, "shared media");
    trace->set_process_name(obs::TraceWriter::kPidLinks, "links");
  }
  for (std::size_t i = 0; i < media_.size(); ++i) {
    media_[i]->set_trace(trace, static_cast<int>(i));
    if (trace != nullptr) {
      trace->set_thread_name(obs::TraceWriter::kPidMedia, static_cast<int>(i),
                             media_[i]->params().name);
    }
  }
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    channels_[i]->set_trace(trace, static_cast<int>(i));
    if (trace != nullptr) {
      trace->set_thread_name(obs::TraceWriter::kPidLinks, static_cast<int>(i),
                             channels_[i]->name());
    }
  }
}

void Network::flush_trace() {
  for (auto& c : channels_) c->flush_trace();
}

}  // namespace ownsim
