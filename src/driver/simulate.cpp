#include "driver/simulate.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "adapt/controller.hpp"
#include "common/numfmt.hpp"
#include "exec/thread_pool.hpp"
#include "metrics/report.hpp"
#include "serve/json.hpp"
#include "topofile/topofile.hpp"
#include "topology/own_fault.hpp"

namespace ownsim {

std::optional<ChannelEnergyModel> own_channel_energy(TopologyKind topology,
                                                     int num_cores,
                                                     OwnConfig config,
                                                     Scenario scenario) {
  if (topology != TopologyKind::kOwn) return std::nullopt;
  return ChannelEnergyModel(config, scenario, num_cores == 1024 ? 16 : 12);
}

NetworkFactory make_network_factory(TopologyKind topology,
                                    TopologyOptions options) {
  return [topology, options] {
    return std::make_unique<Network>(build_topology(topology, options));
  };
}

NetworkSpec build_experiment_spec(const ExperimentConfig& config) {
  if ((config.fault.enabled || config.adapt.enabled) &&
      config.topology == TopologyKind::kOwn &&
      config.options.num_cores == 256) {
    // Campaign-capable OWN-256: the healthy floorplan (no pre-declared
    // faults) built with the degraded 5-class route scheme, so a mid-run
    // persistent failure can be rerouted online without a rebuild.
    TopologyOptions options = config.options;
    options.num_vcs = std::max(options.num_vcs, 5);
    return build_own256_faulted(options, FaultSet{});
  }
  return build_topology(config.topology, config.options);
}

std::unique_ptr<fault::FaultCampaign> make_campaign(
    Network& network, const ExperimentConfig& config) {
  if (!config.fault.enabled) return nullptr;
  return std::make_unique<fault::FaultCampaign>(&network, config.fault);
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  return run_experiment(config, RunHooks{});
}

ExperimentResult run_experiment(const ExperimentConfig& config,
                                const RunHooks& hooks) {
  Network network(build_experiment_spec(config));
  if (config.kernel.has_value()) network.engine().set_mode(*config.kernel);
  // kernel=parallel (or OWNSIM_PDES=1) needs a partition plan; install or
  // replace one when the config carries explicit threads/partitions knobs.
  // Thread and partition counts never change a simulated result (§5i).
  if (network.engine().mode() == KernelMode::kParallel &&
      (!network.engine().parallel_configured() || config.threads > 0 ||
       config.partitions > 0)) {
    const unsigned threads = config.threads > 0
                                 ? static_cast<unsigned>(config.threads)
                                 : exec::default_threads();
    network.configure_parallel(threads, config.partitions);
  }

  TrafficPattern pattern(config.pattern, config.options.num_cores);
  Injector::Params injector_params = config.injector;
  injector_params.rate = config.rate;
  Injector injector(&network, pattern, injector_params);
  network.engine().add(&injector);

  // File topologies report (and meter energy) as the topology they emulate,
  // so an exported OWN-256 file is byte-identical to the hand-built one.
  const TopologyKind reported =
      config.topology == TopologyKind::kFile
          ? topofile::topofile_reporting_kind(config.options)
          : config.topology;
  std::optional<ChannelEnergyModel> channel_energy = own_channel_energy(
      reported, config.options.num_cores, config.own_config, config.scenario);

  std::unique_ptr<fault::FaultCampaign> campaign =
      make_campaign(network, config);
  exec::CancellationToken token = hooks.cancel;
  if (campaign != nullptr) {
    campaign->attach();
    if (campaign->watchdog() != nullptr) {
      token = exec::CancellationToken::any_of(
          {hooks.cancel, campaign->watchdog()->token()});
    }
  }
  // The adaptation controller registers after the campaign (and after every
  // network component): both mutate the network at cycle boundaries, and a
  // fixed registration order is part of the bit-identity argument (§5k).
  std::unique_ptr<adapt::AdaptController> adapt_ctl;
  if (config.adapt.enabled) {
    adapt_ctl = std::make_unique<adapt::AdaptController>(
        &network, config.adapt, config.power,
        channel_energy.has_value() ? &*channel_energy : nullptr,
        config.options.clock_ghz);
    adapt_ctl->attach(campaign != nullptr ? &campaign->protocol() : nullptr);
  }
  if (hooks.before_run) hooks.before_run(network);

  ExperimentResult result;
  result.run = run_load_point(network, injector, config.phases, token);
  if (campaign != nullptr) {
    result.fault = campaign->totals();
    result.watchdog_tripped = campaign->watchdog_tripped();
  }
  if (adapt_ctl != nullptr) {
    result.adapt = adapt_ctl->totals();
    if (campaign == nullptr) {
      // Adapt-only runs still corrupt flits through the live-BER path; fold
      // the link-layer totals in so the result reflects them (the campaign
      // already does this through its own totals()).
      for (std::size_t i = 0; i < network.num_network_channels(); ++i) {
        const LinkFaultCounters& fc =
            network.network_channel(i).fault_counters();
        result.fault.crc_errors += fc.crc_errors;
        result.fault.retransmissions += fc.retransmissions;
      }
      for (std::size_t m = 0; m < network.num_media(); ++m) {
        const MediumCounters& mc = network.medium(m).counters();
        result.fault.crc_errors += mc.crc_errors;
        result.fault.retransmissions += mc.retransmissions;
        result.fault.token_recoveries += mc.token_recoveries;
      }
    }
  }

  // A run cancelled before its first slice has no elapsed cycles, and the
  // energy model (rightly) refuses a never-simulated network. Cancelled
  // results are partial either way — power stays zeroed in that case.
  if (!result.run.cancelled || result.run.cycles_simulated > 0) {
    EnergyModel energy(config.power, channel_energy);
    const double trim_w =
        adapt_ctl != nullptr ? adapt_ctl->trim_avg_w() : 0.0;
    result.power = energy.compute(network, config.options.clock_ghz, trim_w);
    result.energy_per_packet_pj = energy.energy_per_packet_pj(
        network, config.options.clock_ghz, trim_w);
  }

  result.counters.reserve(network.obs().size());
  network.obs().for_each(
      [&result](const std::string& name, std::int64_t value) {
        result.counters.emplace_back(name, value);
      });

  std::ostringstream name;
  name << to_string(reported) << '-' << config.options.num_cores << '/'
       << to_string(config.pattern);
  if (reported == TopologyKind::kOwn) {
    name << '/' << to_string(config.own_config) << '/'
         << to_string(config.scenario);
  }
  result.name = name.str();
  if (hooks.after_run) hooks.after_run(network, result);
  return result;
}

std::string experiment_result_json(const ExperimentResult& result) {
  // Keys in sorted order at every level (see append_run_result_canonical_json
  // for why: parse -> dump through the JSON layer must be a no-op).
  std::string out;
  out += "{";
  if (result.adapt.enabled) {
    // Emitted only when the adaptation loop ran: adapt=0 results keep
    // today's byte layout exactly.
    out += "\"adapt\":{\"backoffs\":";
    out += format_int(result.adapt.backoffs);
    out += ",\"enabled\":true,\"min_margin_db\":";
    out += format_double(result.adapt.min_margin_db);
    out += ",\"peak_temp_c\":";
    out += format_double(result.adapt.peak_temp_c);
    out += ",\"reallocations\":";
    out += format_int(result.adapt.reallocations);
    out += ",\"refreshes\":";
    out += format_int(result.adapt.refreshes);
    out += ",\"trim_avg_mw\":";
    out += format_double(result.adapt.trim_avg_mw);
    out += "},";
  }
  out += "\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : result.counters) {
    if (!first) out += ",";
    first = false;
    serve::append_json_string(out, name);
    out += ":";
    out += format_int(value);
  }
  out += "},\"energy_per_packet_pj\":";
  out += format_double(result.energy_per_packet_pj);
  out += ",\"fault\":{\"crc_errors\":";
  out += format_int(result.fault.crc_errors);
  out += ",\"flows_degraded\":";
  out += format_int(result.fault.flows_degraded);
  out += ",\"retransmissions\":";
  out += format_int(result.fault.retransmissions);
  out += ",\"token_recoveries\":";
  out += format_int(result.fault.token_recoveries);
  out += ",\"watchdog_trips\":";
  out += format_int(result.fault.watchdog_trips);
  out += "},\"name\":";
  serve::append_json_string(out, result.name);
  out += ",\"power\":{\"electrical_link_w\":";
  out += format_double(result.power.electrical_link_w);
  out += ",\"photonic_laser_w\":";
  out += format_double(result.power.photonic_laser_w);
  out += ",\"photonic_link_w\":";
  out += format_double(result.power.photonic_link_w);
  out += ",\"router_dynamic_w\":";
  out += format_double(result.power.router_dynamic_w);
  out += ",\"router_static_w\":";
  out += format_double(result.power.router_static_w);
  out += ",\"total_w\":";
  out += format_double(result.power.total_w());
  out += ",\"wireless_link_w\":";
  out += format_double(result.power.wireless_link_w);
  out += ",\"wireless_static_w\":";
  out += format_double(result.power.wireless_static_w);
  out += "},\"run\":";
  append_run_result_canonical_json(out, result.run);
  out += ",\"watchdog_tripped\":";
  out += result.watchdog_tripped ? "true" : "false";
  out += "}";
  return out;
}

}  // namespace ownsim
