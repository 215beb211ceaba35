// arpanet_sim: command-line driver for whole-network experiments.
//
// Usage:
//   arpanet_sim [--topology=arpanet87|two-region|ring:N|grid:WxH|<spec>|<file>]
//               [--metric=min-hop|dspf|hnspf] [--algorithm=spf|dv]
//               [--multipath] [--load-kbps=400] [--shape=uniform|peak-hour]
//               [--warmup-sec=120] [--window-sec=300] [--seed=N]
//               [--queue-capacity=40] [--shards=K]
//               [--fail-trunk=A-B@T] [--recover-trunk=A-B@T]
//               [--utilization] [--write-topology]
//
// --shards=K runs the sharded parallel engine (K worker threads over one
// network; see docs/performance.md for the determinism contract: the output
// is bit-identical at every K, the K=1 run's).
//
// Trunk events compile into the fault engine (sim/fault_plan.h) at every K:
// --fail-trunk takes the trunk down at T (seconds from the start of warm-up)
// and --recover-trunk brings the same trunk back up at its T; without it, or
// with a T past the end of the run, the trunk stays down to the end and no
// link-up is dispatched. A --fail-trunk past the end never fires. Usage
// errors: a --recover-trunk without --fail-trunk, one naming another trunk,
// one at or before the --fail-trunk time, and a negative --fail-trunk time.
//
// A <spec> is any TopologyBuilder registry family with key=value parameters,
// e.g. ba:nodes=10000,seed=7,m=2 or leo-grid:planes=20,per_plane=20
// (see docs/topologies.md for the families and their parameters).
//
// Examples:
//   arpanet_sim --metric=dspf --load-kbps=420
//   arpanet_sim --topology=my_net.topo --metric=hnspf --fail-trunk=MIT-BBN@200
//   arpanet_sim --topology=ring:8 --write-topology
//   arpanet_sim --topology=waxman:nodes=256,seed=3 --metric=hnspf

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <utility>

#include "src/net/builders/builders.h"
#include "src/net/builders/registry.h"
#include "src/net/topology_io.h"
#include "src/sim/fault_plan.h"
#include "src/sim/network.h"
#include "src/sim/scenario.h"
#include "src/util/flags.h"

namespace {

using namespace arpanet;

net::Topology load_topology(const std::string& spec) {
  if (spec == "arpanet87") return net::builders::arpanet87().topo;
  if (spec == "two-region") return net::builders::two_region().topo;
  if (spec.starts_with("ring:")) {
    return net::builders::ring(std::stoi(spec.substr(5)));
  }
  if (spec.starts_with("grid:")) {
    const std::string dims = spec.substr(5);
    const std::size_t x = dims.find('x');
    if (x == std::string::npos) {
      throw std::invalid_argument("grid spec must be grid:WxH");
    }
    return net::builders::grid(std::stoi(dims.substr(0, x)),
                               std::stoi(dims.substr(x + 1)));
  }
  // Any registry family, parameterized "family:key=value,...".
  const std::string family = spec.substr(0, spec.find(':'));
  if (net::TopologyBuilder::registry().has_family(family)) {
    return net::TopologyBuilder::registry().build(net::GraphSpec::parse(spec));
  }
  std::ifstream file{spec};
  if (!file) throw std::invalid_argument("cannot open topology file " + spec);
  return net::parse_topology(file);
}

metrics::MetricKind parse_metric(const std::string& name) {
  if (name == "min-hop") return metrics::MetricKind::kMinHop;
  if (name == "dspf") return metrics::MetricKind::kDspf;
  if (name == "hnspf") return metrics::MetricKind::kHnSpf;
  throw std::invalid_argument("unknown metric " + name +
                              " (min-hop|dspf|hnspf)");
}

/// Parses "A-B@T" against the topology's node names: the simplex link from
/// A to B, and T.
std::pair<net::LinkId, util::SimTime> parse_trunk_event(
    const net::Topology& topo, const std::string& spec) {
  const std::size_t at_pos = spec.rfind('@');
  const std::size_t dash = spec.find('-');
  if (at_pos == std::string::npos || dash == std::string::npos || dash > at_pos) {
    throw std::invalid_argument("trunk event must look like A-B@seconds: " + spec);
  }
  const net::NodeId a = topo.node_by_name(spec.substr(0, dash));
  const net::NodeId b = topo.node_by_name(spec.substr(dash + 1, at_pos - dash - 1));
  const double t = std::stod(spec.substr(at_pos + 1));
  for (const net::LinkId lid : topo.out_links(a)) {
    if (topo.link(lid).to == b) {
      return {lid, util::SimTime::from_sec(t)};
    }
  }
  throw std::invalid_argument("no trunk between the named nodes: " + spec);
}

/// The fault plan for --fail-trunk / --recover-trunk: one flap of the named
/// trunk. `after_end` is one tick past the end of the run. A run dispatches
/// the events due at its end time, so a trunk that does not recover within
/// the run heals at `after_end`: scheduled but never dispatched, it stays
/// down to the end and sends no link-up updates. A --fail-trunk after the
/// end never fires. Empty without trunk flags.
sim::FaultPlan trunk_fault_plan(const net::Topology& topo,
                                const util::Flags& flags,
                                util::SimTime after_end) {
  const auto fail = flags.get("fail-trunk");
  const auto recover = flags.get("recover-trunk");
  sim::FaultPlan plan;
  if (!fail) {
    if (recover) {
      throw std::invalid_argument("--recover-trunk needs --fail-trunk");
    }
    return plan;
  }
  const auto [link, down_at] = parse_trunk_event(topo, *fail);
  if (down_at < util::SimTime::zero()) {
    throw std::invalid_argument("--fail-trunk must be at or after 0 s");
  }
  util::SimTime heal = after_end;
  if (recover) {
    const auto [up_link, up_at] = parse_trunk_event(topo, *recover);
    if (up_link != link && up_link != topo.link(link).reverse) {
      throw std::invalid_argument(
          "--recover-trunk must name the --fail-trunk trunk");
    }
    if (up_at <= down_at) {
      throw std::invalid_argument("--recover-trunk must be after --fail-trunk");
    }
    heal = std::min(up_at, after_end);
  }
  if (down_at < after_end) plan.flap_link(link, down_at, heal - down_at);
  return plan;
}

int run(const util::Flags& flags) {
  const net::Topology topo =
      load_topology(flags.get_string("topology", "arpanet87"));

  if (flags.get_bool("write-topology")) {
    net::write_topology(std::cout, topo);
    return 0;
  }

  sim::NetworkConfig cfg;
  cfg.metric = parse_metric(flags.get_string("metric", "hnspf"));
  cfg.algorithm = flags.get_string("algorithm", "spf") == "dv"
                      ? routing::RoutingAlgorithm::kDistanceVector
                      : routing::RoutingAlgorithm::kSpf;
  cfg.multipath = flags.get_bool("multipath");
  cfg.queue_capacity = static_cast<int>(flags.get_long("queue-capacity", 40));
  cfg.seed = static_cast<std::uint64_t>(flags.get_long("seed", 0x1987));
  cfg.shards = static_cast<int>(flags.get_long("shards", 1));

  const double load_bps = flags.get_double("load-kbps", 400.0) * 1e3;
  const std::string shape = flags.get_string("shape", "peak-hour");
  const auto warmup =
      util::SimTime::from_sec(flags.get_double("warmup-sec", 120.0));
  const auto window =
      util::SimTime::from_sec(flags.get_double("window-sec", 300.0));

  const util::SimTime after_end =
      warmup + window + util::SimTime::from_us(1);
  const sim::FaultPlan trunk_plan = trunk_fault_plan(topo, flags, after_end);
  const bool show_utilization = flags.get_bool("utilization");

  for (const std::string& u : flags.unknown()) {
    std::fprintf(stderr, "unknown flag --%s (see header of arpanet_sim.cpp)\n",
                 u.c_str());
    return 2;
  }

  sim::Network net{topo, cfg};
  const auto matrix = shape == "uniform"
                          ? traffic::TrafficMatrix::uniform(topo.node_count(),
                                                            load_bps)
                          : traffic::TrafficMatrix::peak_hour(
                                topo.node_count(), load_bps,
                                util::Rng{cfg.seed ^ 0xfeedULL});
  net.add_traffic(matrix);

  if (!trunk_plan.empty()) net.install_faults(trunk_plan, after_end);

  net.run_for(warmup);
  net.reset_stats();
  net.run_for(window);

  const auto ind = net.indicators(to_string(cfg.metric));
  std::printf("topology    %zu nodes, %zu trunks\n", topo.node_count(),
              topo.trunk_count());
  std::printf("routing     %s / %s%s\n", to_string(cfg.algorithm),
              to_string(cfg.metric), cfg.multipath ? " + multipath" : "");
  std::printf("offered     %.1f kb/s (%s), window %.0f s after %.0f s warmup\n",
              load_bps / 1e3, shape.c_str(), window.sec(), warmup.sec());
  std::printf("delivered   %.1f kb/s (%.1f pkt/s)\n",
              ind.internode_traffic_kbps, ind.delivered_packets_per_sec);
  std::printf("delay       %.1f ms round trip\n", ind.round_trip_delay_ms);
  std::printf("paths       %.2f hops actual vs %.2f minimum (ratio %.3f)\n",
              ind.actual_path_hops, ind.minimum_path_hops, ind.path_ratio());
  std::printf("updates     %.3f per trunk per second, node period %.1f s\n",
              ind.updates_per_trunk_sec, ind.update_period_per_node_sec);
  const auto& s = net.stats();
  std::printf("drops       %ld queue, %ld loop, %ld unreachable\n",
              s.packets_dropped_queue, s.packets_dropped_loop,
              s.packets_dropped_unreachable);

  if (show_utilization) {
    std::printf("\ntrunk utilization (last bucket, per direction):\n");
    const std::size_t bucket = static_cast<std::size_t>(
        net.now().us() / cfg.stats_bucket.us()) - 1;
    for (std::size_t l = 0; l < topo.link_count(); l += 2) {
      const net::Link& link = topo.link(static_cast<net::LinkId>(l));
      std::printf("  %-12s <-> %-12s %-19s %5.1f%% / %5.1f%%\n",
                  std::string(topo.node_name(link.from)).c_str(),
                  std::string(topo.node_name(link.to)).c_str(),
                  std::string(to_string(link.type)).c_str(),
                  100.0 * net.link_utilization(link.id, bucket),
                  100.0 * net.link_utilization(link.reverse, bucket));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(util::Flags{argc, argv});
  } catch (const std::exception& e) {
    std::fprintf(stderr, "arpanet_sim: %s\n", e.what());
    return 1;
  }
}
