// One simulated pass of a benchmark workload through the library's public
// entry points (TopologyBuilder, Network, add_traffic, install_faults), with
// the set-up calls timed one by one, the warm-up plus window timed as run_s,
// and the correctness gate run after an untimed drain.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/metrics/link_metric.h"
#include "src/net/graph_spec.h"
#include "src/net/topology.h"
#include "src/obs/counters.h"
#include "src/obs/trace_sink.h"
#include "src/routing/spf.h"
#include "src/sim/scenario.h"
#include "src/stats/indicators.h"

namespace perfbench {

namespace arpa = ::arpanet;

/// A named benchmark workload: one topology, one traffic matrix and one
/// horizon, simulated once per metric in `metrics`.
struct Workload {
  std::string name;
  arpa::net::GraphSpec topology;
  std::vector<arpa::metrics::MetricKind> metrics;
  arpa::sim::TrafficShape shape = arpa::sim::TrafficShape::kUniform;
  double load_bps = 0.0;
  double warmup_s = 0.0;
  double window_s = 0.0;
  /// Shards (clamped to the host's cores) for the sharded-engine pass:
  /// the untimed sharded-engine checks and the traced run's shard layer. The
  /// timed passes run on one shard.
  int shards = 1;
  /// Repeating flap storm: this many seed-chosen trunks, each down for
  /// flap_dwell_s every flap_period_s, with staggered onsets.
  int flapped_trunks = 0;
  double flap_period_s = 0.0;
  double flap_dwell_s = 0.0;
};

/// The workload called `name`; throws std::invalid_argument if unknown.
[[nodiscard]] const Workload& find_workload(std::string_view name);

/// Host seconds of each set-up call, in call order.
struct SetupTimes {
  double build_topology_s = 0.0;
  double network_ctor_s = 0.0;
  double install_faults_s = 0.0;
  double add_traffic_s = 0.0;  ///< matrix generation plus add_traffic
  std::uint64_t sources = 0;   ///< nonzero matrix entries installed

  [[nodiscard]] double total() const {
    return build_topology_s + network_ctor_s + install_faults_s +
           add_traffic_s;
  }
};

/// A workload's network, built and loaded, ready to run.
struct Setup {
  std::unique_ptr<arpa::net::Topology> topo;
  std::unique_ptr<arpa::sim::Network> net;  ///< refers to *topo
  SetupTimes times;
};

/// The set-up half of a pass: topology, Network, faults, traffic.
[[nodiscard]] Setup set_up(const Workload& w, arpa::metrics::MetricKind metric,
                           std::uint64_t seed, int shards);

/// What a pass asks for beyond the timed run.
struct PassOptions {
  int shards = 1;
  /// Drain to quiescence and run the correctness gate after the horizon.
  /// Without it the pass ends at the horizon (digest still computed).
  bool gate = true;
  /// Attached for the whole pass (horizon and drain); shards must be 1.
  arpa::obs::TraceSink* sink = nullptr;
  /// Evenly spaced roots whose live SPF trees are copied out at
  /// quiescence (capped at the node count).
  std::size_t sample_roots = 0;
};

/// A failed correctness check, or none.
struct CheckLog {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what);
  CheckLog& operator+=(const CheckLog& other);
};

struct PassResult {
  std::unique_ptr<arpa::net::Topology> topo;
  SetupTimes setup;
  /// Peak resident set right after set-up, MB.
  double setup_rss_mb = 0.0;
  double run_s = 0.0;
  double audit_s = 0.0;
  std::uint64_t horizon_us = 0;
  /// Lifetime counters at the end of the horizon (before the drain).
  arpa::obs::Counters counters;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  arpa::stats::NetworkIndicators indicators;
  // Sharded-engine sync: the lookahead window and how many windows the
  // horizon took (both 0 at one shard).
  double lookahead_us = 0.0;
  std::uint64_t windows = 0;
  // Live SPF state of each sampled root at quiescence.
  std::vector<arpa::net::NodeId> sampled_roots;
  std::vector<arpa::routing::SpfTree> sampled_trees;
  CheckLog checks;
};

/// Runs `w` once with metric `metric`; `seed` drives the traffic draws and
/// the flapped trunks.
[[nodiscard]] PassResult run_pass(const Workload& w,
                                  arpa::metrics::MetricKind metric,
                                  std::uint64_t seed, const PassOptions& opts);

/// Initial cost of every link as Network construction assigns it.
[[nodiscard]] arpa::routing::LinkCosts initial_costs(
    const arpa::net::Topology& topo, arpa::metrics::MetricKind metric);

/// Peak resident set of this process so far, MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
