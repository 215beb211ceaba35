#include "scenario_pass.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

#include "src/analysis/invariants.h"
#include "src/core/line_params.h"
#include "src/metrics/metric_factory.h"
#include "src/net/builders/registry.h"
#include "src/obs/stopwatch.h"
#include "src/sim/fault_plan.h"
#include "src/sim/network.h"
#include "src/traffic/traffic_matrix.h"
#include "src/util/rng.h"

namespace perfbench {

namespace {

using arpa::metrics::MetricKind;
using arpa::net::GraphSpec;
using arpa::obs::Stopwatch;
using arpa::util::SimTime;

std::vector<Workload> make_workloads() {
  std::vector<Workload> all;
  {
    // The paper's own network and comparison: HN-SPF, then D-SPF, on the
    // July 1987 ARPANET at its peak-hour matrix.
    Workload w;
    w.name = "paper87";
    w.topology = GraphSpec{}.with_family("arpanet87").with_nodes(47);
    w.metrics = {MetricKind::kHnSpf, MetricKind::kDspf};
    w.shape = arpa::sim::TrafficShape::kPeakHour;
    w.load_bps = 600e3;
    w.warmup_s = 60.0;
    w.window_s = 240.0;
    all.push_back(w);
  }
  {
    // Routing control plane dominated: HN-SPF's section 5.4 ease-in storm
    // and steady update flooding on a 256-satellite torus. Also the
    // sharded-engine scenario, run untimed at K=4: on a host shared with
    // other machines, a barrier-synchronized K=4 run varies too much to
    // gate its run time.
    Workload w;
    w.name = "leo256";
    w.topology =
        GraphSpec{}.with_family("leo-grid").with_nodes(256).with_seed(1987);
    w.metrics = {MetricKind::kHnSpf};
    w.load_bps = 900e3;
    w.warmup_s = 15.0;
    w.window_s = 5.0;
    w.shards = 4;
    all.push_back(w);
  }
  {
    // Heaviest set-up (n^2 sources, per-PSN SPF state at 1024 nodes) and a
    // flood-dominated, fault-driven SPF load under static min-hop costs.
    Workload w;
    w.name = "leo1k-flap";
    w.topology =
        GraphSpec{}.with_family("leo-grid").with_nodes(1024).with_seed(1987);
    w.metrics = {MetricKind::kMinHop};
    w.load_bps = 200e3;
    w.warmup_s = 2.0;
    w.window_s = 8.0;
    w.flapped_trunks = 4;
    w.flap_period_s = 2.0;
    w.flap_dwell_s = 0.5;
    all.push_back(w);
  }
  return all;
}

/// The seed-chosen flap storm: distinct trunks, staggered onsets, each
/// repeating until the horizon.
arpa::sim::FaultPlan flap_plan(const Workload& w,
                               const arpa::net::Topology& topo,
                               std::uint64_t seed) {
  arpa::sim::FaultPlan plan;
  arpa::util::Rng rng{seed ^ 0x666c61707374726dULL};
  std::vector<arpa::net::LinkId> trunks;
  while (trunks.size() < static_cast<std::size_t>(w.flapped_trunks)) {
    const auto l =
        static_cast<arpa::net::LinkId>(rng.uniform_index(topo.link_count()));
    const arpa::net::LinkId trunk = std::min(l, topo.link(l).reverse);
    if (std::find(trunks.begin(), trunks.end(), trunk) == trunks.end()) {
      trunks.push_back(trunk);
    }
  }
  for (std::size_t i = 0; i < trunks.size(); ++i) {
    const double onset =
        1.0 + w.flap_period_s * static_cast<double>(i) /
                  static_cast<double>(trunks.size());
    plan.flap_link(trunks[i], SimTime::from_sec(onset),
                   SimTime::from_sec(w.flap_dwell_s),
                   SimTime::from_sec(w.flap_period_s), /*count=*/0);
  }
  return plan;
}

arpa::traffic::TrafficMatrix make_matrix(const Workload& w, std::size_t nodes,
                                         std::uint64_t seed) {
  if (w.shape == arpa::sim::TrafficShape::kPeakHour) {
    return arpa::traffic::TrafficMatrix::peak_hour(
        nodes, w.load_bps, arpa::util::Rng{seed ^ 0xfeedULL});
  }
  return arpa::traffic::TrafficMatrix::uniform(nodes, w.load_bps);
}

std::uint64_t windows_for(SimTime duration, SimTime lookahead) {
  if (lookahead <= SimTime::zero()) return 0;
  return static_cast<std::uint64_t>((duration.us() + lookahead.us() - 1) /
                                    lookahead.us());
}

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xffU)) * kFnvPrime;
  }
  return h;
}

long lifetime_dropped(const arpa::sim::NetworkStats& s) {
  return s.packets_dropped_queue + s.packets_dropped_unreachable +
         s.packets_dropped_loop;
}

}  // namespace

const Workload& find_workload(std::string_view name) {
  static const std::vector<Workload> all = make_workloads();
  for (const Workload& w : all) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload: " + std::string{name});
}

void CheckLog::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

CheckLog& CheckLog::operator+=(const CheckLog& other) {
  attempted += other.attempted;
  failed += other.failed;
  failures.insert(failures.end(), other.failures.begin(),
                  other.failures.end());
  return *this;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the process image before execve, here the forking Python runner.
  std::ifstream status{"/proc/self/status"};
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

arpa::routing::LinkCosts initial_costs(const arpa::net::Topology& topo,
                                       MetricKind metric) {
  const arpa::metrics::KindMetricFactory factory{metric};
  const arpa::core::LineParamsTable params =
      arpa::core::LineParamsTable::arpanet_defaults();
  arpa::routing::LinkCosts costs(topo.link_count());
  for (const arpa::net::Link& l : topo.links()) {
    costs[l.id] = factory.create(l, params)->initial_cost();
  }
  return costs;
}

Setup set_up(const Workload& w, MetricKind metric, std::uint64_t seed,
             int shards) {
  Setup st;
  Stopwatch watch;
  st.topo = std::make_unique<arpa::net::Topology>(
      arpa::net::TopologyBuilder::registry().build(w.topology));
  st.times.build_topology_s = watch.seconds();
  const arpa::net::Topology& topo = *st.topo;

  arpa::sim::NetworkConfig ncfg;
  ncfg.metric = metric;
  ncfg.seed = seed;
  ncfg.shards = shards;
  watch.restart();
  st.net = std::make_unique<arpa::sim::Network>(topo, ncfg);
  st.times.network_ctor_s = watch.seconds();

  if (w.flapped_trunks > 0) {
    const arpa::sim::FaultPlan plan = flap_plan(w, topo, seed);
    watch.restart();
    st.net->install_faults(plan,
                           SimTime::from_sec(w.warmup_s + w.window_s));
    st.times.install_faults_s = watch.seconds();
  }

  watch.restart();
  const arpa::traffic::TrafficMatrix matrix =
      make_matrix(w, topo.node_count(), seed);
  st.net->add_traffic(matrix);
  st.times.add_traffic_s = watch.seconds();
  for (arpa::net::NodeId s = 0; s < matrix.nodes(); ++s) {
    for (arpa::net::NodeId d = 0; d < matrix.nodes(); ++d) {
      if (matrix.at(s, d) > 0.0) ++st.times.sources;
    }
  }
  return st;
}

PassResult run_pass(const Workload& w, MetricKind metric, std::uint64_t seed,
                    const PassOptions& opts) {
  PassResult r;
  Setup st = set_up(w, metric, seed, opts.shards);
  r.setup = st.times;
  r.setup_rss_mb = peak_rss_mb();
  r.topo = std::move(st.topo);
  const arpa::net::Topology& topo = *r.topo;
  arpa::sim::Network& net = *st.net;
  if (opts.sink != nullptr) net.attach_trace_sink(opts.sink);

  // ---- the timed horizon: warm-up, then the measurement window ----
  Stopwatch watch;
  net.run_for(SimTime::from_sec(w.warmup_s));
  const arpa::sim::NetworkStats warmup_stats = net.stats();
  net.reset_stats();
  net.run_for(SimTime::from_sec(w.window_s));
  r.run_s = watch.seconds();

  r.horizon_us = static_cast<std::uint64_t>(net.now().us());
  r.counters = net.counters();
  r.events = net.events_processed();
  r.indicators = net.indicators(arpa::metrics::to_string(metric));
  r.lookahead_us = static_cast<double>(net.lookahead().us());
  r.windows = windows_for(SimTime::from_sec(w.warmup_s), net.lookahead()) +
              windows_for(SimTime::from_sec(w.window_s), net.lookahead());

  const arpa::sim::NetworkStats& window_stats = net.stats();
  const long generated =
      warmup_stats.packets_generated + window_stats.packets_generated;
  std::uint64_t digest = kFnvOffset;
  for (const std::uint64_t v :
       {r.events, static_cast<std::uint64_t>(generated),
        static_cast<std::uint64_t>(warmup_stats.packets_delivered +
                                   window_stats.packets_delivered),
        static_cast<std::uint64_t>(lifetime_dropped(warmup_stats) +
                                   lifetime_dropped(window_stats)),
        r.counters.spf_full, r.counters.spf_incremental,
        r.counters.spf_skipped, r.counters.spf_nodes_touched,
        r.counters.updates_originated}) {
    digest = fnv_mix(digest, v);
  }
  r.digest = digest;

  if (!opts.gate) return r;

  // ---- untimed drain to quiescence, then the correctness gate ----
  net.stop_traffic();
  const auto conserved = [&] {
    const arpa::sim::NetworkStats& s = net.stats();
    return warmup_stats.packets_generated + s.packets_generated ==
           warmup_stats.packets_delivered + s.packets_delivered +
               lifetime_dropped(warmup_stats) + lifetime_dropped(s);
  };
  constexpr double kDrainStepS = 0.5;
  constexpr double kDrainCapS = 600.0;
  double drained_s = 0.0;
  while (drained_s < kDrainCapS &&
         !(conserved() && net.updates_in_flight() == 0)) {
    net.run_for(SimTime::from_sec(kDrainStepS));
    drained_s += kDrainStepS;
  }
  const std::string where = w.name + " " + arpa::metrics::to_string(metric);
  r.checks.check(conserved(),
                 where + ": packet conservation after stop_traffic and drain");
  r.checks.check(net.updates_in_flight() == 0,
                 where + ": routing updates quiesce within the drain cap");
  r.checks.check(generated > 0, where + ": traffic was generated");

  watch.restart();
  const arpa::analysis::AuditStats audit = arpa::analysis::audit_network(net);
  r.audit_s = watch.seconds();
  r.checks.check(audit.trees_checked ==
                     static_cast<long>(topo.node_count()),
                 where + ": audit_network validated every PSN's SPF tree");

  const std::size_t samples = std::min(opts.sample_roots, topo.node_count());
  for (std::size_t i = 0; i < samples; ++i) {
    const auto root =
        static_cast<arpa::net::NodeId>(i * topo.node_count() / samples);
    r.sampled_roots.push_back(root);
    r.sampled_trees.push_back(net.psn(root).spf().tree());
  }
  if (opts.sink != nullptr) net.attach_trace_sink(nullptr);
  return r;
}

}  // namespace perfbench
