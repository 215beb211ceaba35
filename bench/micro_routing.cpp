// Micro-benchmarks (google-benchmark): the hot paths of the library —
// full vs incremental SPF on the ARPANET-like topology, the event queue,
// the HNM transform, flooding decisions and the response-map building
// block. These back DESIGN.md's claim that the incremental algorithm saves
// the PSN CPU that section 3.3 point 5 worries about.

#include <benchmark/benchmark.h>

#include "src/analysis/response_map.h"
#include "src/core/hn_metric.h"
#include "src/net/builders/builders.h"
#include "src/routing/spf.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"

namespace {

using namespace arpanet;

const net::builders::Arpanet87& fixture() {
  static const net::builders::Arpanet87 net = net::builders::arpanet87();
  return net;
}

void BM_FullSpf(benchmark::State& state) {
  const auto& net = fixture();
  routing::LinkCosts costs(net.topo.link_count(), 30.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(routing::Spf::compute(net.topo, 0, costs));
  }
}
BENCHMARK(BM_FullSpf);

void BM_IncrementalSpfSkippedUpdate(benchmark::State& state) {
  const auto& net = fixture();
  routing::IncrementalSpf inc{net.topo, 0,
                              routing::LinkCosts(net.topo.link_count(), 30.0)};
  // Find a non-tree link; raising its cost is the paper's no-work case.
  net::LinkId non_tree = net::kInvalidLink;
  for (const net::Link& l : net.topo.links()) {
    if (!inc.tree().uses_link(net.topo, l.id)) {
      non_tree = l.id;
      break;
    }
  }
  double cost = 31.0;
  for (auto _ : state) {
    inc.set_cost(non_tree, cost);
    cost += 1.0;  // always an increase: never triggers a recompute
  }
}
BENCHMARK(BM_IncrementalSpfSkippedUpdate);

void BM_IncrementalSpfCostChange(benchmark::State& state) {
  const auto& net = fixture();
  routing::IncrementalSpf inc{net.topo, 0,
                              routing::LinkCosts(net.topo.link_count(), 30.0)};
  util::Rng rng{42};
  for (auto _ : state) {
    const auto link = static_cast<net::LinkId>(
        rng.uniform_index(net.topo.link_count()));
    inc.set_cost(link, 30.0 + static_cast<double>(rng.uniform_index(60)));
  }
}
BENCHMARK(BM_IncrementalSpfCostChange);

/// Counts the events dispatched to it.
class CountingSink final : public sim::EventSink {
 public:
  void handle_event(sim::SimEvent& ev) override {
    (void)ev;
    ++count;
  }
  long count = 0;
};

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    CountingSink sink;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(
          util::SimTime::from_us(i * 7 % 997),
          sim::SimEvent::source_tick(sink, static_cast<std::uint32_t>(i)));
    }
    sim.run_until(util::SimTime::from_sec(1));
    benchmark::DoNotOptimize(sink.count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_HnmTransform(benchmark::State& state) {
  const auto params = core::LineParamsTable::arpanet_defaults();
  core::HnMetric m{params.for_type(net::LineType::kTerrestrial56),
                   util::DataRate::kbps(56), util::SimTime::zero()};
  util::Rng rng{7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        m.update_from_delay(util::SimTime::from_ms(rng.uniform(10.0, 500.0))));
  }
}
BENCHMARK(BM_HnmTransform);

void BM_LinkTrafficAtCost(benchmark::State& state) {
  const auto& net = fixture();
  const auto matrix =
      traffic::TrafficMatrix::uniform(net.topo.node_count(), 1e6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::NetworkResponseMap::link_traffic_at_cost(
        net.topo, matrix, 0, 2.5));
  }
}
BENCHMARK(BM_LinkTrafficAtCost);

}  // namespace

BENCHMARK_MAIN();
