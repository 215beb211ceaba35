// Benchmark driver. One workload per process:
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 repeats the workload's passes (set-up, timed horizon, untimed
// drain, correctness gate) until S seconds have gone by and prints the
// end-to-end metrics as medians over the repetitions. --trace 1 runs the
// workload untraced, traced (RecordingTraceSink at one shard) and, for a
// sharded workload, at its shard count, then replays the captured streams
// layer by layer and prints the per-layer metrics. The last stdout line is
// the JSON result; lines before it starting with '#' are informational.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "replay.h"
#include "scenario_pass.h"
#include "src/net/partition.h"
#include "src/obs/stopwatch.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have[1] = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have[2] = end != value && *end == '\0' && args.seconds > 0.0;
    } else if (flag == "--trace") {
      const std::string_view v = value;
      args.trace = v == "1";
      have[3] = v == "0" || v == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have[0] && have[1] && have[2] && have[3];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const CheckLog& checks, const std::vector<Metric>& metrics) {
  for (const std::string& f : checks.failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", f.c_str());
  }
  std::printf("# fail_ratio=%.6g (%ld of %ld checks failed)\n",
              ratio(static_cast<double>(checks.failed),
                    static_cast<double>(checks.attempted)),
              checks.failed, checks.attempted);
  for (const Metric& m : metrics) {
    std::printf("# %-40s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              checks.failed == 0 ? "true" : "false", checks.attempted,
              checks.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

void print_paper_outputs(const Workload& w, const PassResult& p) {
  const arpa::stats::NetworkIndicators& ind = p.indicators;
  std::printf(
      "# %s %-6s delivered_kbps=%.6g rtt_ms=%.6g drops_per_s=%.6g "
      "updates_per_trunk_s=%.6g path_ratio=%.6g\n",
      w.name.c_str(), ind.label.c_str(), ind.internode_traffic_kbps,
      ind.round_trip_delay_ms, ind.packets_dropped_per_sec,
      ind.updates_per_trunk_sec, ind.path_ratio());
}

/// Host-speed calibration. This host shares its cores and caches with other
/// machines' work, and its speed drifts by tens of percent, often for a
/// whole run, so every raw time in a run moves with it. A fixed kernel is
/// timed between repetitions: hold operations (pop the smallest key, push it
/// back later) on a binary heap of 64Ki keys, 512 KiB, the textbook
/// discrete-event-queue loop. Its mix of branches, dependent loads and
/// integer arithmetic slows with the simulator when the host is busy. The
/// end-to-end times are scaled by kReferenceS over the median kernel time,
/// which puts them at one reference host speed.
class HostSpeed {
 public:
  /// Kernel time that the scaling maps to, about the median on a quiet
  /// 4-core development host.
  static constexpr double kReferenceS = 0.02;

  HostSpeed() { heap_.reserve(kKeys); }

  /// Times one kernel run.
  void sample() {
    constexpr int kHolds = 300'000;
    const arpa::obs::Stopwatch watch;
    heap_.clear();
    std::uint64_t state = 7;
    for (std::size_t i = 0; i < kKeys; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      heap_.push_back(state >> 20);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
    for (int i = 0; i < kHolds; ++i) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      heap_.back() += state >> 44;
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    }
    checksum_ += heap_.front();
    samples_.push_back(watch.seconds());
  }

  [[nodiscard]] double median_s() const { return median(samples_); }
  [[nodiscard]] std::size_t samples() const { return samples_.size(); }
  /// Multiplier from raw host seconds to reference seconds.
  [[nodiscard]] double factor() const { return kReferenceS / median_s(); }
  [[nodiscard]] std::uint64_t checksum() const { return checksum_; }

 private:
  static constexpr std::size_t kKeys = std::size_t{1} << 16;
  std::vector<std::uint64_t> heap_;
  std::vector<double> samples_;
  std::uint64_t checksum_ = 0;
};

int shard_count(const Workload& w) {
  const unsigned cores = std::max(1U, std::thread::hardware_concurrency());
  return std::min(w.shards, static_cast<int>(cores));
}

/// Events by which a sharded run's total differs from the one-shard run's.
std::uint64_t event_drift(std::uint64_t k1_events, std::uint64_t k_events) {
  return k1_events > k_events ? k1_events - k_events : k_events - k1_events;
}

/// The sharded engine against the one-shard run. Packets that reach one PSN
/// in the same microsecond from different shards are served in source-shard
/// order, not in one-shard schedule order (docs/performance.md, "Sharded
/// engine"). leo-grid's intra-plane trunks all have one delay, so such ties
/// occur, and the event total at K shards can differ from K=1 by a few
/// events (0 to 2 of about 900,000 on leo256). The total is checked to
/// within kShardEventTolerance of K=1; the difference itself is reported as
/// sim.shard.event_drift, and is 0 once the tie order is K-independent.
constexpr double kShardEventTolerance = 1e-3;

void check_shard_events(CheckLog& checks, const std::string& where, int shards,
                        std::uint64_t k1_events, std::uint64_t k_events) {
  const std::uint64_t drift = event_drift(k1_events, k_events);
  std::printf("# %s events K=1 %llu, K=%d %llu (drift %llu)\n", where.c_str(),
              static_cast<unsigned long long>(k1_events), shards,
              static_cast<unsigned long long>(k_events),
              static_cast<unsigned long long>(drift));
  checks.check(static_cast<double>(drift) <=
                   kShardEventTolerance * static_cast<double>(k1_events),
               where + ": event total at K=" + std::to_string(shards) +
                   " within " + std::to_string(kShardEventTolerance) +
                   " of K=1 (drift " + std::to_string(drift) + ")");
}

/// --trace 0: repeat the workload until `seconds` have elapsed.
int run_end_to_end(const Workload& w, const Args& args) {
  constexpr int kMinReps = 3;
  constexpr std::size_t kMinSetups = 10;
  constexpr int kSamplesPerRep = 2;
  const int shards = shard_count(w);
  CheckLog checks;
  std::vector<double> run_s;
  std::vector<double> setup_s;
  std::vector<double> events_per_sec;
  std::vector<std::uint64_t> digests;
  std::uint64_t events = 0;
  HostSpeed host;
  const arpa::obs::Stopwatch budget;
  int reps = 0;
  while (reps < kMinReps || budget.seconds() < args.seconds) {
    for (int i = 0; i < kSamplesPerRep; ++i) host.sample();
    double rep_run = 0.0;
    double rep_setup = 0.0;
    std::uint64_t rep_events = 0;
    for (std::size_t m = 0; m < w.metrics.size(); ++m) {
      // The drain and gate run once per run; later repetitions are
      // checked through their digest, which keeps them short.
      const PassResult p = run_pass(w, w.metrics[m], args.seed,
                                    PassOptions{.gate = reps == 0});
      checks += p.checks;
      rep_run += p.run_s;
      rep_setup += p.setup.total();
      rep_events += p.events;
      if (reps == 0) {
        digests.push_back(p.digest);
        std::printf("# digest %s seed=%llu %s %016llx\n", w.name.c_str(),
                    static_cast<unsigned long long>(args.seed),
                    arpa::metrics::to_string(w.metrics[m]),
                    static_cast<unsigned long long>(p.digest));
        if (w.metrics.size() > 1) print_paper_outputs(w, p);
      } else {
        checks.check(p.digest == digests[m],
                     w.name + ": simulated digest repeats across passes");
      }
    }
    run_s.push_back(rep_run);
    setup_s.push_back(rep_setup);
    events_per_sec.push_back(ratio(static_cast<double>(rep_events), rep_run));
    events = rep_events;
    ++reps;
  }
  // The kernel brackets every repetition, the last one too.
  for (int i = 0; i < kSamplesPerRep; ++i) host.sample();
  // Set-up is short next to a pass, so top its samples up with set-up-only
  // repetitions until its median rests on kMinSetups of them.
  while (setup_s.size() < kMinSetups) {
    double rep_setup = 0.0;
    for (const arpa::metrics::MetricKind metric : w.metrics) {
      rep_setup += set_up(w, metric, args.seed, 1).times.total();
    }
    setup_s.push_back(rep_setup);
  }
  // Before the sharded pass below, so it is the timed workload's peak.
  const double peak_mb = peak_rss_mb();
  if (shards > 1) {
    std::uint64_t k_events = 0;
    for (const arpa::metrics::MetricKind metric : w.metrics) {
      const PassResult k =
          run_pass(w, metric, args.seed, PassOptions{.shards = shards});
      const PassResult again = run_pass(
          w, metric, args.seed, PassOptions{.shards = shards, .gate = false});
      checks += k.checks;
      checks.check(again.digest == k.digest,
                   w.name + ": simulated digest at K=" +
                       std::to_string(shards) + " repeats");
      k_events += k.events;
    }
    check_shard_events(checks, w.name, shards, events, k_events);
  }
  std::printf("# %s seed=%llu reps=%d events=%llu run_s:", w.name.c_str(),
              static_cast<unsigned long long>(args.seed), reps,
              static_cast<unsigned long long>(events));
  for (const double v : run_s) std::printf(" %.4f", v);
  const double f = host.factor();
  std::printf(
      "\n# raw medians: run_s=%.6g s setup_s=%.6g s; host kernel median "
      "%.6g s over %zu runs, times scaled by %.6g (checksum %llu)\n",
      median(run_s), median(setup_s), host.median_s(), host.samples(), f,
      static_cast<unsigned long long>(host.checksum()));
  print_result(checks, {
                           {"run_s", median(run_s) * f, "s"},
                           {"events_per_sec", median(events_per_sec) / f,
                            "1/s"},
                           {"setup_s", median(setup_s) * f, "s"},
                           {"peak_rss_mb", peak_mb, "MB"},
                       });
  return 0;
}

/// Per-layer totals over a workload's passes (one per metric).
struct LayerTotals {
  SetupTimes setup;
  double setup_rss_mb = 0.0;
  double spf_ctor_s = 0.0;
  double partition_s = 0.0;
  double audit_s = 0.0;
  double run_k1_s = 0.0;     ///< untraced, one shard
  double run_traced_s = 0.0; ///< traced, one shard
  double run_k_s = 0.0;      ///< untraced, at the workload's shard count
  arpa::obs::Counters live;  ///< untraced one-shard pass counters
  std::uint64_t events = 0;
  double lookahead_us = 0.0;
  std::uint64_t edge_cut = 0;
  std::uint64_t windows = 0;
  std::uint64_t event_drift = 0;  ///< |events at K - events at K=1|
  double queue_s = 0.0;
  std::uint64_t queue_ops = 0;
  SpfReplay spf;
  FloodReplay flood;
  MetricReplay metric;
  std::uint64_t reports = 0;  ///< reported costs within the horizon
};

/// --trace 1: untraced, traced and sharded passes, then per-layer replays.
int run_per_layer(const Workload& w, const Args& args) {
  constexpr std::size_t kSampleRoots = 16;
  constexpr std::uint64_t kQueuePairs = 1'000'000;
  const int shards = shard_count(w);
  CheckLog checks;
  LayerTotals t;
  for (const arpa::metrics::MetricKind metric : w.metrics) {
    const std::string where = w.name + " " + arpa::metrics::to_string(metric);
    // The first pass warms the process (heap, page tables), so that the
    // traced and untraced passes after it are timed alike.
    const PassResult warm =
        run_pass(w, metric, args.seed, PassOptions{.shards = 1});
    if (t.setup_rss_mb == 0.0) t.setup_rss_mb = warm.setup_rss_mb;
    arpa::obs::RecordingTraceSink sink{warm.topo->link_count()};
    const PassResult traced =
        run_pass(w, metric, args.seed,
                 PassOptions{.shards = 1, .sink = &sink,
                             .sample_roots = kSampleRoots});
    const PassResult base =
        run_pass(w, metric, args.seed, PassOptions{.shards = 1});
    const arpa::net::Topology& topo = *traced.topo;
    checks += warm.checks;
    checks += traced.checks;
    checks += base.checks;
    checks.check(traced.digest == base.digest,
                 where + ": tracing leaves the simulated digest unchanged");

    t.setup.build_topology_s += base.setup.build_topology_s;
    t.setup.network_ctor_s += base.setup.network_ctor_s;
    t.setup.install_faults_s += base.setup.install_faults_s;
    t.setup.add_traffic_s += base.setup.add_traffic_s;
    t.setup.sources += base.setup.sources;
    t.audit_s += base.audit_s;
    t.run_k1_s += base.run_s;
    t.run_traced_s += traced.run_s;
    t.live += base.counters;
    t.events += base.events;

    const arpa::obs::Stopwatch partition_watch;
    const arpa::net::Partition part =
        arpa::net::partition_topology(topo, shards, args.seed);
    t.partition_s += partition_watch.seconds();
    if (shards > 1) {
      const PassResult sharded =
          run_pass(w, metric, args.seed, PassOptions{.shards = shards});
      checks += sharded.checks;
      check_shard_events(checks, where, shards, base.events, sharded.events);
      t.event_drift += event_drift(base.events, sharded.events);
      t.run_k_s += sharded.run_s;
      t.lookahead_us = sharded.lookahead_us;
      t.windows += sharded.windows;
    } else {
      t.run_k_s += base.run_s;
    }
    t.edge_cut += part.edge_cut(topo);

    const std::vector<CostSample> stream = cost_stream(topo, sink);
    const auto horizon = static_cast<std::int64_t>(traced.horizon_us);
    const SpfReplay spf =
        replay_spf(topo, metric, stream, horizon, traced.sampled_roots,
                   traced.sampled_trees);
    checks.check(spf.roots_sampled > 0 &&
                     spf.roots_matched == spf.roots_sampled,
                 where + ": replayed SPF trees equal the live trees at " +
                     std::to_string(spf.roots_matched) + " of " +
                     std::to_string(spf.roots_sampled) + " sampled roots");
    t.spf_ctor_s += spf.ctor_s;
    t.spf.replay_s += spf.replay_s;
    t.spf.incremental += spf.incremental;
    t.spf.skipped += spf.skipped;
    t.spf.roots_matched += spf.roots_matched;
    t.spf.roots_sampled += spf.roots_sampled;

    const FloodReplay flood = replay_flooding(topo, stream, horizon);
    checks.check(flood.accepted_once,
                 where + ": flooding replay accepts each update once per PSN");
    t.flood.seconds += flood.seconds;
    t.flood.copies += flood.copies;

    const MetricReplay mr = replay_metric(topo, sink, horizon);
    t.metric.seconds += mr.seconds;
    t.metric.periods += mr.periods;
    t.reports += static_cast<std::uint64_t>(std::count_if(
        stream.begin(), stream.end(),
        [horizon](const CostSample& s) { return s.at_us <= horizon; }));

    const std::uint64_t depth = base.counters.event_queue_peak_depth;
    // Little's law: mean residence = population / event rate.
    const double mean_gap_us =
        ratio(static_cast<double>(depth) * static_cast<double>(base.horizon_us),
              static_cast<double>(base.events));
    const QueueReplay q = replay_event_queue(depth, mean_gap_us, kQueuePairs);
    t.queue_s += q.seconds;
    t.queue_ops += q.ops;
  }

  const arpa::obs::Counters& c = t.live;
  const double hold_ns =
      1e9 * ratio(t.queue_s, static_cast<double>(t.queue_ops));
  const double copy_ns =
      1e9 * ratio(t.flood.seconds, static_cast<double>(t.flood.copies));
  const double period_ns =
      1e9 * ratio(t.metric.seconds, static_cast<double>(t.metric.periods));
  // Layer time shares of the traced run, each a replayed per-operation cost
  // times the live operation count (the SPF replay covers every root).
  const double queue_layer_s =
      hold_ns * 1e-9 * 2.0 * static_cast<double>(t.events);
  const double spf_layer_s = t.spf.replay_s;
  const double flood_layer_s =
      copy_ns * 1e-9 * static_cast<double>(c.update_packets_sent);
  const double metric_layer_s =
      period_ns * 1e-9 * static_cast<double>(t.metric.periods);
  const double residual_s = t.run_traced_s - queue_layer_s - spf_layer_s -
                            flood_layer_s - metric_layer_s;
  const auto share = [&](double s) { return ratio(s, t.run_traced_s); };
  const double passes = static_cast<double>(c.spf_incremental);
  const double replayed =
      static_cast<double>(t.spf.incremental + t.spf.skipped);

  std::printf(
      "# %s seed=%llu shards=%d traced_run_s=%.6g (K=1 untraced %.6g)\n",
      w.name.c_str(), static_cast<unsigned long long>(args.seed), shards,
      t.run_traced_s, t.run_k1_s);
  print_result(
      checks,
      {
          {"net.build_topology_s", t.setup.build_topology_s, "s"},
          {"sim.network_ctor_s", t.setup.network_ctor_s, "s"},
          {"routing.spf.ctor_s", t.spf_ctor_s, "s"},
          {"traffic.add_traffic_s", t.setup.add_traffic_s, "s"},
          {"sim.install_faults_s", t.setup.install_faults_s, "s"},
          {"traffic.sources", static_cast<double>(t.setup.sources), "count"},
          {"sim.setup_rss_mb", t.setup_rss_mb, "MB"},
          {"sim.events", static_cast<double>(t.events), "count"},
          {"sim.event_queue.peak_depth",
           static_cast<double>(c.event_queue_peak_depth), "count"},
          {"sim.event_queue.resizes",
           static_cast<double>(c.event_queue_resizes), "count"},
          {"sim.event_queue.overflow_scheduled",
           static_cast<double>(c.event_queue_overflow_scheduled), "count"},
          {"sim.event_queue.hold_ns_per_op", hold_ns, "ns"},
          {"sim.packets_forwarded", static_cast<double>(c.packets_forwarded),
           "count"},
          {"sim.packets_dropped", static_cast<double>(c.packets_dropped),
           "count"},
          {"sim.packet_pool.recycle_ratio",
           ratio(static_cast<double>(c.packet_pool_recycled),
                 static_cast<double>(c.packet_pool_acquired)),
           "ratio"},
          {"sim.dataplane.residual_s", residual_s, "s"},
          {"routing.spf.incremental", static_cast<double>(c.spf_incremental),
           "count"},
          {"routing.spf.skipped", static_cast<double>(c.spf_skipped), "count"},
          {"routing.spf.nodes_touched",
           static_cast<double>(c.spf_nodes_touched), "count"},
          {"routing.spf.skip_ratio",
           ratio(static_cast<double>(c.spf_skipped),
                 passes + static_cast<double>(c.spf_skipped)),
           "ratio"},
          {"routing.spf.touched_per_pass",
           ratio(static_cast<double>(c.spf_nodes_touched), passes), "count"},
          {"routing.spf.replay_s", t.spf.replay_s, "s"},
          {"routing.spf.replay_ns_per_update",
           1e9 * ratio(t.spf.replay_s, replayed), "ns"},
          {"routing.spf.replay_incremental",
           static_cast<double>(t.spf.incremental), "count"},
          {"routing.spf.replay_skipped", static_cast<double>(t.spf.skipped),
           "count"},
          {"routing.spf.replay_roots_matched",
           static_cast<double>(t.spf.roots_matched), "count"},
          {"routing.updates_originated",
           static_cast<double>(c.updates_originated), "count"},
          {"routing.update_packets_sent",
           static_cast<double>(c.update_packets_sent), "count"},
          {"routing.flood.copies_per_update",
           ratio(static_cast<double>(c.update_packets_sent),
                 static_cast<double>(c.updates_originated)),
           "count"},
          {"routing.flood.replay_ns_per_copy", copy_ns, "ns"},
          {"metrics.periods", static_cast<double>(t.metric.periods), "count"},
          {"metrics.reports_per_period",
           ratio(static_cast<double>(t.reports),
                 static_cast<double>(t.metric.periods)),
           "ratio"},
          {"metrics.replay_ns_per_period", period_ns, "ns"},
          {"sim.shard.lookahead_us", t.lookahead_us, "us"},
          {"net.partition.edge_cut", static_cast<double>(t.edge_cut), "count"},
          {"net.partition_s", t.partition_s, "s"},
          {"sim.shard.windows", static_cast<double>(t.windows), "count"},
          {"sim.shard.event_drift", static_cast<double>(t.event_drift),
           "count"},
          {"sim.shard.speedup", ratio(t.run_k1_s, t.run_k_s), "x"},
          {"sim.shard.sync_s", t.run_k_s - t.run_k1_s / shards, "s"},
          {"analysis.audit_s", t.audit_s, "s"},
          {"trace.overhead_s", t.run_traced_s - t.run_k1_s, "s"},
          {"share.event_queue", share(queue_layer_s), "ratio"},
          {"share.spf", share(spf_layer_s), "ratio"},
          {"share.flood", share(flood_layer_s), "ratio"},
          {"share.metric", share(metric_layer_s), "ratio"},
          {"share.dataplane", share(residual_s), "ratio"},
          {"check.fail_ratio",
           ratio(static_cast<double>(checks.failed),
                 static_cast<double>(checks.attempted)),
           "ratio"},
      });
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  try {
    const perfbench::Workload& w = perfbench::find_workload(args.workload);
    return args.trace ? perfbench::run_per_layer(w, args)
                      : perfbench::run_end_to_end(w, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
