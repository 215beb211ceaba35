// Per-shard simulation state for the sharded (conservative parallel) engine.
//
// A Network partitions its PSNs into K shards (src/net/partition.h). Each
// shard owns everything its PSNs touch on the hot path — the event queue and
// clock, the packet and update slabs, and every mutable statistic — so a
// shard's worker thread never writes memory another shard reads during a
// sync window. Cross-shard packets are the single exception, and they travel
// through the outbox mailboxes below, which are only written in the run
// phase and only read in the drain phase, with a barrier between the two.
//
// K=1 is not a special engine: it is the same structure with one shard, one
// thread (the caller's), and mailboxes that never see a message, which is
// what keeps the golden battery byte-identical.

#pragma once

#include <cstdint>
#include <vector>

#include "src/obs/counters.h"
#include "src/routing/flooding.h"
#include "src/sim/network_stats.h"
#include "src/sim/packet.h"
#include "src/sim/packet_pool.h"
#include "src/sim/simulator.h"
#include "src/sim/update_pool.h"
#include "src/stats/time_series.h"
#include "src/util/units.h"

namespace arpanet::sim {

/// A packet crossing a shard boundary. The sender copies the packet out of
/// its slab (releasing its own handle) and the receiver copies it into its
/// slab at drain time; pooled routing-update payloads are carried by value
/// so the two shards' UpdatePools never share a slot.
struct MailMsg {
  std::int64_t arrival_us = 0;  ///< absolute arrival time, microseconds
  std::uint64_t key = 0;        ///< the arrival event's tie key
  net::LinkId link = net::kInvalidLink;
  Packet pkt;
  bool has_update = false;
  routing::RoutingUpdate update;
};

/// One primitive applied by a fault action on the shard owning its target.
/// A compiled FaultAction expands to per-shard op lists at install time
/// (a trunk's two simplex halves may live on different shards).
struct ShardFaultOp {
  enum class Kind : std::uint8_t {
    kSetLink,      ///< set_local_link_up(link, up) at `node`
    kUpgradeFwd,   ///< apply the forward half of prepared upgrade `prepared`
    kUpgradeRev,   ///< apply the reverse half of prepared upgrade `prepared`
  };
  Kind kind = Kind::kSetLink;
  bool up = false;
  net::NodeId node = net::kInvalidNode;
  net::LinkId link = net::kInvalidLink;
  std::uint32_t prepared = 0;
};

/// A fault action's slice of one shard's op list. `primary` marks the shard
/// that owns the action's nominal target; only it counts the action in its
/// stability stats so the merged faults_applied matches the plan.
struct ShardFaultAction {
  std::uint32_t action_index = 0;
  bool primary = false;
  std::uint32_t begin = 0;
  std::uint32_t end = 0;
};

/// Everything one shard's worker thread owns. Cache-line aligned so two
/// shards' hot counters never share a line.
struct alignas(64) Shard {
  Shard(std::uint32_t idx, std::size_t shard_count, util::SimTime stats_bucket)
      : index{idx}, drops{stats_bucket}, outbox(shard_count) {
    pool.attach_update_pool(&updates);
  }

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  std::uint32_t index = 0;
  Simulator sim;
  PacketPool pool;
  UpdatePool updates;

  // Window statistics (reset_stats zeroes these per shard).
  NetworkStats stats;
  StabilityStats stability;
  stats::TimeSeries drops;
  util::SimTime last_fault_at = util::SimTime::zero();
  util::SimTime last_route_change_at = util::SimTime::zero();

  /// Live whole-run counters (the engine/pool fields are read from sim and
  /// pool directly when merging).
  obs::Counters counters;

  /// Upgrades applied by this shard's fault ops, in this shard's time order.
  std::vector<AppliedUpgrade> upgrades_applied;

  /// Compiled fault schedule fragments owned by this shard.
  std::vector<ShardFaultAction> fault_actions;
  std::vector<ShardFaultOp> fault_ops;

  /// Packet-id sequence; ids are (shard << 48) | local so they stay unique
  /// network-wide without a shared counter (shard 0 therefore produces the
  /// same ids a single-threaded run does).
  std::uint64_t packet_seq = 0;

  /// outbox[d]: messages headed to shard d, appended during this shard's
  /// run phase, drained (and cleared) by shard d in the next drain phase.
  std::vector<std::vector<MailMsg>> outbox;
};

}  // namespace arpanet::sim
