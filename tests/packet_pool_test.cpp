// The pooled packet slab (sim/packet_pool.h) and the ring-buffer output
// queues (sim/ring_queue.h) behind the PSN hot paths.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "src/sim/packet.h"
#include "src/sim/packet_pool.h"
#include "src/sim/ring_queue.h"
#include "src/util/alloc_guard.h"

namespace arpanet::sim {
namespace {

TEST(PacketPoolTest, AcquireGrowsThenRecyclesSlots) {
  PacketPool pool;
  const PacketHandle a = pool.acquire();
  const PacketHandle b = pool.acquire();
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.slots(), 2u);
  EXPECT_EQ(pool.in_use(), 2u);

  pool.release(a);
  EXPECT_EQ(pool.in_use(), 1u);
  const PacketHandle c = pool.acquire();
  EXPECT_EQ(c, a) << "freed slot must be recycled before the slab grows";
  EXPECT_EQ(pool.slots(), 2u);
  EXPECT_EQ(pool.recycled(), 1u);
  EXPECT_EQ(pool.acquired(), 3u);
}

TEST(PacketPoolTest, PeakInUseIsAHighWaterMark) {
  PacketPool pool;
  std::vector<PacketHandle> held;
  for (int i = 0; i < 5; ++i) held.push_back(pool.acquire());
  EXPECT_EQ(pool.peak_in_use(), 5u);
  for (const PacketHandle h : held) pool.release(h);
  EXPECT_EQ(pool.in_use(), 0u);
  (void)pool.acquire();
  EXPECT_EQ(pool.peak_in_use(), 5u);
}

TEST(PacketPoolTest, SlotAddressesAreStableAcrossGrowth) {
  PacketPool pool;
  const PacketHandle first = pool.acquire();
  Packet* addr = &pool.at(first);
  // Force the slab through many growth steps; a deque never relocates
  // existing elements, so the first slot must stay put.
  for (int i = 0; i < 1000; ++i) (void)pool.acquire();
  EXPECT_EQ(&pool.at(first), addr);
}

TEST(PacketPoolTest, ReleaseDropsPooledUpdateReferences) {
  PacketPool pool;
  UpdatePool updates;
  pool.attach_update_pool(&updates);

  const UpdateHandle uh = updates.acquire();
  updates.at(uh).origin = 7;
  EXPECT_EQ(updates.in_use(), 1u);

  const PacketHandle h = pool.acquire();
  pool.at(h).update = uh;
  pool.release(h);
  EXPECT_EQ(updates.in_use(), 0u)
      << "a parked slot must not pin routing-update slots";

  // The freed slot is recycled with its reports capacity intact and its
  // identity fields reset.
  const UpdateHandle again = updates.acquire();
  EXPECT_EQ(again, uh);
  EXPECT_EQ(updates.at(again).origin, net::kInvalidNode);
  EXPECT_EQ(updates.recycled(), 1u);
}

TEST(UpdatePoolTest, AddRefKeepsSlotAliveUntilLastRelease) {
  UpdatePool updates;
  const UpdateHandle h = updates.acquire();
  updates.add_ref(h);
  updates.release(h);
  EXPECT_EQ(updates.in_use(), 1u) << "one reference should still be live";
  updates.release(h);
  EXPECT_EQ(updates.in_use(), 0u);
}

TEST(UpdatePoolTest, ReserveParksSlotsThatAcquireWithoutAllocating) {
  UpdatePool updates;
  updates.set_report_capacity(4);
  updates.reserve(3);
  EXPECT_EQ(updates.slots(), 3u);
  EXPECT_EQ(updates.in_use(), 0u);
  std::vector<UpdateHandle> held;
  held.reserve(3);
  const util::AllocGuard guard;
  for (int i = 0; i < 3; ++i) {
    held.push_back(updates.acquire());
    for (int r = 0; r < 4; ++r) {
      updates.at(held.back()).reports.push_back({0, 1.0});
    }
  }
  EXPECT_EQ(guard.allocations(), 0u) << "reserved slots must be warm";
  EXPECT_EQ(updates.slots(), 3u);
  EXPECT_EQ(updates.recycled(), 3u);
  updates.reserve(2);  // never shrinks
  EXPECT_EQ(updates.slots(), 3u);
}

TEST(PacketPoolTest, AcquireWithPacketMovesItIn) {
  PacketPool pool;
  Packet pkt;
  pkt.dst = 3;
  pkt.bits = 568.0;
  const PacketHandle h = pool.acquire(std::move(pkt));
  EXPECT_EQ(pool.at(h).dst, 3u);
  EXPECT_DOUBLE_EQ(pool.at(h).bits, 568.0);
}

TEST(RingQueueTest, FifoOrderAcrossWrapAround) {
  RingQueue<int> q;
  EXPECT_TRUE(q.empty());
  // Fill, drain partially, refill past the old tail so the ring wraps, then
  // grow: order must stay FIFO throughout.
  for (int i = 0; i < 6; ++i) q.push_back(i);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(q.front(), i);
    q.pop_front();
  }
  for (int i = 6; i < 20; ++i) q.push_back(i);  // forces growth while wrapped
  EXPECT_EQ(q.size(), 16u);
  for (int i = 4; i < 20; ++i) {
    EXPECT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(RingQueueTest, CapacityIsPowerOfTwoAndReused) {
  RingQueue<int> q;
  for (int i = 0; i < 9; ++i) q.push_back(i);
  const std::size_t cap = q.capacity();
  EXPECT_EQ(cap & (cap - 1), 0u) << "capacity must be a power of two";
  EXPECT_GE(cap, 9u);
  // Steady-state churn below capacity must not grow the buffer.
  for (int i = 0; i < 1000; ++i) {
    q.pop_front();
    q.push_back(100 + i);
  }
  EXPECT_EQ(q.capacity(), cap);
}

TEST(RingQueueTest, PopResetsTheSlot) {
  RingQueue<std::shared_ptr<int>> q;
  auto payload = std::make_shared<int>(5);
  std::weak_ptr<int> watch = payload;
  q.push_back(std::move(payload));
  q.pop_front();
  EXPECT_TRUE(watch.expired()) << "popped slot must not pin its old value";
}

}  // namespace
}  // namespace arpanet::sim
