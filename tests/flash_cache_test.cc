// Tests for the device write-back cache.
#include <gtest/gtest.h>

#include "flash/cache.h"
#include "sim/simulator.h"

namespace bio::flash {
namespace {

using namespace bio::sim::literals;
using sim::Simulator;
using sim::Task;

TEST(WritebackCacheTest, InsertAssignsDenseOrders) {
  Simulator sim;
  WritebackCache cache(sim, 8);
  auto body = [&]() -> Task {
    co_await cache.insert(10, 1, 0, false);
    co_await cache.insert(20, 2, 0, false);
    co_await cache.insert(30, 3, 1, true);
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_EQ(cache.next_order(), 3u);
  EXPECT_EQ(cache.dirty_count(), 3u);
  const auto h = cache.transfer_history();
  ASSERT_TRUE(h.empty() || h.front().order == 0)
      << "transfer history incomplete";
  EXPECT_EQ(h[0].order, 0u);
  EXPECT_EQ(h[2].epoch, 1u);
  EXPECT_TRUE(h[2].barrier);
}

TEST(WritebackCacheTest, ClaimReturnsFifoOrder) {
  Simulator sim;
  WritebackCache cache(sim, 8);
  std::vector<Lba> claimed;
  auto body = [&]() -> Task {
    co_await cache.insert(10, 1, 0, false);
    co_await cache.insert(20, 2, 0, false);
    WritebackCache::Entry e;
    co_await cache.claim_next(e);
    claimed.push_back(e.lba);
    co_await cache.claim_next(e);
    claimed.push_back(e.lba);
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_EQ(claimed, (std::vector<Lba>{10, 20}));
}

TEST(WritebackCacheTest, ClaimBlocksUntilInsert) {
  Simulator sim;
  WritebackCache cache(sim, 8);
  sim::SimTime claimed_at = 0;
  auto drainer = [&]() -> Task {
    WritebackCache::Entry e;
    co_await cache.claim_next(e);
    claimed_at = sim.now();
  };
  auto writer = [&]() -> Task {
    co_await sim.delay(40_us);
    co_await cache.insert(1, 1, 0, false);
  };
  sim.spawn("d", drainer());
  sim.spawn("w", writer());
  sim.run();
  EXPECT_EQ(claimed_at, 40_us);
}

TEST(WritebackCacheTest, FullCacheBackpressuresInsert) {
  Simulator sim;
  WritebackCache cache(sim, 2);
  sim::SimTime third_insert_at = 0;
  auto writer = [&]() -> Task {
    co_await cache.insert(1, 1, 0, false);
    co_await cache.insert(2, 2, 0, false);
    co_await cache.insert(3, 3, 0, false);  // blocks: capacity 2
    third_insert_at = sim.now();
  };
  auto drainer = [&]() -> Task {
    co_await sim.delay(100_us);
    WritebackCache::Entry e;
    co_await cache.claim_next(e);
    cache.mark_drained(e.order);
  };
  sim.spawn("w", writer());
  sim.spawn("d", drainer());
  sim.run();
  EXPECT_EQ(third_insert_at, 100_us);
}

TEST(WritebackCacheTest, DrainedThroughTracksContiguousPrefix) {
  Simulator sim;
  WritebackCache cache(sim, 8);
  auto body = [&]() -> Task {
    for (int i = 0; i < 3; ++i)
      co_await cache.insert(static_cast<Lba>(i), 1, 0, false);
    WritebackCache::Entry e;
    for (int i = 0; i < 3; ++i) co_await cache.claim_next(e);
    // Drain out of order: 2 then 0; order 1 still pending.
    cache.mark_drained(2);
    cache.mark_drained(0);
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_TRUE(cache.drained_through(1));
  EXPECT_FALSE(cache.drained_through(2));
  EXPECT_FALSE(cache.drained_through(3));
  cache.mark_drained(1);
  EXPECT_TRUE(cache.drained_through(3));
}

TEST(WritebackCacheTest, WaitDrainedThroughWakes) {
  Simulator sim;
  WritebackCache cache(sim, 8);
  sim::SimTime woke_at = 0;
  auto waiter = [&]() -> Task {
    co_await cache.insert(1, 1, 0, false);
    co_await cache.wait_drained_through(1);
    woke_at = sim.now();
  };
  auto drainer = [&]() -> Task {
    WritebackCache::Entry e;
    co_await cache.claim_next(e);
    co_await sim.delay(77_us);
    cache.mark_drained(e.order);
  };
  sim.spawn("w", waiter());
  sim.spawn("d", drainer());
  sim.run();
  EXPECT_EQ(woke_at, 77_us);
}

TEST(WritebackCacheTest, LookupReturnsNewestDirtyVersion) {
  Simulator sim;
  WritebackCache cache(sim, 8);
  auto body = [&]() -> Task {
    co_await cache.insert(5, 1, 0, false);
    co_await cache.insert(5, 2, 0, false);
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_EQ(cache.lookup(5), Version{2});
  EXPECT_EQ(cache.lookup(6), std::nullopt);
}

TEST(WritebackCacheTest, LookupDropsWhenNewestDrained) {
  Simulator sim;
  WritebackCache cache(sim, 8);
  auto body = [&]() -> Task {
    co_await cache.insert(5, 1, 0, false);
    WritebackCache::Entry e;
    co_await cache.claim_next(e);
    cache.mark_drained(e.order);
  };
  sim.spawn("t", body());
  sim.run();
  EXPECT_EQ(cache.lookup(5), std::nullopt);
}

TEST(WritebackCacheTest, UndrainedEntriesSnapshotInArrivalOrder) {
  Simulator sim;
  WritebackCache cache(sim, 8);
  auto body = [&]() -> Task {
    co_await cache.insert(1, 1, 0, false);
    co_await cache.insert(2, 2, 0, false);
    co_await cache.insert(3, 3, 1, false);
    WritebackCache::Entry e;
    co_await cache.claim_next(e);
    cache.mark_drained(e.order);
  };
  sim.spawn("t", body());
  sim.run();
  auto entries = cache.undrained_entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].lba, 2u);
  EXPECT_EQ(entries[1].lba, 3u);
}

TEST(WritebackCacheTest, OutOfOrderDrainKeepsWindowConsistent) {
  Simulator sim;
  WritebackCache cache(sim, 8);
  auto body = [&]() -> Task {
    // Orders 0..4; LBA 7 is written twice (orders 1 and 3).
    co_await cache.insert(5, 1, 0, false);
    co_await cache.insert(7, 2, 0, false);
    co_await cache.insert(9, 3, 1, true);
    co_await cache.insert(7, 4, 1, false);
    co_await cache.insert(11, 5, 2, false);
    WritebackCache::Entry e;
    for (int i = 0; i < 5; ++i) co_await cache.claim_next(e);
  };
  sim.spawn("t", body());
  sim.run();
  auto lbas = [&] {
    std::vector<Lba> out;
    for (const auto& e : cache.undrained_entries()) out.push_back(e.lba);
    return out;
  };

  // Drain the newest copy of LBA 7 and a middle entry first.
  cache.mark_drained(3);
  cache.mark_drained(2);
  EXPECT_EQ(cache.dirty_count(), 3u);
  EXPECT_FALSE(cache.drained_through(1));
  EXPECT_TRUE(cache.drained_through(0));
  EXPECT_EQ(cache.lookup(7), std::nullopt)
      << "the newest write of LBA 7 drained; the older copy does not count";
  EXPECT_EQ(cache.lookup(9), std::nullopt);
  EXPECT_EQ(cache.lookup(11), Version{5});
  EXPECT_EQ(lbas(), (std::vector<Lba>{5, 7, 11}));
  EXPECT_EQ(cache.undrained_entries()[1].order, 1u);

  // Draining the oldest moves the window past the already drained 2 and 3
  // only once order 1 drains too.
  cache.mark_drained(0);
  EXPECT_TRUE(cache.drained_through(1));
  EXPECT_FALSE(cache.drained_through(2));
  cache.mark_drained(1);
  EXPECT_TRUE(cache.drained_through(4));
  EXPECT_FALSE(cache.drained_through(5));
  EXPECT_EQ(cache.dirty_count(), 1u);
  EXPECT_EQ(lbas(), (std::vector<Lba>{11}));
  EXPECT_EQ(cache.lookup(5), std::nullopt);

  // Double and unknown drains still fail their check.
  EXPECT_THROW(cache.mark_drained(3), bio::CheckFailure);  // drained, popped
  EXPECT_THROW(cache.mark_drained(5), bio::CheckFailure);  // never inserted
  EXPECT_EQ(cache.dirty_count(), 1u);
  cache.mark_drained(4);
  EXPECT_THROW(cache.mark_drained(4), bio::CheckFailure);
  EXPECT_EQ(cache.dirty_count(), 0u);
  EXPECT_TRUE(cache.drained_through(100));
  EXPECT_TRUE(cache.undrained_entries().empty());
  const auto h = cache.transfer_history();
  ASSERT_TRUE(h.empty() || h.front().order == 0)
      << "transfer history incomplete";
  EXPECT_EQ(h.size(), 5u);
}

TEST(WritebackCacheTest, DoubleOrUnclaimedDrainInsideWindowFails) {
  Simulator sim;
  WritebackCache cache(sim, 8);
  auto body = [&]() -> Task {
    co_await cache.insert(1, 1, 0, false);
    co_await cache.insert(2, 2, 0, false);
    co_await cache.insert(3, 3, 0, false);
    WritebackCache::Entry e;
    co_await cache.claim_next(e);
    co_await cache.claim_next(e);
  };
  sim.spawn("t", body());
  sim.run();
  cache.mark_drained(1);  // order 0 still holds the window open
  EXPECT_THROW(cache.mark_drained(1), bio::CheckFailure);
  EXPECT_THROW(cache.mark_drained(2), bio::CheckFailure) << "not claimed";
  EXPECT_EQ(cache.dirty_count(), 2u);
  EXPECT_FALSE(cache.drained_through(1));
}

TEST(WritebackCacheTest, TransferHistoryKeepsTheLastWindow) {
  constexpr std::uint64_t kWindow = WritebackCache::kHistoryWindow;
  constexpr std::uint64_t kInserts = 2 * kWindow + 7;
  Simulator sim;
  WritebackCache cache(sim, 8);
  // After `n` inserts the history is orders [max(0, n - kWindow), n), in
  // order, complete exactly while nothing has been dropped.
  auto check = [&](std::uint64_t n) {
    const auto h = cache.transfer_history();
    const std::uint64_t first = n > kWindow ? n - kWindow : 0;
    ASSERT_EQ(h.size(), n - first) << "after " << n << " inserts";
    EXPECT_EQ(h.empty() || h.front().order == 0, first == 0)
        << "completeness after " << n << " inserts";
    for (std::uint64_t i = 0; i < h.size(); ++i) {
      const std::uint64_t order = first + i;
      ASSERT_EQ(h[i].order, order) << "after " << n << " inserts";
      EXPECT_EQ(h[i].lba, order % 100);
      EXPECT_EQ(h[i].version, order + 1);
      EXPECT_EQ(h[i].epoch, order / 64);
      EXPECT_EQ(h[i].barrier, order % 64 == 63);
    }
  };
  const std::uint64_t checkpoints[] = {1, kWindow - 1, kWindow, kWindow + 1,
                                       kWindow + 1000, kInserts};
  auto writer = [&]() -> Task {
    const std::uint64_t* next = checkpoints;
    for (std::uint64_t o = 0; o < kInserts; ++o) {
      co_await cache.insert(o % 100, o + 1, o / 64, o % 64 == 63);
      if (o + 1 == *next) {
        check(o + 1);
        ++next;
      }
    }
  };
  auto drainer = [&]() -> Task {
    for (std::uint64_t o = 0; o < kInserts; ++o) {
      WritebackCache::Entry e;
      co_await cache.claim_next(e);
      cache.mark_drained(e.order);
    }
  };
  sim.spawn("w", writer());
  sim.spawn("d", drainer());
  sim.run();
  EXPECT_EQ(cache.next_order(), kInserts);
  EXPECT_EQ(cache.transfer_history().size(), kWindow)
      << "the history never grows past its window";
}

}  // namespace
}  // namespace bio::flash
