// Tests for the slab/freelist RequestPool: recycling behaviour, embedded
// completion events, allocation statistics, BlockList small-buffer storage,
// and flat absorption (absorb, trigger_absorbed, release).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "blk/io_scheduler.h"
#include "blk/request_pool.h"
#include "sim/simulator.h"

namespace bio::blk {
namespace {

using flash::Lba;
using flash::Version;
using sim::Simulator;

TEST(RequestPoolTest, RecyclesReleasedRequests) {
  Simulator sim;
  RequestPool pool(sim);
  Request* raw;
  {
    RequestPtr r = pool.make_write({{10, 1}});
    raw = r.get();
    EXPECT_EQ(pool.stats().acquired, 1u);
    EXPECT_EQ(pool.stats().fresh_requests, 1u);
    EXPECT_EQ(pool.free_count(), 0u);
  }
  EXPECT_EQ(pool.free_count(), 1u) << "released request must park";
  RequestPtr r2 = pool.make_read(42);
  EXPECT_EQ(r2.get(), raw) << "freelist must hand back the same object";
  EXPECT_EQ(pool.stats().recycled, 1u);
  EXPECT_EQ(pool.stats().fresh_requests, 1u) << "no second slab entry";
  EXPECT_EQ(r2->op, ReqOp::kRead);
  EXPECT_EQ(r2->read_lba, 42u);
  EXPECT_TRUE(r2->blocks.empty()) << "recycled payload must be scrubbed";
  EXPECT_TRUE(r2->absorbed.empty());
}

TEST(RequestPoolTest, SteadyStateCostsNoAllocations) {
  Simulator sim;
  RequestPool pool(sim);
  // Warm-up: one request teaches the pool its slab + control-block sizes.
  { RequestPtr r = pool.make_write({{1, 1}}); }
  const auto warm = pool.stats();
  for (int i = 0; i < 1000; ++i) {
    RequestPtr r = pool.make_write({{Lba(i), Version(i)}});
    r->completion.trigger();
  }
  const auto& s = pool.stats();
  EXPECT_EQ(s.fresh_requests, warm.fresh_requests)
      << "steady-state churn must not grow the slab";
  EXPECT_EQ(s.ctrl_allocs, warm.ctrl_allocs)
      << "control blocks must recycle";
  EXPECT_EQ(s.block_heap_allocs, 0u) << "one-block payloads stay inline";
  EXPECT_LT(s.allocs_per_request(), 0.01);
}

TEST(RequestPoolTest, EmbeddedEventRearmsAcrossReuse) {
  Simulator sim;
  RequestPool pool(sim);
  {
    RequestPtr r = pool.make_flush();
    r->completion.trigger();
    EXPECT_TRUE(r->completion.is_set());
  }
  RequestPtr r2 = pool.make_flush();
  EXPECT_FALSE(r2->completion.is_set())
      << "recycled completion event must be re-armed";
}

TEST(RequestPoolTest, ConcurrentRequestsGetDistinctSlots) {
  Simulator sim;
  RequestPool pool(sim);
  std::vector<RequestPtr> live;
  for (int i = 0; i < 64; ++i)
    live.push_back(pool.make_write({{Lba(i * 2), 1}}));
  for (int i = 0; i < 64; ++i)
    for (int j = i + 1; j < 64; ++j) EXPECT_NE(live[i].get(), live[j].get());
  EXPECT_EQ(pool.slab_size(), 64u);
  live.clear();
  EXPECT_EQ(pool.free_count(), 64u);
}

TEST(RequestPoolTest, PoolOutlivesHandleWhileRequestsLive) {
  // The Impl is shared-ownership: dropping the RequestPool object while
  // requests are outstanding must not dangle their slab.
  Simulator sim;
  RequestPtr r;
  {
    RequestPool pool(sim);
    r = pool.make_write({{7, 3}});
  }
  EXPECT_EQ(r->first_lba(), 7u);
  r->completion.trigger();
  r.reset();  // releases into the (still-alive) Impl, then frees everything
}

TEST(RequestPoolTest, ValidatesContiguousBlocks) {
  Simulator sim;
  RequestPool pool(sim);
  std::vector<Block> blocks{{1, 1}, {3, 2}};
  EXPECT_THROW((void)pool.make_write(std::span<const Block>(blocks)),
               bio::CheckFailure);
}

TEST(BlockListTest, SpillsToHeapAndKeepsCapacityAcrossClears) {
  BlockList list;
  for (std::uint32_t i = 0; i < BlockList::kInlineBlocks; ++i)
    list.push_back({i, 1});
  EXPECT_EQ(list.take_heap_allocs(), 0u) << "inline fill must not allocate";
  list.push_back({BlockList::kInlineBlocks, 1});
  EXPECT_EQ(list.size(), BlockList::kInlineBlocks + 1);
  EXPECT_GT(list.take_heap_allocs(), 0u) << "spill must be counted";
  for (std::uint32_t i = 0; i < list.size(); ++i)
    EXPECT_EQ(list[i].first, Lba(i)) << "spill must preserve order";

  const std::size_t n = list.size();
  list.clear();
  EXPECT_TRUE(list.empty());
  for (std::uint32_t i = 0; i < n; ++i) list.push_back({i, 2});
  EXPECT_EQ(list.take_heap_allocs(), 0u)
      << "re-filling to the old size must reuse the retained capacity";
}

TEST(TriggerAbsorbedTest, DeepChainDoesNotOverflowTheStack) {
  // The deepest merge history the bound allows: every new request
  // front-merges the previous carrier. The old tree nested one level per
  // merge and needed a recursion budget; absorb() flattens it, so
  // completion is one loop whatever the history.
  Simulator sim;
  RequestPool pool(sim);
  constexpr int kMerges = static_cast<int>(kMaxMergedBlocks) - 1;
  std::vector<RequestPtr> keep;  // oldest first
  RequestPtr carrier = pool.make_write({{Lba(kMerges), 1}});
  keep.push_back(carrier);
  for (int i = kMerges - 1; i >= 0; --i) {
    RequestPtr next = pool.make_write({{Lba(i), 1}});
    keep.push_back(next);
    absorb(*next, std::move(carrier));
    carrier = std::move(next);
  }
  ASSERT_EQ(carrier->absorbed.size(), std::size_t(kMerges));
  for (std::size_t i = 0; i < carrier->absorbed.size(); ++i) {
    EXPECT_TRUE(carrier->absorbed[i]->absorbed.empty()) << "depth 1";
    // Preorder: the newest absorbed carrier first, the oldest request last.
    EXPECT_EQ(carrier->absorbed[i].get(), keep[keep.size() - 2 - i].get());
  }
  trigger_absorbed(*carrier);
  for (const RequestPtr& r : keep)
    EXPECT_EQ(r->completion.is_set(), r != carrier);

  // One more merge would exceed what kMaxMergedBlocks blocks can carry.
  EXPECT_THROW(absorb(*pool.make_write({{1000, 1}}), std::move(carrier)),
               bio::CheckFailure);
}

TEST(TriggerAbsorbedTest, PreservesPreorderTriggerSequence) {
  // Completion order is the merge history's preorder: a request absorbed
  // into a carrier completes right after that carrier, before anything the
  // outer carrier absorbed later.
  Simulator sim;
  RequestPool pool(sim);
  RequestPtr root = pool.make_write({{0, 1}});
  RequestPtr a = pool.make_write({{1, 1}});
  RequestPtr a1 = pool.make_write({{2, 1}});
  RequestPtr b = pool.make_write({{3, 1}});
  absorb(*a, a1);
  absorb(*root, a);
  absorb(*root, b);
  EXPECT_TRUE(a->absorbed.empty()) << "a's list moved onto root";

  std::vector<Lba> order;
  auto watch = [&](RequestPtr& r) -> sim::Task {
    co_await r->completion.wait();
    order.push_back(r->first_lba());
  };
  sim.spawn("wa", watch(a));
  sim.spawn("wa1", watch(a1));
  sim.spawn("wb", watch(b));
  sim.run();
  trigger_absorbed(*root);
  sim.run();
  EXPECT_EQ(order, (std::vector<Lba>{1, 2, 3}));
}

TEST(TriggerAbsorbedTest, ElevatorFrontMergeOfACarrierStaysFlat) {
  // The elevator front-merges a request into a carrier that already holds
  // absorbed requests: the merged list must stay one level deep, complete
  // in merge preorder, and return every slot to the pool on release.
  Simulator sim;
  RequestPool pool(sim);
  ElevatorScheduler s;
  std::vector<RequestPtr> reqs;
  for (Lba lba : {10, 11, 9, 8, 12}) {
    reqs.push_back(pool.make_write({{lba, 1}}));
    s.enqueue(reqs.back());
  }
  // 11 back-merges into 10; 9 front-merges carrier 10; 8 front-merges
  // carrier 9; 12 back-merges into carrier 8.
  EXPECT_EQ(s.stats().merges, 4u);
  RequestPtr carrier = s.dequeue();
  ASSERT_NE(carrier, nullptr);
  EXPECT_EQ(s.dequeue(), nullptr);
  EXPECT_EQ(carrier->first_lba(), 8u);
  EXPECT_EQ(carrier->last_lba(), 12u);
  ASSERT_EQ(carrier->absorbed.size(), 4u);
  for (const RequestPtr& a : carrier->absorbed)
    EXPECT_TRUE(a->absorbed.empty()) << "every absorbed list is depth 1";

  std::vector<Lba> order;
  auto watch = [&](Request& r) -> sim::Task {
    co_await r.completion.wait();
    order.push_back(r.first_lba());
  };
  for (const RequestPtr& a : carrier->absorbed) sim.spawn("w", watch(*a));
  sim.run();
  carrier->completion.trigger();
  trigger_absorbed(*carrier);
  sim.run();
  EXPECT_EQ(order, (std::vector<Lba>{9, 10, 11, 12}));

  reqs.clear();
  EXPECT_EQ(pool.free_count(), 0u) << "the carrier still holds every slot";
  carrier.reset();
  EXPECT_EQ(pool.free_count(), pool.slab_size());
  EXPECT_EQ(pool.slab_size(), 5u);
}

}  // namespace
}  // namespace bio::blk
