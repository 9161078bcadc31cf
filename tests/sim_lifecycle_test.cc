// Tests for the simulated-thread lifecycle: ThreadCtx recycling, the pinning
// Thread handle, and the per-name totals that survive a thread's context.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "sim/sync.h"

namespace bio::sim {
namespace {

using namespace bio::sim::literals;

TEST(ThreadLifecycleTest, MillionSpawnsKeepPoolAtPeakConcurrency) {
  constexpr std::uint64_t kBatch = 4;
  constexpr std::uint64_t kThreads = 1'000'000;
  Simulator sim;
  std::uint64_t finished = 0;
  std::uint64_t next_expected_id = 1;  // the spawner is ordinal 0
  bool ids_in_spawn_order = true;
  auto worker = [&]() -> Task {
    ids_in_spawn_order &= sim.current_thread()->id == next_expected_id++;
    co_await sim.yield();
    ++finished;
  };
  auto spawner = [&]() -> Task {
    for (std::uint64_t i = 0; i < kThreads / kBatch; ++i) {
      for (std::uint64_t k = 0; k < kBatch; ++k) sim.spawn("w", worker());
      co_await sim.delay(1_us);
    }
  };
  sim.spawn("spawner", spawner());
  sim.run();
  EXPECT_EQ(finished, kThreads);
  EXPECT_TRUE(ids_in_spawn_order);
  EXPECT_EQ(sim.thread_count("w"), kThreads);
  EXPECT_EQ(sim.thread_count(), kThreads + 1);
  // Peak concurrency is the spawner plus one batch.
  EXPECT_LE(sim.context_pool_size(), kBatch + 1);
}

TEST(ThreadLifecycleTest, JoinOnFinishedThreadAfterChurnIsImmediate) {
  Simulator sim;
  auto worker = [&]() -> Task { co_await sim.delay(1_us); };
  Thread w = sim.spawn("worker", worker());
  sim.run();
  ASSERT_TRUE(w->finished);
  // Churn: every later thread would take the worker's context if the
  // handle did not pin it.
  std::vector<ThreadCtx*> churned;
  auto churn = [&]() -> Task {
    churned.push_back(sim.current_thread());
    co_await sim.yield();
  };
  for (int i = 0; i < 8; ++i) {
    sim.spawn("churn", churn());
    sim.run();
  }
  for (ThreadCtx* c : churned) EXPECT_NE(c, w.get());

  SimTime joined_at = 0;
  bool joined = false;
  auto waiter = [&]() -> Task {
    co_await sim.join(w);
    joined = true;
    joined_at = sim.now();
  };
  const SimTime start = sim.now();
  Thread wt = sim.spawn("waiter", waiter());
  sim.run();
  EXPECT_TRUE(joined);
  EXPECT_EQ(joined_at, start);
  EXPECT_EQ(wt->blocks, 0u);
  EXPECT_NE(wt.get(), w.get());
  EXPECT_EQ(w->name, "worker") << "a pinned context keeps its fields";
}

TEST(ThreadLifecycleTest, UnpinnedContextIsReusedWithFreshFields) {
  Simulator sim;
  Event ev(sim);
  auto blocker = [&]() -> Task { co_await ev.wait(); };
  Thread a = sim.spawn("a", blocker());
  a->wake_latency = 0;
  Thread copy = a;  // a second pin on the same context
  auto trigger = [&]() -> Task {
    co_await sim.delay(1_us);
    ev.trigger();
  };
  sim.spawn("t", trigger());
  sim.run();
  ThreadCtx* const old = a.get();
  ASSERT_TRUE(old->finished);
  EXPECT_EQ(old->context_switches, 1u);
  a.reset();
  EXPECT_EQ(copy.get(), old) << "one remaining handle still pins it";
  const std::size_t pool = sim.context_pool_size();
  copy.reset();

  bool ran = false;
  auto body = [&]() -> Task {
    ran = true;
    co_return;
  };
  Thread b = sim.spawn("b", body());
  EXPECT_EQ(sim.context_pool_size(), pool) << "no new context allocated";
  // The free list is LIFO and "t" was recycled first, so "a"'s context
  // is the one handed out.
  EXPECT_EQ(b.get(), old);
  EXPECT_EQ(b->name, "b");
  EXPECT_EQ(b->id, 2u);
  EXPECT_FALSE(b->finished);
  EXPECT_EQ(b->context_switches, 0u);
  EXPECT_EQ(b->blocks, 0u);
  EXPECT_FALSE(b->wake_latency.has_value());
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_TRUE(b->finished);
}

TEST(ThreadLifecycleTest, TotalsAgreeBeforeAndAfterThreadsFinish) {
  Simulator sim;
  Event first(sim);
  Event second(sim);
  // app:0 blocks twice and outlives the probe; app:1 and dev:x block once
  // and finish before it; app:2 never blocks.
  auto twice = [&]() -> Task {
    co_await first.wait();
    co_await second.wait();
  };
  auto once = [&]() -> Task { co_await first.wait(); };
  auto never = [&]() -> Task { co_await sim.delay(1_us); };
  Thread a0 = sim.spawn("app:0", twice());
  sim.spawn("app:1", once());  // no handle: recycled at finish
  Thread a2 = sim.spawn("app:2", never());
  sim.spawn("dev:x", once());

  std::uint64_t app_cs_mid = 0, app_n_mid = 0, all_cs_mid = 0, all_n_mid = 0;
  auto probe = [&]() -> Task {
    co_await sim.delay(5_us);
    first.trigger();
    co_await sim.delay(5_us);
    // app:0 is live (1 switch), app:1/app:2/dev:x have finished.
    app_cs_mid = sim.total_context_switches("app:");
    app_n_mid = sim.thread_count("app:");
    all_cs_mid = sim.total_context_switches();
    all_n_mid = sim.thread_count();
    second.trigger();
  };
  sim.spawn("probe", probe());
  sim.run();

  EXPECT_EQ(app_cs_mid, 2u);
  EXPECT_EQ(app_n_mid, 3u);
  EXPECT_EQ(all_cs_mid, 3u);
  EXPECT_EQ(all_n_mid, 5u);

  EXPECT_EQ(a0->context_switches, 2u);
  EXPECT_EQ(a2->context_switches, 0u);
  EXPECT_EQ(sim.total_context_switches("app:"), 3u);
  EXPECT_EQ(sim.total_context_switches("app:0"), a0->context_switches);
  EXPECT_EQ(sim.total_context_switches("dev:"), 1u);
  EXPECT_EQ(sim.total_context_switches(), 4u);
  EXPECT_EQ(sim.thread_count("app:"), 3u);
  EXPECT_EQ(sim.thread_count(), 5u);
}

}  // namespace
}  // namespace bio::sim
