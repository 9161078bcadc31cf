// Crash-consistency property tests (DESIGN.md §6 invariants).
//
// The device exposes durable_state() = "what recovery reconstructs if power
// fails right now". These tests cut power at arbitrary instants of random
// workloads and check the paper's ordering guarantees:
//   1. Epoch prefix durability on barrier-compliant devices.
//   2. fdatabarrier(): Hello-before-World across a crash.
//   3. Journal commit order/atomicity (JC never durable without its JD,
//      transactions durable in commit order) on the barrier stack.
//   4. An fsync that returned implies durable data (EXT4-DR, BFS-DR).
//   5. The legacy stack (nobarrier, orderless device) CAN violate ordering —
//      demonstrating the problem the paper sets out to fix.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "blk/block_layer.h"
#include "flash_test_util.h"
#include "fs_test_util.h"
#include "sim/rng.h"

namespace bio {
namespace {

using namespace bio::sim::literals;
using core::StackKind;
using flash::BarrierMode;
using flash::Lba;
using flash::Version;
using sim::Task;

// ---- invariant checkers ----------------------------------------------------

/// Epoch prefix: if any entry of epoch e persisted (its version or a later
/// one for that lba), every entry of every epoch < e must have persisted.
testing::AssertionResult epoch_prefix_holds(
    const std::vector<flash::WritebackCache::Entry>& history,
    const std::unordered_map<Lba, Version>& durable) {
  auto present = [&](const flash::WritebackCache::Entry& e) {
    auto it = durable.find(e.lba);
    return it != durable.end() && it->second >= e.version;
  };
  std::uint64_t max_durable_epoch = 0;
  bool any = false;
  for (const auto& e : history) {
    if (present(e)) {
      max_durable_epoch = std::max(max_durable_epoch, e.epoch);
      any = true;
    }
  }
  if (!any) return testing::AssertionSuccess();
  for (const auto& e : history) {
    if (e.epoch < max_durable_epoch && !present(e)) {
      return testing::AssertionFailure()
             << "entry lba=" << e.lba << " v=" << e.version << " of epoch "
             << e.epoch << " lost although epoch " << max_durable_epoch
             << " has persisted entries";
    }
  }
  return testing::AssertionSuccess();
}

// ---- 1. block-level epoch prefix across barrier modes ----------------------

class EpochPrefixTest
    : public testing::TestWithParam<std::tuple<BarrierMode, bool, int>> {};

TEST_P(EpochPrefixTest, RandomWorkloadRandomCrashPoint) {
  const auto [mode, plp, seed] = GetParam();
  sim::Simulator sim;
  flash::DeviceProfile profile = flash::testutil::test_profile(mode, plp);
  flash::StorageDevice dev(sim, profile);
  blk::BlockLayerConfig bcfg;  // order-preserving defaults
  bcfg.scheduler = "elevator";  // stress: reordering base scheduler
  blk::BlockLayer blk(sim, dev, bcfg);
  dev.start();
  blk.start();

  sim::Rng rng(static_cast<std::uint64_t>(seed));
  auto workload = [&]() -> Task {
    // Page-cache-realistic stream: a page is written at most once per
    // epoch (the kernel keeps one buffer per page), epochs of 1..8 writes.
    // The lba cycles over a 32-page working set, so overwrites happen
    // across epochs but never inside one — intra-epoch duplicate writes
    // are impossible in a real stack and would legally race.
    std::uint64_t until_barrier = rng.uniform(1, 8);
    for (int i = 0; i < 120; ++i) {
      const Lba lba = static_cast<Lba>(i % 32);
      const bool barrier = --until_barrier == 0;
      if (barrier) until_barrier = rng.uniform(1, 8);
      std::vector<std::pair<Lba, Version>> payload;
      payload.emplace_back(lba, blk.next_version());
      blk.submit(blk::make_write_request(sim, std::move(payload),
                                         /*ordered=*/true, barrier));
      if (rng.chance(0.3)) co_await sim.delay(rng.uniform(1, 300) * 1_us);
    }
  };
  sim.spawn("w", workload());

  const sim::SimTime crash_at = rng.uniform(50, 40'000) * 1_us;
  sim.run_until(crash_at);
  const auto h = dev.transfer_history();
  ASSERT_TRUE(h.empty() || h.front().order == 0)
      << "transfer history incomplete";
  EXPECT_TRUE(epoch_prefix_holds(h, dev.durable_state()))
      << "mode=" << flash::to_string(mode) << " plp=" << plp
      << " seed=" << seed << " t=" << crash_at;
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, EpochPrefixTest,
    testing::Combine(testing::Values(BarrierMode::kInOrderRecovery,
                                     BarrierMode::kInOrderWriteback,
                                     BarrierMode::kTransactional),
                     testing::Values(false, true),
                     testing::Range(1, 9)),
    [](const testing::TestParamInfo<EpochPrefixTest::ParamType>& info) {
      std::string name = flash::to_string(std::get<0>(info.param));
      for (auto& c : name)
        if (c == '-') c = '_';
      return name + (std::get<1>(info.param) ? "_plp_" : "_noplp_") +
             std::to_string(std::get<2>(info.param));
    });

// ---- 2. legacy device can violate ordering ---------------------------------

TEST(OrderlessBaselineTest, LegacyStackCanLoseOrdering) {
  // kNone device + legacy dispatch: find at least one (seed, crash time)
  // where an epoch-later write persisted while an earlier one was lost.
  // This is Fig 1's motivation: the orderless IO stack gives no guarantee.
  bool violated = false;
  for (int seed = 1; seed <= 30 && !violated; ++seed) {
    sim::Simulator sim;
    flash::DeviceProfile profile =
        flash::testutil::test_profile(BarrierMode::kNone);
    profile.cache_entries = 64;
    flash::StorageDevice dev(sim, profile);
    blk::BlockLayerConfig bcfg;
    bcfg.scheduler = "elevator";  // the legacy stack reorders (CFQ-like)
    bcfg.epoch_scheduling = false;
    bcfg.order_preserving_dispatch = false;
    blk::BlockLayer blk(sim, dev, bcfg);
    dev.start();
    blk.start();
    sim::Rng rng(static_cast<std::uint64_t>(seed));
    auto workload = [&]() -> Task {
      for (int i = 0; i < 60; ++i) {
        // Intent: barrier after every write (strict order), which the
        // legacy stack ignores.
        std::vector<std::pair<Lba, Version>> payload;
        payload.emplace_back(rng.uniform(0, 15), blk.next_version());
        blk.submit(blk::make_write_request(sim, std::move(payload), true,
                                           /*barrier=*/true));
      }
      co_return;
    };
    sim.spawn("w", workload());
    sim.run_until(rng.uniform(100, 2'000) * 1_us);
    // Epochs were not honoured (device ignores barrier): reconstruct the
    // *intended* epochs (one per write, in submission = version order).
    std::vector<flash::WritebackCache::Entry> intended =
        dev.transfer_history();
    ASSERT_TRUE(intended.empty() || intended.front().order == 0)
        << "transfer history incomplete";
    std::sort(intended.begin(), intended.end(),
              [](const auto& a, const auto& b) {
                return a.version < b.version;
              });
    for (std::uint64_t i = 0; i < intended.size(); ++i)
      intended[i].epoch = i;  // each write its own epoch, program order
    if (!epoch_prefix_holds(intended, dev.durable_state())) violated = true;
  }
  EXPECT_TRUE(violated)
      << "the orderless stack never violated ordering across 30 seeds — "
         "the baseline would be indistinguishable from the barrier stack";
}

// ---- 3. fdatabarrier Hello/World at the filesystem level -------------------

class HelloWorldTest : public testing::TestWithParam<int> {};

TEST_P(HelloWorldTest, WorldNeverPersistsWithoutHello) {
  const int seed = GetParam();
  fs::testutil::StackFixture x(StackKind::kBfsDR);
  sim::Rng rng(static_cast<std::uint64_t>(seed));

  struct Pair {
    Lba hello_lba;
    Version hello_v;
    Lba world_lba;
    Version world_v;
  };
  std::vector<Pair> pairs;

  auto body = [&]() -> Task {
    fs::Inode* f = nullptr;
    co_await x.fs().create("db", f, 64);
    co_await x.fs().write(*f, 0, 1);
    co_await x.fs().fsync(*f);  // settle create metadata
    for (int i = 0; i < 40; ++i) {
      const std::uint32_t hp = static_cast<std::uint32_t>(
          rng.uniform(0, 30));
      co_await x.fs().write(*f, hp, 1);
      Pair p;
      p.hello_lba = f->lba_of_page(hp);
      p.hello_v = x.fs().page_cache().find(f->ino, hp)->version;
      co_await x.fs().fdatabarrier(*f);
      const std::uint32_t wp = static_cast<std::uint32_t>(
          rng.uniform(31, 60));
      co_await x.fs().write(*f, wp, 1);
      p.world_lba = f->lba_of_page(wp);
      p.world_v = x.fs().page_cache().find(f->ino, wp)->version;
      co_await x.fs().fdatabarrier(*f);
      pairs.push_back(p);
      if (rng.chance(0.3)) co_await x.sim().delay(rng.uniform(1, 200) * 1_us);
    }
  };
  x.sim().spawn("app", body());
  x.sim().run_until(rng.uniform(200, 30'000) * 1_us);

  auto durable = x.dev().durable_state();
  auto has = [&](Lba lba, Version v) {
    auto it = durable.find(lba);
    return it != durable.end() && it->second >= v;
  };
  for (const Pair& p : pairs) {
    if (has(p.world_lba, p.world_v)) {
      EXPECT_TRUE(has(p.hello_lba, p.hello_v))
          << "World (v" << p.world_v << ") persisted without Hello (v"
          << p.hello_v << ") — fdatabarrier ordering broken";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HelloWorldTest, testing::Range(1, 13));

// ---- 4. journal commit order & atomicity -----------------------------------

class JournalCrashTest
    : public testing::TestWithParam<std::tuple<StackKind, int>> {};

TEST_P(JournalCrashTest, CommittedTransactionsFormAPrefix) {
  const auto [kind, seed] = GetParam();
  fs::testutil::StackFixture x(kind);
  const fs::testutil::RetiredTxns retired(x.fs().journal());
  sim::Rng rng(static_cast<std::uint64_t>(seed));

  auto body = [&]() -> Task {
    std::vector<fs::Inode*> files(4);
    for (int i = 0; i < 4; ++i) {
      fs::Inode* f = nullptr;
      co_await x.fs().create("f" + std::to_string(i), f, 64);
      files[static_cast<std::size_t>(i)] = f;
    }
    for (int i = 0; i < 50; ++i) {
      fs::Inode* f = files[rng.uniform(0, 3)];
      co_await x.sim().delay(5_ms);  // cross a tick: metadata dirty
      co_await x.fs().write(
          *f, static_cast<std::uint32_t>(rng.uniform(0, 60)), 1);
      if (kind == StackKind::kBfsDR && rng.chance(0.5))
        co_await x.fs().fbarrier(*f);
      else
        co_await x.fs().fsync(*f);
    }
  };
  x.sim().spawn("app", body());
  x.sim().run_until(rng.uniform(1'000, 200'000) * 1_us);

  auto durable = x.dev().durable_state();
  auto has = [&](const std::pair<Lba, Version>& blockv) {
    auto it = durable.find(blockv.first);
    return it != durable.end() && it->second >= blockv.second;
  };
  bool seen_missing = false;
  for (const fs::testutil::RetiredTxn& txn : retired.txns) {
    const bool jc_durable = has(txn.jc_block);
    if (jc_durable) {
      EXPECT_FALSE(seen_missing)
          << "txn " << txn.id << " durable after a lost predecessor — "
             "commit order violated";
      for (const auto& jd : txn.jd_blocks)
        EXPECT_TRUE(has(jd)) << "txn " << txn.id
                             << ": commit record durable but a descriptor/"
                                "log block is missing (atomicity broken)";
    } else {
      seen_missing = true;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, JournalCrashTest,
    testing::Combine(testing::Values(StackKind::kExt4DR, StackKind::kBfsDR),
                     testing::Range(1, 9)),
    [](const testing::TestParamInfo<JournalCrashTest::ParamType>& info) {
      std::string name = core::to_string(std::get<0>(info.param));
      for (auto& c : name)
        if (c == '-') c = '_';
      return name + "_" + std::to_string(std::get<1>(info.param));
    });

// ---- 5. acknowledged fsync implies durable data -----------------------------

class AckedFsyncTest
    : public testing::TestWithParam<std::tuple<StackKind, int>> {};

TEST_P(AckedFsyncTest, ReturnedFsyncIsDurableAtCrash) {
  const auto [kind, seed] = GetParam();
  fs::testutil::StackFixture x(kind);
  sim::Rng rng(static_cast<std::uint64_t>(seed));

  struct Acked {
    Lba lba;
    Version version;
  };
  std::vector<Acked> acked;

  auto body = [&]() -> Task {
    fs::Inode* f = nullptr;
    co_await x.fs().create("db", f, 64);
    for (int i = 0; i < 40; ++i) {
      const std::uint32_t p =
          static_cast<std::uint32_t>(rng.uniform(0, 50));
      co_await x.fs().write(*f, p, 1);
      const Version v = x.fs().page_cache().find(f->ino, p)->version;
      co_await x.fs().fsync(*f);
      acked.push_back({f->lba_of_page(p), v});
    }
  };
  x.sim().spawn("app", body());
  x.sim().run_until(rng.uniform(500, 100'000) * 1_us);

  auto durable = x.dev().durable_state();
  for (const Acked& a : acked) {
    auto it = durable.find(a.lba);
    const bool ok = it != durable.end() && it->second >= a.version;
    EXPECT_TRUE(ok) << core::to_string(kind)
                    << ": fsync returned for lba " << a.lba << " v"
                    << a.version << " but the data did not survive";
  }
}

INSTANTIATE_TEST_SUITE_P(
    DurabilityStacks, AckedFsyncTest,
    testing::Combine(testing::Values(StackKind::kExt4DR, StackKind::kBfsDR),
                     testing::Range(1, 9)),
    [](const testing::TestParamInfo<AckedFsyncTest::ParamType>& info) {
      std::string name = core::to_string(std::get<0>(info.param));
      for (auto& c : name)
        if (c == '-') c = '_';
      return name + "_" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace bio
