// Bounded journal (DESIGN.md §18): a transaction is freed once the journal
// tail passes it and nothing pins it, a freed id reads as retired and
// durable, unlinked inodes are freed at their last close, and a long
// create/unlink churn keeps the journal's footprint under a bound set by
// its spans, pins and metadata homes while every cut still recovers.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "api/vfs.h"
#include "fs/recovery.h"
#include "fs_test_util.h"
#include "sim/rng.h"

namespace bio::fs {
namespace {

using namespace bio::sim::literals;
using core::StackKind;
using sim::Task;
using testutil::StackFixture;

// ---- freed transaction ids -------------------------------------------------

/// Creates "a" and "b" in one transaction T and commits T through b, so a's
/// inode stays dirty under T. `commit_b` is b's sync (fsync or fbarrier).
/// Then churns "c" until T is freed. Returns T.
template <typename CommitB>
Task dirty_a_under_freed_txn(StackFixture& x, Inode*& a, std::uint64_t& tid,
                             CommitB commit_b) {
  Inode* b = nullptr;
  Inode* c = nullptr;
  co_await x.fs().create("a", a, 4);
  co_await x.fs().create("b", b, 4);
  tid = a->txn_id;
  EXPECT_EQ(b->txn_id, tid);
  co_await commit_b(*b);
  EXPECT_TRUE(a->meta_dirty);
  EXPECT_EQ(a->txn_id, tid);
  co_await x.fs().create("c", c, 4);
  for (int i = 0; i < 2000 && x.fs().journal().find_txn(tid) != nullptr;
       ++i) {
    co_await x.sim().delay(5_ms);  // new tick: c's inode dirties again
    co_await x.fs().write(*c, 0, 1);
    co_await x.fs().fsync(*c);
  }
}

class FreedTxnTest : public testing::TestWithParam<StackKind> {};

TEST_P(FreedTxnTest, FsyncOnAFreedTxnReturnsAtOnceWithoutACommit) {
  StackFixture x(GetParam());
  const Journal& j = x.fs().journal();
  auto body = [&]() -> Task {
    Inode* a = nullptr;
    std::uint64_t tid = 0;
    co_await dirty_a_under_freed_txn(
        x, a, tid, [&](Inode& b) { return x.fs().fsync(b); });
    EXPECT_EQ(j.find_txn(tid), nullptr) << "the churn never freed txn " << tid;
    if (j.find_txn(tid) != nullptr) co_return;
    EXPECT_TRUE(j.is_retired(tid));
    const std::uint64_t commits = j.stats().commits;
    const std::uint64_t flushes = x.dev().stats().flushes;
    const sim::SimTime t0 = x.sim().now();
    EXPECT_EQ(co_await x.fs().fsync(*a), FsStatus::kOk);
    EXPECT_EQ(j.stats().commits, commits) << "a freed txn committed again";
    EXPECT_EQ(x.dev().stats().flushes, flushes);
    EXPECT_EQ(x.sim().now(), t0) << "the fsync waited on a freed txn";
    EXPECT_FALSE(a->meta_dirty);
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

INSTANTIATE_TEST_SUITE_P(Stacks, FreedTxnTest,
                         testing::Values(StackKind::kExt4DR,
                                         StackKind::kBfsDR),
                         [](const auto& info) {
                           std::string n = core::to_string(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

TEST(FreedTxnIdTest, OsyncOnAFreedTxnDoesNotCommitAgain) {
  StackFixture x(StackKind::kOptFs);
  const Journal& j = x.fs().journal();
  auto body = [&]() -> Task {
    Inode* a = nullptr;
    std::uint64_t tid = 0;
    co_await dirty_a_under_freed_txn(
        x, a, tid, [&](Inode& b) { return x.fs().fsync(b); });
    EXPECT_EQ(j.find_txn(tid), nullptr) << "the churn never freed txn " << tid;
    if (j.find_txn(tid) != nullptr) co_return;
    const std::uint64_t commits = j.stats().commits;
    EXPECT_EQ(co_await x.fs().fsync(*a), FsStatus::kOk);
    EXPECT_EQ(j.stats().commits, commits) << "a freed txn committed again";
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

TEST(FreedTxnIdTest, FreedUnflushedBarrierFsTxnStillOwesOneFlush) {
  // BarrierFS flushes for a durability caller of a txn that retired for
  // ordering only. Freeing the txn must not drop that flush: the first
  // fsync issues exactly one, the second none.
  StackFixture x(StackKind::kBfsDR);
  const Journal& j = x.fs().journal();
  auto body = [&]() -> Task {
    Inode* a = nullptr;
    std::uint64_t tid = 0;
    co_await dirty_a_under_freed_txn(
        x, a, tid, [&](Inode& b) { return x.fs().fbarrier(b); });
    EXPECT_EQ(j.find_txn(tid), nullptr) << "the churn never freed txn " << tid;
    if (j.find_txn(tid) != nullptr) co_return;
    const std::uint64_t commits = j.stats().commits;
    const std::uint64_t flushes = x.dev().stats().flushes;
    EXPECT_EQ(co_await x.fs().fsync(*a), FsStatus::kOk);
    EXPECT_EQ(x.dev().stats().flushes, flushes + 1);
    co_await x.sim().delay(5_ms);
    a->meta_dirty = true;  // name the same freed txn once more
    EXPECT_EQ(co_await x.fs().fsync(*a), FsStatus::kOk);
    EXPECT_EQ(x.dev().stats().flushes, flushes + 1) << "flushed twice";
    EXPECT_EQ(j.stats().commits, commits);
  };
  x.sim().spawn("t", body());
  x.sim().run();
}

// ---- bounded footprint under churn ----------------------------------------

/// Structural bounds of Journal::Footprint (DESIGN.md §18), checked at every
/// retire: none of them grows with the number of commits.
struct FootprintBounds {
  std::size_t journal_blocks = 0;
  std::size_t metadata_homes = 0;
  std::size_t max_pins = 0;
  std::uint64_t samples = 0;
  std::uint64_t violations = 0;
  std::string first_violation;
  Journal::Footprint peak;

  void check(const Journal::Footprint& f) {
    ++samples;
    peak.retained_txns = std::max(peak.retained_txns, f.retained_txns);
    peak.pinned_txns = std::max(peak.pinned_txns, f.pinned_txns);
    peak.free_txns = std::max(peak.free_txns, f.free_txns);
    peak.records = std::max(peak.records, f.records);
    peak.checkpoint_copies =
        std::max(peak.checkpoint_copies, f.checkpoint_copies);
    peak.data_checkpoint_copies =
        std::max(peak.data_checkpoint_copies, f.data_checkpoint_copies);
    // Each retained txn owns a span (a txn has >= 2 journal blocks once
    // both records exist), is the one reserving, or is pinned.
    const bool ok =
        f.retained_txns <= f.live_spans + 1 + f.pinned_txns &&
        f.retained_txns <= journal_blocks / 2 + 1 + max_pins &&
        f.pinned_txns <= max_pins && f.records <= f.live_spans &&
        f.checkpoint_homes <= metadata_homes &&
        f.checkpoint_copies <= f.checkpoint_homes + journal_blocks &&
        f.data_checkpoint_copies <= f.data_checkpoint_homes + journal_blocks &&
        f.free_txns <= journal_blocks / 2 + 1 + max_pins;
    if (!ok && violations++ == 0)
      first_violation =
          "retained=" + std::to_string(f.retained_txns) +
          " pinned=" + std::to_string(f.pinned_txns) +
          " free=" + std::to_string(f.free_txns) +
          " spans=" + std::to_string(f.live_spans) +
          " records=" + std::to_string(f.records) +
          " homes=" + std::to_string(f.checkpoint_homes) +
          " copies=" + std::to_string(f.checkpoint_copies) +
          " data_homes=" + std::to_string(f.data_checkpoint_homes) +
          " data_copies=" + std::to_string(f.data_checkpoint_copies);
  }
};

class BoundedJournalTest : public testing::TestWithParam<StackKind> {};

TEST_P(BoundedJournalTest, ChurnKeepsTheFootprintBoundedAndCutsRecover) {
  const StackKind kind = GetParam();
  constexpr int kClients = 4;
  constexpr std::uint64_t kCommits = 200'000;
  constexpr int kCuts = 24;
  core::StackConfig cfg = testutil::test_stack_config(kind);
  StackFixture x(kind, &cfg);
  api::Vfs vfs(*x.stack);
  Journal& journal = x.fs().journal();
  // OptFS osync never makes a create durable; its dsync does.
  const api::SyncPolicy policy = kind == StackKind::kOptFs
                                     ? api::SyncPolicy::optfs_dsync()
                                     : api::SyncPolicy::for_stack(kind);

  FootprintBounds bounds;
  bounds.journal_blocks = cfg.fs.journal_blocks;
  bounds.metadata_homes = kDirShards + cfg.fs.max_inodes;
  bounds.max_pins = kClients + 1;
  // Cuts land at random points of the run: the hook stops the simulation
  // at a random commit of each stretch, the loop below runs a random
  // further delay, and the power goes out.
  sim::Rng cut_rng(static_cast<std::uint64_t>(kind) + 17);
  constexpr std::uint64_t kNever = ~std::uint64_t{0};
  std::uint64_t next_cut = kNever;
  journal.set_retire_hook([&](const Txn&) {
    bounds.check(journal.footprint());
    if (journal.stats().commits >= next_cut) x.sim().stop();
  });

  // Names whose create a sync made durable and that no unlink has named
  // since: every cut must recover them.
  std::set<std::string> synced;
  std::uint64_t next_name = 0;
  std::uint64_t deferred_unlinks = 0;
  bool stop = false;
  auto client = [&](int c) -> Task {
    sim::Rng rng(static_cast<std::uint64_t>(c) + 1);
    std::vector<std::string> mine;
    while (!stop) {
      const std::string name = "f" + std::to_string(next_name++);
      api::File f = api::must(
          co_await vfs.open(name, {.create = true, .extent_blocks = 2}));
      api::must(f.set_policy(policy));
      api::must(co_await f.pwrite(0, 1));
      api::must(co_await f.sync_file());
      synced.insert(name);
      mine.push_back(name);
      co_await x.sim().delay(5_ms);  // new tick: the overwrite dirties
      api::must(co_await f.pwrite(0, 1));  // OptFS journals it
      api::must(co_await f.sync_file());
      api::must(f.close());
      if (mine.size() <= 6) continue;
      const std::string victim = mine.front();
      mine.erase(mine.begin());
      synced.erase(victim);
      if (rng.chance(0.5)) {
        // Unlinked while open: the inode lives on for the descriptor and
        // is freed at its last close.
        api::File v = api::must(co_await vfs.open(victim));
        api::must(co_await vfs.unlink(victim));
        api::must(co_await v.pwrite(1, 1));
        api::must(co_await v.sync_file());
        api::must(v.close());
        ++deferred_unlinks;
      } else {
        api::must(co_await vfs.unlink(victim));
      }
    }
  };
  for (int c = 0; c < kClients; ++c) x.sim().spawn("client", client(c));

  const Recovery recovery(journal, x.fs().layout(), x.fs().config());
  int cuts = 0;
  for (; cuts < kCuts; ++cuts) {
    next_cut = kCommits * static_cast<std::uint64_t>(cuts) / kCuts +
               cut_rng.uniform(1, kCommits / kCuts);
    x.sim().run();  // until the hook stops it
    next_cut = kNever;
    x.sim().run_until(x.sim().now() + cut_rng.uniform(0, 2'000) * 1_us);
    // Power cut here: the durable image must recover every synced name.
    const RecoveryReport report = recovery.recover(x.dev().durable_state());
    EXPECT_TRUE(report.clean()) << "cut " << cuts;
    std::set<std::string> recovered;
    for (const auto& rf : report.files) recovered.insert(rf.name);
    for (const std::string& name : synced)
      EXPECT_TRUE(recovered.contains(name))
          << "cut " << cuts << ": synced file " << name << " lost";
  }
  next_cut = kCommits;
  x.sim().run();
  next_cut = kNever;
  stop = true;
  x.sim().run();

  EXPECT_EQ(cuts, kCuts);
  EXPECT_GE(journal.stats().commits, kCommits);
  EXPECT_GT(deferred_unlinks, 1000u);
  EXPECT_GT(x.fs().stats().unlinks, 10'000u);
  EXPECT_EQ(bounds.samples, journal.stats().commits);
  EXPECT_EQ(bounds.violations, 0u) << bounds.first_violation;
  EXPECT_LE(bounds.peak.retained_txns, cfg.fs.journal_blocks / 2 + 1 +
                                           bounds.max_pins);
  EXPECT_GT(journal.footprint().free_txns, 0u) << "nothing was ever freed";
  if (kind == StackKind::kOptFs) {
    EXPECT_GT(journal.stats().journaled_data_blocks, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Stacks, BoundedJournalTest,
                         testing::Values(StackKind::kBfsDR,
                                         StackKind::kExt4DR,
                                         StackKind::kOptFs),
                         [](const auto& info) {
                           std::string n = core::to_string(info.param);
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

}  // namespace
}  // namespace bio::fs
