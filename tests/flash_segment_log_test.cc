// Tests for the log-structured FTL: append ordering, programmed-prefix
// tracking, durability analyses, garbage collection, and the folded append
// history against a full-history reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

#include "flash/segment_log.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace bio::flash {
namespace {

using namespace bio::sim::literals;
using sim::Simulator;
using sim::Task;

Geometry small_geom() {
  return Geometry{.channels = 2,
                  .ways_per_channel = 2,
                  .blocks_per_chip = 8,
                  .pages_per_block = 4};
}

NandTiming fast_timing() {
  return NandTiming{.read_page = 50_us,
                    .program_page = 200_us,
                    .erase_block = 1'000_us,
                    .channel_xfer = 10_us};
}

struct Fixture {
  Simulator sim;
  NandArray nand{sim, small_geom(), fast_timing()};
  SegmentLog log;
  explicit Fixture(BarrierMode mode = BarrierMode::kNone)
      : log(sim, nand, mode) {
    log.start();
  }
};

TEST(SegmentLogTest, AppendBecomesDurableInOrder) {
  Fixture f;
  auto body = [&]() -> Task {
    co_await f.log.append(10, 1);
    co_await f.log.append(20, 2);
  };
  f.sim.spawn("t", body());
  f.sim.run();
  auto durable = f.log.durable_in_order_recovery();
  EXPECT_EQ(durable.at(10), 1u);
  EXPECT_EQ(durable.at(20), 2u);
  EXPECT_EQ(f.log.programmed_prefix(), 2u);
}

TEST(SegmentLogTest, OverwriteLastWriteWins) {
  Fixture f;
  auto body = [&]() -> Task {
    co_await f.log.append(10, 1);
    co_await f.log.append(10, 2);
    co_await f.log.append(10, 3);
  };
  f.sim.spawn("t", body());
  f.sim.run();
  EXPECT_EQ(f.log.durable_in_order_recovery().at(10), 3u);
  EXPECT_EQ(f.log.mapped_version(10), 3u);
}

TEST(SegmentLogTest, PrefixStopsAtInFlightProgram) {
  Fixture f;
  auto writer = [&]() -> Task {
    SegmentLog::Reservation r1, r2, r3;
    co_await f.log.reserve(1, 1, r1);
    co_await f.log.reserve(2, 2, r2);
    co_await f.log.reserve(3, 3, r3);
    // Program out of order: 3 and 1 complete, 2 never starts.
    f.sim.spawn("p3", f.log.program_reserved(r3));
    f.sim.spawn("p1", f.log.program_reserved(r1));
  };
  f.sim.spawn("w", writer());
  f.sim.run();
  // Only entry 1 is in the recovered prefix: entry 2's page is a hole.
  auto durable = f.log.durable_in_order_recovery();
  EXPECT_EQ(durable.size(), 1u);
  EXPECT_EQ(durable.at(1), 1u);
  // The programmed-set analysis (no-barrier device) sees 1 and 3.
  auto programmed = f.log.durable_programmed_set();
  EXPECT_EQ(programmed.size(), 2u);
  EXPECT_TRUE(programmed.contains(3));
}

TEST(SegmentLogTest, CommitPointGatesDurability) {
  Fixture f(BarrierMode::kTransactional);
  auto body = [&]() -> Task {
    co_await f.log.append(1, 1);
    f.log.mark_commit_point();
    co_await f.log.append(2, 2);
  };
  f.sim.spawn("t", body());
  f.sim.run();
  auto durable = f.log.durable_committed();
  EXPECT_TRUE(durable.contains(1));
  EXPECT_FALSE(durable.contains(2));
}

TEST(SegmentLogTest, ParallelProgramsUseMultipleChips) {
  Fixture f;
  auto writer = [&]() -> Task {
    std::vector<SegmentLog::Reservation> rs(4);
    for (int i = 0; i < 4; ++i)
      co_await f.log.reserve(static_cast<Lba>(i), 1, rs[i]);
    std::vector<sim::Thread> ws;
    for (int i = 0; i < 4; ++i)
      ws.push_back(f.sim.spawn("p", f.log.program_reserved(rs[i])));
    for (const auto& w : ws) co_await f.sim.join(w);
  };
  f.sim.spawn("w", writer());
  f.sim.run();
  // 4 consecutive slots stripe over 4 chips; wall time far below 4x serial.
  EXPECT_LT(f.sim.now(), 2 * (200_us + 4 * 10_us));
  EXPECT_EQ(f.log.programmed_prefix(), 4u);
}

TEST(SegmentLogTest, GcReclaimsInvalidatedSegments) {
  Fixture f;
  // Physical capacity = 128 pages. Overwrite a tiny working set far beyond
  // capacity; GC must reclaim continuously or appends would deadlock.
  auto body = [&]() -> Task {
    for (int i = 0; i < 400; ++i)
      co_await f.log.append(static_cast<Lba>(i % 8), static_cast<Version>(i));
  };
  f.sim.spawn("t", body());
  f.sim.run();
  EXPECT_GT(f.log.gc_stats().segments_erased, 0u);
  EXPECT_EQ(f.log.append_count() - f.log.gc_stats().pages_copied, 400u);
  // Every lba maps to its latest version.
  for (Lba l = 0; l < 8; ++l)
    EXPECT_EQ(f.log.mapped_version(l), static_cast<Version>(392 + l));
}

TEST(SegmentLogTest, GcPreservesLastWriteWinsInDurableState) {
  Fixture f;
  auto body = [&]() -> Task {
    for (int i = 0; i < 300; ++i)
      co_await f.log.append(static_cast<Lba>(i % 16),
                            static_cast<Version>(i + 1));
  };
  f.sim.spawn("t", body());
  f.sim.run();
  auto durable = f.log.durable_in_order_recovery();
  for (Lba l = 0; l < 16; ++l) {
    // Last write to lba l: largest i < 300 with i % 16 == l; version i+1.
    const Version expect = l < 12 ? 289 + l : 273 + l;
    EXPECT_EQ(durable.at(l), expect) << "lba " << l;
  }
}

// A slot is valid exactly when its LBA's mapping points at it, so each
// segment's valid_count must equal the mapping entries pointing into it
// at every instant: through random overwrites with programs in flight, GC
// relocating out of many victims, and erased segments reused.
TEST(SegmentLogTest, ValidCountsMatchTheMappingThroughGc) {
  Fixture f;
  constexpr Lba kLbas = 40;
  sim::Rng rng(11);
  f.log.prefill(0.3, kLbas, rng);
  ASSERT_TRUE(f.log.check_valid_counts());
  bool agreed = true;
  auto body = [&]() -> Task {
    sim::Semaphore inflight(f.sim, 4);
    auto program = [&](SegmentLog::Reservation r) -> Task {
      co_await f.log.program_reserved(r);
      agreed = agreed && f.log.check_valid_counts();
      inflight.release();
    };
    for (int i = 0; i < 3'000; ++i) {
      co_await inflight.acquire();
      SegmentLog::Reservation r;
      co_await f.log.reserve(rng.uniform(0, kLbas - 1),
                             static_cast<Version>(i + 1), r);
      agreed = agreed && f.log.check_valid_counts();
      // iolint: detached-owner(every program releases the semaphore, and
      // the loop below waits for all of them before its frame returns)
      f.sim.spawn("p", program(r));
    }
    for (int i = 0; i < 4; ++i) co_await inflight.acquire();
  };
  f.sim.spawn("w", body());
  f.sim.run();
  EXPECT_TRUE(agreed);
  EXPECT_TRUE(f.log.check_valid_counts());
  EXPECT_GT(f.log.gc_stats().segments_erased, 20u);
  EXPECT_GT(f.log.gc_stats().pages_copied, 0u);
}

TEST(SegmentLogTest, PrefillPopulatesMappingWithoutSimTime) {
  Fixture f;
  sim::Rng rng(1);
  f.log.prefill(0.5, /*lba_span=*/32, rng);
  EXPECT_EQ(f.sim.now(), 0u);
  EXPECT_GT(f.log.append_count(), 40u);
  EXPECT_EQ(f.log.programmed_prefix(), f.log.append_count());
}

TEST(SegmentLogTest, PrefilledDeviceStillAppends) {
  Fixture f;
  sim::Rng rng(1);
  f.log.prefill(0.7, 32, rng);
  auto body = [&]() -> Task {
    for (int i = 0; i < 64; ++i)
      co_await f.log.append(static_cast<Lba>(i % 32), 1000 + i);
  };
  f.sim.spawn("t", body());
  f.sim.run();
  EXPECT_EQ(f.log.mapped_version(31), 1000u + 63u);
}

TEST(SegmentLogTest, CommitPointsNeedATransactionalLog) {
  Fixture f;
  EXPECT_THROW(f.log.mark_commit_point(), bio::CheckFailure);
  EXPECT_THROW(f.log.durable_committed(), bio::CheckFailure);
}

TEST(SegmentLogTest, ReadUnmappedLbaCompletesInstantly) {
  Fixture f;
  auto body = [&]() -> Task { co_await f.log.read(999); };
  f.sim.spawn("t", body());
  f.sim.run();
  EXPECT_EQ(sim::SimTime{0}, f.sim.now());
}

TEST(SegmentLogTest, ReadMappedLbaCostsFlashRead) {
  Fixture f;
  auto body = [&]() -> Task {
    co_await f.log.append(5, 1);
    co_await f.log.read(5);
  };
  f.sim.spawn("t", body());
  f.sim.run();
  EXPECT_GE(f.sim.now(), 200_us + 50_us);
}

// ---- folded history ---------------------------------------------------------

/// The append history kept in full, with the durable views computed from
/// every record in log order: the model the folded AppendHistory must match.
class ReferenceHistory {
 public:
  explicit ReferenceHistory(bool transactional)
      : transactional_(transactional) {}

  std::uint64_t append(Lba lba, Version version, bool gc_redundant) {
    recs_.push_back(Rec{lba, version, false, gc_redundant});
    return recs_.size() - 1;
  }
  std::uint64_t append_durable(Lba lba, Version version) {
    recs_.push_back(Rec{lba, version, true, false});
    prefix_ = recs_.size();
    if (transactional_) commit_point_ = recs_.size();
    return recs_.size() - 1;
  }
  void mark_programmed(std::uint64_t i) {
    recs_[i].programmed = true;
    if (i > prefix_) return;
    while (prefix_ < recs_.size() &&
           (recs_[prefix_].programmed || recs_[prefix_].gc_redundant))
      ++prefix_;
  }
  void mark_commit_point() { commit_point_ = recs_.size(); }

  bool programmed(std::uint64_t i) const { return recs_[i].programmed; }
  bool gc_redundant(std::uint64_t i) const { return recs_[i].gc_redundant; }
  Version version(std::uint64_t i) const { return recs_[i].version; }
  std::uint64_t size() const { return recs_.size(); }
  std::uint64_t prefix() const { return prefix_; }
  std::uint64_t commit_point() const { return commit_point_; }

  BlockImage in_order() const { return apply(prefix_, false); }
  BlockImage programmed_set() const { return apply(recs_.size(), true); }
  BlockImage committed() const { return apply(commit_point_, false); }

 private:
  struct Rec {
    Lba lba;
    Version version;
    bool programmed;
    bool gc_redundant;
  };
  BlockImage apply(std::uint64_t end, bool programmed_only) const {
    std::map<Lba, Version> state;
    for (std::uint64_t i = 0; i < end; ++i)
      if (!programmed_only || recs_[i].programmed)
        state[recs_[i].lba] = recs_[i].version;
    return BlockImage({state.begin(), state.end()});
  }

  bool transactional_;
  std::vector<Rec> recs_;
  std::uint64_t prefix_ = 0;
  std::uint64_t commit_point_ = 0;
};

class AppendHistoryDiffTest : public testing::TestWithParam<bool> {};

// Drives the folded history and the full reference through the same random
// reserve/program/relocate/commit steps: programs complete out of order, GC
// copies some still-unprogrammed sources, a prefill comes first. The three
// durable views, the append count and the prefix must agree throughout,
// and the retained tail never exceeds what is in flight plus one fold step.
TEST_P(AppendHistoryDiffTest, MatchesFullHistoryWithABoundedTail) {
  const bool transactional = GetParam();
  constexpr std::uint64_t kSteps = 250'000;
  constexpr Lba kLbas = 256;
  constexpr std::size_t kMaxInflight = 64;
  // Oldest in-flight program / last commit point, in appends behind the
  // log's end. Real programs and transactions complete; so do these.
  constexpr std::uint64_t kMaxLag = 2'000;
  AppendHistory hist(transactional);
  ReferenceHistory ref(transactional);
  sim::Rng rng(transactional ? 17 : 7);

  std::unordered_map<Lba, std::uint64_t> current;  // LBA -> newest record
  for (int i = 0; i < 500; ++i) {
    const Lba lba = rng.uniform(0, kLbas - 1);
    const std::uint64_t idx = hist.append_durable(lba, 0);
    ASSERT_EQ(idx, ref.append_durable(lba, 0));
    current[lba] = idx;
  }

  std::vector<std::uint64_t> inflight;
  Version next_version = 1;
  std::uint64_t relocations = 0, unprogrammed_sources = 0;
  std::size_t max_retained = 0;
  auto program = [&](std::size_t pos) {
    hist.mark_programmed(inflight[pos]);
    ref.mark_programmed(inflight[pos]);
    inflight[pos] = inflight.back();
    inflight.pop_back();
  };
  auto compare = [&](std::uint64_t step) {
    ASSERT_EQ(hist.size(), ref.size()) << "step " << step;
    ASSERT_EQ(hist.programmed_prefix(), ref.prefix()) << "step " << step;
    ASSERT_EQ(hist.durable_in_order_recovery(), ref.in_order())
        << "step " << step;
    ASSERT_EQ(hist.durable_programmed_set(), ref.programmed_set())
        << "step " << step;
    if (transactional) {
      ASSERT_EQ(hist.durable_committed(), ref.committed()) << "step " << step;
    }
  };

  for (std::uint64_t step = 0; step < kSteps; ++step) {
    const std::uint64_t action = rng.uniform(0, 99);
    if (action < 45 && inflight.size() < kMaxInflight) {
      const Lba lba = rng.uniform(0, kLbas - 1);
      const Version v = next_version++;
      const std::uint64_t idx = hist.append(lba, v, false);
      ASSERT_EQ(idx, ref.append(lba, v, false));
      inflight.push_back(idx);
      current[lba] = idx;
    } else if (action < 92 && !inflight.empty()) {
      program(rng.uniform(0, inflight.size() - 1));
    } else if (action < 98 && inflight.size() < kMaxInflight) {
      // GC relocation of an LBA's current copy. Its source may still be
      // programming, except as a GC copy itself: GC joins its copies
      // before it picks the next victim.
      const auto it = current.find(rng.uniform(0, kLbas - 1));
      if (it == current.end()) continue;
      const std::uint64_t src = it->second;
      if (!ref.programmed(src) && ref.gc_redundant(src)) continue;
      const bool redundant = hist.programmed(src);
      ASSERT_EQ(redundant, ref.programmed(src)) << "step " << step;
      const std::uint64_t idx = hist.append(it->first, ref.version(src),
                                            redundant);
      ASSERT_EQ(idx, ref.append(it->first, ref.version(src), redundant));
      inflight.push_back(idx);
      it->second = idx;
      ++relocations;
      unprogrammed_sources += redundant ? 0 : 1;
    } else if (transactional && action >= 98 &&
               (step / 20'000 % 2 == 0 || rng.chance(0.01))) {
      // Phases of frequent commits (the prefix trails the commit point)
      // alternate with rare ones (the prefix passes it).
      hist.mark_commit_point();
      ref.mark_commit_point();
    }

    // Bound every program's and transaction's lag behind the log's end.
    for (;;) {
      const auto oldest = std::min_element(inflight.begin(), inflight.end());
      if (oldest == inflight.end() || ref.size() - *oldest <= kMaxLag) break;
      program(static_cast<std::size_t>(oldest - inflight.begin()));
    }
    if (transactional && ref.size() - ref.commit_point() > kMaxLag) {
      hist.mark_commit_point();
      ref.mark_commit_point();
    }

    // The tail holds the records from the oldest in-flight one (or the
    // last commit point) on, plus less than one fold step.
    std::uint64_t keep_from = ref.size();
    for (std::uint64_t i : inflight) keep_from = std::min(keep_from, i);
    if (transactional) keep_from = std::min(keep_from, ref.commit_point());
    ASSERT_LT(hist.retained(),
              ref.size() - keep_from + AppendHistory::kFoldStep)
        << "step " << step;
    max_retained = std::max(max_retained, hist.retained());

    if (step % 251 == 0) compare(step);
    if (testing::Test::HasFatalFailure()) return;
  }
  compare(kSteps);
  // Drain everything: the whole history folds but the last partial step.
  while (!inflight.empty()) program(0);
  if (transactional) {
    hist.mark_commit_point();
    ref.mark_commit_point();
  }
  compare(kSteps + 1);
  EXPECT_LT(hist.retained(), AppendHistory::kFoldStep);

  EXPECT_GT(ref.size(), 100'000u) << "a long run";
  EXPECT_GT(relocations, 1'000u);
  EXPECT_GT(unprogrammed_sources, 0u)
      << "some relocation must copy a still-unprogrammed source";
  EXPECT_LE(max_retained, kMaxLag + AppendHistory::kFoldStep)
      << "the tail is bounded whatever the run length";
}

INSTANTIATE_TEST_SUITE_P(BothDurabilityModels, AppendHistoryDiffTest,
                         testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "Transactional" : "InOrder";
                         });

TEST(AppendHistoryTest, DurableAppendNeedsAnEmptyTail) {
  AppendHistory hist(false);
  EXPECT_EQ(hist.append_durable(1, 0), 0u);
  EXPECT_EQ(hist.append(2, 1, false), 1u);
  EXPECT_THROW(hist.append_durable(3, 0), bio::CheckFailure);
}

// Through the real log: out-of-order programs across chips with GC running
// on a 128-page device, far past many folds. The retained history stays at
// what is in flight plus one fold step, and recovery still sees every LBA's
// last write.
TEST(SegmentLogTest, LongRunKeepsABoundedHistory) {
  Fixture f;
  constexpr int kAppends = 30'000;
  constexpr Lba kLbas = 40;
  sim::Rng rng(3);
  std::map<Lba, Version> last;
  std::size_t max_retained = 0;
  bool bound_held = true;
  auto body = [&]() -> Task {
    sim::Semaphore inflight(f.sim, 8);
    auto program = [&](SegmentLog::Reservation r) -> Task {
      co_await f.log.program_reserved(r);
      inflight.release();
    };
    for (int i = 0; i < kAppends; ++i) {
      co_await inflight.acquire();
      const Lba lba = rng.uniform(0, kLbas - 1);
      last[lba] = static_cast<Version>(i + 1);
      SegmentLog::Reservation r;
      co_await f.log.reserve(lba, last[lba], r);
      // iolint: detached-owner(every program releases the semaphore, and
      // the loop below waits for all of them before its frame returns)
      f.sim.spawn("p", program(r));
      max_retained = std::max(max_retained, f.log.retained_history());
      bound_held = bound_held &&
                   f.log.retained_history() <
                       f.log.append_count() - f.log.programmed_prefix() +
                           AppendHistory::kFoldStep;
    }
    for (int i = 0; i < 8; ++i) co_await inflight.acquire();
  };
  f.sim.spawn("w", body());
  f.sim.run();
  EXPECT_TRUE(bound_held);
  EXPECT_GT(f.log.gc_stats().pages_copied, 0u);
  EXPECT_GE(f.log.append_count(), static_cast<std::uint64_t>(kAppends));
  EXPECT_EQ(f.log.programmed_prefix(), f.log.append_count());
  EXPECT_LT(max_retained, AppendHistory::kFoldStep + 64);
  EXPECT_EQ(f.log.durable_in_order_recovery(),
            BlockImage({last.begin(), last.end()}));
  for (const auto& [lba, v] : last) EXPECT_EQ(f.log.mapped_version(lba), v);
}

}  // namespace
}  // namespace bio::flash
