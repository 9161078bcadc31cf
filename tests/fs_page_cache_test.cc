// Tests for the page cache's indexed dirty/writeback tracking: dirty ->
// writeback -> clean transitions, dirty-count invariants, lazy completion
// sweeps, drop_file mid-writeback, and a randomized differential run
// against a std::map reference model.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <vector>

#include "blk/request_pool.h"
#include "fs/page_cache.h"
#include "sim/simulator.h"

namespace bio::fs {
namespace {

using blk::RequestPtr;
using PageKey = PageCache::PageKey;

struct Fixture {
  sim::Simulator sim;
  blk::RequestPool pool{sim};
  PageCache cache{sim};

  RequestPtr wb_request(flash::Lba lba) { return pool.make_write({{lba, 1}}); }
  std::vector<RequestPtr> writebacks_of(std::uint32_t ino) {
    std::vector<RequestPtr> out;
    cache.writebacks_of(ino, out);
    return out;
  }
};

TEST(PageCacheTest, DirtyWritebackCleanTransitionsKeepCounts) {
  Fixture x;
  x.cache.write(1, 0, 100, 1, false);
  x.cache.write(1, 1, 101, 2, false);
  x.cache.write(2, 0, 200, 3, false);
  EXPECT_EQ(x.cache.dirty_count(), 3u);
  EXPECT_TRUE(x.cache.check_index_invariants());

  RequestPtr r = x.wb_request(100);
  x.cache.begin_writeback(PageKey{1, 0}, r);
  EXPECT_EQ(x.cache.dirty_count(), 2u);
  EXPECT_EQ(x.writebacks_of(1).size(), 1u);
  EXPECT_TRUE(x.cache.check_index_invariants());

  x.cache.end_writeback(PageKey{1, 0}, r);
  EXPECT_TRUE(x.writebacks_of(1).empty());
  EXPECT_EQ(x.cache.dirty_count(), 2u) << "clean page stays cached";
  EXPECT_EQ(x.cache.total_pages(), 3u);
  EXPECT_TRUE(x.cache.check_index_invariants());
}

TEST(PageCacheTest, DirtyPagesOfIsPerFileAndOrdered) {
  Fixture x;
  x.cache.write(7, 5, 705, 1, false);
  x.cache.write(7, 1, 701, 2, false);
  x.cache.write(9, 0, 900, 3, false);
  x.cache.write(7, 3, 703, 4, false);
  const std::vector<PageKey> dirty = x.cache.dirty_pages_of(7);
  ASSERT_EQ(dirty.size(), 3u);
  EXPECT_EQ(dirty[0].page, 1u);
  EXPECT_EQ(dirty[1].page, 3u);
  EXPECT_EQ(dirty[2].page, 5u);
  EXPECT_TRUE(x.cache.dirty_pages_of(8).empty());
}

TEST(PageCacheTest, AllDirtyHonoursLimitAndGlobalOrder) {
  Fixture x;
  x.cache.write(2, 1, 21, 1, false);
  x.cache.write(1, 9, 19, 2, false);
  x.cache.write(1, 0, 10, 3, false);
  x.cache.write(3, 4, 34, 4, false);
  const std::vector<PageKey> all = x.cache.all_dirty(3);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ((std::pair{all[0].ino, all[0].page}), (std::pair{1u, 0u}));
  EXPECT_EQ((std::pair{all[1].ino, all[1].page}), (std::pair{1u, 9u}));
  EXPECT_EQ((std::pair{all[2].ino, all[2].page}), (std::pair{2u, 1u}));
}

TEST(PageCacheTest, RewriteDuringWritebackKeepsCarrierVisible) {
  Fixture x;
  x.cache.write(1, 0, 100, 1, false);
  RequestPtr r = x.wb_request(100);
  x.cache.begin_writeback(PageKey{1, 0}, r);
  EXPECT_EQ(x.cache.dirty_count(), 0u);

  // New version while the old write is in flight: dirty again, but the old
  // request is still physically in flight and MUST stay visible — a sync
  // path that cannot see it would submit the new version concurrently and
  // the two copies could land out of order (the write-after-write hazard
  // the crash checker caught).
  x.cache.write(1, 0, 100, 9, true);
  EXPECT_EQ(x.cache.dirty_count(), 1u);
  {
    const std::vector<RequestPtr> wb = x.writebacks_of(1);
    ASSERT_EQ(wb.size(), 1u) << "in-flight carrier must remain tracked";
    EXPECT_EQ(wb[0], r);
  }
  EXPECT_TRUE(x.cache.check_index_invariants());

  // The stale request completing must not clear the new dirty state.
  r->completion.trigger();
  x.cache.end_writeback(PageKey{1, 0}, r);
  EXPECT_EQ(x.cache.dirty_count(), 1u);
  EXPECT_TRUE(x.writebacks_of(1).empty());
  const PageCache::PageState* st = x.cache.find(1, 0);
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->dirty);
  EXPECT_EQ(st->version, 9u);
  EXPECT_TRUE(x.cache.check_index_invariants());
}

TEST(PageCacheTest, WritebacksOfSweepsCompletedCarriers) {
  Fixture x;
  x.cache.write(1, 0, 100, 1, false);
  x.cache.write(1, 1, 101, 2, false);
  RequestPtr a = x.wb_request(100);
  RequestPtr b = x.wb_request(101);
  x.cache.begin_writeback(PageKey{1, 0}, a);
  x.cache.begin_writeback(PageKey{1, 1}, b);
  EXPECT_EQ(x.writebacks_of(1).size(), 2u);

  a->completion.trigger();
  const std::vector<RequestPtr> wb = x.writebacks_of(1);
  ASSERT_EQ(wb.size(), 1u) << "completed carrier must be swept";
  EXPECT_EQ(wb[0], b);
  const PageCache::PageState* st = x.cache.find(1, 0);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->writeback, nullptr) << "sweep must drop the stale reference";
  EXPECT_TRUE(x.cache.check_index_invariants());
}

TEST(PageCacheTest, MarkCleanMaintainsCountAndIndex) {
  Fixture x;
  x.cache.write(1, 0, 100, 1, true);
  x.cache.write(1, 1, 101, 2, true);
  EXPECT_EQ(x.cache.dirty_count(), 2u);
  x.cache.mark_clean(PageKey{1, 0});
  EXPECT_EQ(x.cache.dirty_count(), 1u);
  x.cache.mark_clean(PageKey{1, 0});  // idempotent on a clean page
  EXPECT_EQ(x.cache.dirty_count(), 1u);
  EXPECT_EQ(x.cache.dirty_pages_of(1).size(), 1u);
  EXPECT_TRUE(x.cache.check_index_invariants());
}

TEST(PageCacheTest, DropFileMidWritebackPurgesEverything) {
  Fixture x;
  x.cache.write(1, 0, 100, 1, false);
  x.cache.write(1, 1, 101, 2, false);
  x.cache.write(1, 2, 102, 3, false);
  x.cache.write(2, 0, 200, 4, false);
  RequestPtr r = x.wb_request(100);
  x.cache.begin_writeback(PageKey{1, 0}, r);  // page 0 in flight
  EXPECT_EQ(x.cache.dirty_count(), 3u);

  x.cache.drop_file(1);
  EXPECT_EQ(x.cache.dirty_count(), 1u) << "only ino 2's page remains dirty";
  EXPECT_EQ(x.cache.total_pages(), 1u);
  EXPECT_TRUE(x.cache.dirty_pages_of(1).empty());
  EXPECT_TRUE(x.writebacks_of(1).empty());
  EXPECT_EQ(x.cache.find(1, 0), nullptr);
  EXPECT_TRUE(x.cache.check_index_invariants());

  // The in-flight request finishing afterwards must be harmless.
  x.cache.end_writeback(PageKey{1, 0}, r);
  EXPECT_TRUE(x.cache.check_index_invariants());
}

TEST(PageCacheTest, DropFileIsScopedToOneIno) {
  Fixture x;
  for (std::uint32_t ino : {1u, 2u, 3u})
    for (std::uint32_t page = 0; page < 4; ++page)
      x.cache.write(ino, page, ino * 100 + page, page + 1, false);
  EXPECT_EQ(x.cache.dirty_count(), 12u);
  x.cache.drop_file(2);
  EXPECT_EQ(x.cache.dirty_count(), 8u);
  EXPECT_EQ(x.cache.dirty_pages_of(1).size(), 4u);
  EXPECT_EQ(x.cache.dirty_pages_of(3).size(), 4u);
  EXPECT_TRUE(x.cache.check_index_invariants());
}

// ---- differential test against a std::map reference model ----------------

/// The page cache's contract restated over one ordered map: the flat tables
/// must answer every query exactly like this model after every step.
class ReferenceCache {
 public:
  struct Page {
    flash::Lba lba = 0;
    flash::Version version = 0;
    bool dirty = false;
    bool overwrite = false;
    RequestPtr writeback;
  };

  void write(std::uint32_t ino, std::uint32_t page, flash::Lba lba,
             flash::Version version, bool overwrite) {
    Page& p = pages_[PageKey{ino, page}];
    p.lba = lba;
    p.version = version;
    p.overwrite = overwrite;
    p.dirty = true;
  }
  void begin_writeback(const PageKey& key, RequestPtr req) {
    Page& p = pages_.at(key);
    p.dirty = false;
    p.writeback = std::move(req);
  }
  void end_writeback(const PageKey& key, const RequestPtr& req) {
    auto it = pages_.find(key);
    if (it != pages_.end() && it->second.writeback == req)
      it->second.writeback = nullptr;
  }
  std::vector<RequestPtr> writebacks_of(std::uint32_t ino, bool& swept,
                                        bool& swept_failed) {
    std::vector<RequestPtr> out;
    swept = swept_failed = false;
    for (auto& [key, p] : pages_) {
      if (key.ino != ino || p.writeback == nullptr) continue;
      if (!p.writeback->completion.is_set()) {
        out.push_back(p.writeback);
        continue;
      }
      if (p.writeback->failed()) {
        swept_failed = true;
        p.dirty = true;
      }
      swept = true;
      p.writeback = nullptr;
    }
    return out;
  }
  std::size_t redirty_failed(std::uint32_t ino, const RequestPtr& req) {
    std::size_t n = 0;
    for (auto& [key, p] : pages_) {
      if (key.ino != ino || p.writeback == nullptr || p.writeback != req)
        continue;
      p.writeback = nullptr;
      if (!p.dirty) {
        p.dirty = true;
        ++n;
      }
    }
    return n;
  }
  void mark_clean(const PageKey& key) { pages_.at(key).dirty = false; }
  void drop_file(std::uint32_t ino) {
    std::erase_if(pages_,
                  [ino](const auto& kv) { return kv.first.ino == ino; });
  }

  const Page* find(const PageKey& key) const {
    auto it = pages_.find(key);
    return it == pages_.end() ? nullptr : &it->second;
  }
  std::vector<PageKey> dirty_pages_of(std::uint32_t ino) const {
    std::vector<PageKey> out;
    for (const auto& [key, p] : pages_)
      if (key.ino == ino && p.dirty) out.push_back(key);
    return out;
  }
  std::vector<PageKey> all_dirty(std::size_t limit) const {
    std::vector<PageKey> out;
    for (const auto& [key, p] : pages_)
      if (p.dirty && out.size() < limit) out.push_back(key);
    return out;
  }
  std::size_t dirty_count() const {
    std::size_t n = 0;
    for (const auto& [key, p] : pages_) n += p.dirty ? 1 : 0;
    return n;
  }
  std::size_t total_pages() const { return pages_.size(); }
  /// Cached pages of `ino` (any state), for picking operation targets.
  std::vector<PageKey> pages_of(std::uint32_t ino) const {
    std::vector<PageKey> out;
    for (const auto& [key, p] : pages_)
      if (key.ino == ino) out.push_back(key);
    return out;
  }

 private:
  std::map<PageKey, Page> pages_;
};

TEST(PageCacheTest, RandomizedOpsMatchMapReferenceModel) {
  constexpr std::uint32_t kInos = 6;
  constexpr std::uint32_t kPages = 48;
  Fixture x;
  ReferenceCache ref;
  std::mt19937_64 rng(20180214);
  auto pick = [&rng](std::uint32_t n) {
    return static_cast<std::uint32_t>(rng() % n);
  };
  std::vector<RequestPtr> carriers;  // every request handed out, kept alive
  flash::Version next_version = 1;
  std::vector<RequestPtr> got;

  auto compare = [&](int step) {
    SCOPED_TRACE(::testing::Message() << "step " << step);
    ASSERT_TRUE(x.cache.check_index_invariants());
    ASSERT_EQ(x.cache.total_pages(), ref.total_pages());
    ASSERT_EQ(x.cache.dirty_count(), ref.dirty_count());
    // One past the range too: lookups of never-touched inos/pages.
    for (std::uint32_t ino = 0; ino <= kInos; ++ino) {
      ASSERT_EQ(x.cache.dirty_pages_of(ino), ref.dirty_pages_of(ino));
      for (std::uint32_t page = 0; page <= kPages; ++page) {
        const PageCache::PageState* st = x.cache.find(ino, page);
        const ReferenceCache::Page* rp = ref.find(PageKey{ino, page});
        ASSERT_EQ(st != nullptr, rp != nullptr) << ino << ":" << page;
        if (st == nullptr) continue;
        ASSERT_EQ(st->lba, rp->lba);
        ASSERT_EQ(st->version, rp->version);
        ASSERT_EQ(st->dirty, rp->dirty);
        ASSERT_EQ(st->overwrite, rp->overwrite);
        ASSERT_EQ(st->writeback, rp->writeback);
      }
    }
    for (std::size_t limit : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{1000}})
      ASSERT_EQ(x.cache.all_dirty(limit), ref.all_dirty(limit));
  };

  for (int step = 0; step < 4000; ++step) {
    const std::uint32_t ino = pick(kInos);
    const std::vector<PageKey> cached = ref.pages_of(ino);
    const int dice = static_cast<int>(pick(100));
    if (dice < 35 || cached.empty()) {
      // Out-of-order page writes: any page, any order.
      const std::uint32_t page = pick(kPages);
      const bool overwrite = pick(2) == 0;
      const flash::Lba lba = ino * 1000 + page;
      x.cache.write(ino, page, lba, next_version, overwrite);
      ref.write(ino, page, lba, next_version, overwrite);
      ++next_version;
    } else if (dice < 55) {
      // One carrier for a run of cached pages, like submit_data/pdflush.
      RequestPtr r = x.wb_request(ino * 1000);
      carriers.push_back(r);
      const std::size_t first = pick(static_cast<std::uint32_t>(cached.size()));
      const std::size_t n = 1 + pick(4);
      for (std::size_t k = first; k < cached.size() && k < first + n; ++k) {
        x.cache.begin_writeback(cached[k], r);
        ref.begin_writeback(cached[k], r);
      }
    } else if (dice < 67) {
      // Complete an in-flight carrier; a quarter of them fail.
      std::vector<RequestPtr> pending;
      for (const RequestPtr& r : carriers)
        if (!r->completion.is_set()) pending.push_back(r);
      if (!pending.empty()) {
        RequestPtr r =
            pending[pick(static_cast<std::uint32_t>(pending.size()))];
        if (pick(4) == 0) r->cmd.status = flash::IoStatus::kHardError;
        r->completion.trigger();
      }
    } else if (dice < 79) {
      bool swept = false;
      bool swept_failed = false;
      bool ref_swept = false;
      bool ref_swept_failed = false;
      x.cache.writebacks_of(ino, got, &swept, &swept_failed);
      ASSERT_EQ(got, ref.writebacks_of(ino, ref_swept, ref_swept_failed));
      ASSERT_EQ(swept, ref_swept);
      ASSERT_EQ(swept_failed, ref_swept_failed);
    } else if (dice < 84) {
      const PageKey key =
          cached[pick(static_cast<std::uint32_t>(cached.size()))];
      const PageCache::PageState* st = x.cache.find(key.ino, key.page);
      if (st->writeback != nullptr) {
        const RequestPtr r = st->writeback;
        ASSERT_EQ(x.cache.redirty_failed(ino, r), ref.redirty_failed(ino, r));
      }
    } else if (dice < 90) {
      const PageKey key =
          cached[pick(static_cast<std::uint32_t>(cached.size()))];
      const RequestPtr r = x.cache.find(key.ino, key.page)->writeback;
      x.cache.end_writeback(key, r);
      ref.end_writeback(key, r);
    } else if (dice < 96) {
      const PageKey key =
          cached[pick(static_cast<std::uint32_t>(cached.size()))];
      x.cache.mark_clean(key);
      ref.mark_clean(key);
    } else {
      // Unlink; later writes to the same ino model its reuse.
      x.cache.drop_file(ino);
      ref.drop_file(ino);
    }
    compare(step);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace bio::fs
