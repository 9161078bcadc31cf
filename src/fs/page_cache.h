// Host page cache with per-page writeback state.
//
// Pages move dirty -> writeback (a request is in flight) -> clean. fsync
// collects its file's dirty pages into contiguous write requests and also
// waits for pages already under writeback (submitted by pdflush). The
// background flusher keeps the global dirty count between the configured
// watermarks, which is what the buffered-write scenarios (Fig 1 "buffered",
// Fig 9 "P") exercise.
//
// Storage is flat: one table per inode, indexed by ino, holding a dense
// page array indexed by page (a write's page is bounded by the file's
// extent, which Filesystem::write checks) plus two sorted page vectors —
// the file's dirty pages and its pages with a writeback carrier attached.
// fsync's dirty scan is O(dirty-of-file); pdflush's batch collection walks
// the inode tables in ino order and stops after `limit` pages. The global
// iteration order is ascending ino, then page.
#pragma once

#include <cstdint>
#include <vector>

#include "blk/request.h"
#include "flash/types.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace bio::fs {

class PageCache {
 public:
  struct PageKey {
    std::uint32_t ino;
    std::uint32_t page;
    auto operator<=>(const PageKey&) const = default;
  };

  struct PageState {
    flash::Lba lba = 0;
    flash::Version version = 0;  // version of the newest buffered write
    bool dirty = false;
    /// True if the newest buffered write overwrote already-allocated data
    /// (OptFS journals these selectively).
    bool overwrite = false;
    /// True once the page is in the cache (its table slot is in use).
    bool cached = false;
    /// In-flight write carrying a version of this page: the newest one if
    /// !dirty, an older one if the page was redirtied while under
    /// writeback. Kept until completion so submission paths can enforce
    /// one-in-flight-copy-per-page (stable writeback).
    blk::RequestPtr writeback;
  };

  explicit PageCache(sim::Simulator& sim) : sim_(&sim), dirtied_(sim) {}

  /// Buffers a write. Marks the page dirty with the new version.
  void write(std::uint32_t ino, std::uint32_t page, flash::Lba lba,
             flash::Version version, bool overwrite);

  /// Dirty pages of one file, ascending page order (appended to `out`,
  /// which is cleared first — callers reuse scratch buffers).
  void dirty_pages_of(std::uint32_t ino, std::vector<PageKey>& out) const;
  std::vector<PageKey> dirty_pages_of(std::uint32_t ino) const;

  /// In-flight writeback carriers of `ino`'s pages, in page order (written
  /// to `out`, which is cleared first — callers reuse scratch buffers);
  /// lazily sweeps carriers that already completed (and reports the sweep
  /// via `swept_completed`, so durability paths can raise the inode's
  /// persist floor). A swept carrier that completed with an IO failure
  /// redirties its pages (the buffered content is still here — versions
  /// are identity, not bytes) and is reported via `swept_failed`, so the
  /// caller can advance the inode's wb_err_seq.
  void writebacks_of(std::uint32_t ino, std::vector<blk::RequestPtr>& out,
                     bool* swept_completed = nullptr,
                     bool* swept_failed = nullptr);

  /// Marks `key` as under writeback by `req` (clears dirty).
  void begin_writeback(const PageKey& key, blk::RequestPtr req);

  /// Completes writeback for `key` if `req` is still its current carrier.
  void end_writeback(const PageKey& key, const blk::RequestPtr& req);

  /// Failed-writeback path: redirties every page of `ino` whose current
  /// carrier is `req` (the data never landed — Linux redirties the page and
  /// records the error in the mapping's errseq). Pages rewritten while the
  /// carrier was in flight are already dirty with newer content and only
  /// drop the dead carrier. Returns the number of pages redirtied.
  std::size_t redirty_failed(std::uint32_t ino, const blk::RequestPtr& req);

  /// Clears the dirty bit without a request (OptFS data journaling: the
  /// page's content travels inside the journal descriptor).
  void mark_clean(const PageKey& key);

  /// Drops every page of a deleted file. The inode's table keeps its
  /// capacity for the next file that reuses the ino.
  void drop_file(std::uint32_t ino);

  const PageState* find(std::uint32_t ino, std::uint32_t page) const;

  std::size_t dirty_count() const noexcept { return dirty_count_; }
  std::size_t total_pages() const noexcept { return total_pages_; }

  /// Up to `limit` dirty pages (global), in (ino, page) order — pdflush's
  /// view. O(inodes + limit).
  void all_dirty(std::size_t limit, std::vector<PageKey>& out) const;
  std::vector<PageKey> all_dirty(std::size_t limit) const;

  /// Notified whenever a write dirties a page (pdflush wake-up).
  sim::Notify& dirtied() noexcept { return dirtied_; }

  /// Exhaustively cross-checks the dirty/writeback lists and counters
  /// against the page tables (test hook; O(total table slots)).
  bool check_index_invariants() const;

 private:
  /// One inode's pages.
  struct FileTable {
    /// Indexed by page; slots with !cached are holes.
    std::vector<PageState> pages;
    /// Pages with dirty == true, ascending.
    std::vector<std::uint32_t> dirty;
    /// Pages with a writeback carrier attached (dirty or not), ascending.
    std::vector<std::uint32_t> wb;
  };

  /// Page `key` must be cached.
  PageState& page_at(const PageKey& key);
  /// Sets the dirty bit of a cached page and lists it.
  void set_dirty(FileTable& t, std::uint32_t page);
  /// Clears the dirty bit of a cached page and unlists it.
  void clear_dirty(FileTable& t, std::uint32_t page);

  sim::Simulator* sim_;
  std::vector<FileTable> files_;  // indexed by ino
  std::size_t total_pages_ = 0;
  std::size_t dirty_count_ = 0;
  sim::Notify dirtied_;
};

}  // namespace bio::fs
