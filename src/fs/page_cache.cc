#include "fs/page_cache.h"

#include <algorithm>

namespace bio::fs {

namespace {

/// Inserts `page` into an ascending page list that does not hold it.
/// Appends (sequential writes) take the fast path.
void list_insert(std::vector<std::uint32_t>& list, std::uint32_t page) {
  if (list.empty() || list.back() < page) {
    list.push_back(page);
    return;
  }
  list.insert(std::lower_bound(list.begin(), list.end(), page), page);
}

/// Removes `page` from an ascending page list that holds it.
void list_erase(std::vector<std::uint32_t>& list, std::uint32_t page) {
  const auto it = std::lower_bound(list.begin(), list.end(), page);
  BIO_CHECK_MSG(it != list.end() && *it == page, "page list out of sync");
  list.erase(it);
}

}  // namespace

PageCache::PageState& PageCache::page_at(const PageKey& key) {
  BIO_CHECK_MSG(key.ino < files_.size() &&
                    key.page < files_[key.ino].pages.size() &&
                    files_[key.ino].pages[key.page].cached,
                "unknown page");
  return files_[key.ino].pages[key.page];
}

void PageCache::set_dirty(FileTable& t, std::uint32_t page) {
  t.pages[page].dirty = true;
  ++dirty_count_;
  list_insert(t.dirty, page);
}

void PageCache::clear_dirty(FileTable& t, std::uint32_t page) {
  t.pages[page].dirty = false;
  BIO_CHECK(dirty_count_ > 0);
  --dirty_count_;
  list_erase(t.dirty, page);
}

void PageCache::write(std::uint32_t ino, std::uint32_t page, flash::Lba lba,
                      flash::Version version, bool overwrite) {
  if (ino >= files_.size()) files_.resize(std::size_t{ino} + 1);
  FileTable& t = files_[ino];
  if (page >= t.pages.size()) t.pages.resize(std::size_t{page} + 1);
  PageState& st = t.pages[page];
  if (!st.cached) {
    st.cached = true;
    ++total_pages_;
  }
  st.lba = lba;
  st.version = version;
  st.overwrite = overwrite;
  if (!st.dirty) set_dirty(t, page);
  // NOTE: an in-flight writeback pointer survives redirtying. The old
  // request is still physically in the scheduler/device carrying the
  // previous version; forgetting it would let a sync path submit the new
  // version concurrently and the two copies could land out of order
  // (write-after-write hazard). wait_stable_pages()/pdflush consult it.
  dirtied_.notify_all();
}

void PageCache::dirty_pages_of(std::uint32_t ino,
                               std::vector<PageKey>& out) const {
  out.clear();
  if (ino >= files_.size()) return;
  const std::vector<std::uint32_t>& dirty = files_[ino].dirty;
  out.reserve(dirty.size());
  for (std::uint32_t page : dirty) out.push_back(PageKey{ino, page});
}

std::vector<PageCache::PageKey> PageCache::dirty_pages_of(
    std::uint32_t ino) const {
  std::vector<PageKey> out;
  dirty_pages_of(ino, out);
  return out;
}

void PageCache::writebacks_of(std::uint32_t ino,
                              std::vector<blk::RequestPtr>& out,
                              bool* swept_completed, bool* swept_failed) {
  out.clear();
  if (swept_completed != nullptr) *swept_completed = false;
  if (swept_failed != nullptr) *swept_failed = false;
  if (ino >= files_.size()) return;
  FileTable& t = files_[ino];
  bool dirtied_any = false;
  // Compacts the list in place: kept pages slide down over swept ones.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < t.wb.size(); ++i) {
    const std::uint32_t page = t.wb[i];
    PageState& st = t.pages[page];
    BIO_CHECK_MSG(st.writeback != nullptr, "writeback list out of sync");
    blk::RequestPtr& wb = st.writeback;
    if (wb->completion.is_set()) {
      // Lazy completion sweep: the carrier already finished (waiting on its
      // set event would be a no-op), so drop the stale reference. This
      // keeps the wait list O(in-flight) and releases the request back to
      // the pool instead of pinning it until the page is rewritten. The
      // caller is told (`swept_completed`): a durability path must raise
      // the inode's persist floor, because "completed" only means
      // *transferred* — the data may still sit in the volatile cache.
      // A carrier that completed with an IO failure never landed its data:
      // redirty the page (its buffered version is intact) and tell the
      // caller, who records the error on the inode.
      if (wb->failed()) {
        if (swept_failed != nullptr) *swept_failed = true;
        if (!st.dirty) {
          set_dirty(t, page);
          dirtied_any = true;
        }
      }
      if (swept_completed != nullptr) *swept_completed = true;
      wb = nullptr;
      continue;
    }
    out.push_back(wb);
    t.wb[kept++] = page;
  }
  t.wb.resize(kept);
  if (dirtied_any) dirtied_.notify_all();
}

void PageCache::begin_writeback(const PageKey& key, blk::RequestPtr req) {
  PageState& st = page_at(key);
  FileTable& t = files_[key.ino];
  if (st.dirty) clear_dirty(t, key.page);
  const bool listed = st.writeback != nullptr;
  st.writeback = std::move(req);
  if (!listed && st.writeback != nullptr)
    list_insert(t.wb, key.page);
  else if (listed && st.writeback == nullptr)
    list_erase(t.wb, key.page);
}

void PageCache::end_writeback(const PageKey& key,
                              const blk::RequestPtr& req) {
  const PageState* found = find(key.ino, key.page);
  if (found == nullptr || found->writeback != req || req == nullptr) return;
  files_[key.ino].pages[key.page].writeback = nullptr;
  list_erase(files_[key.ino].wb, key.page);
}

std::size_t PageCache::redirty_failed(std::uint32_t ino,
                                      const blk::RequestPtr& req) {
  if (ino >= files_.size()) return 0;
  FileTable& t = files_[ino];
  std::size_t redirtied = 0;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < t.wb.size(); ++i) {
    const std::uint32_t page = t.wb[i];
    PageState& st = t.pages[page];
    BIO_CHECK_MSG(st.writeback != nullptr, "writeback list out of sync");
    if (st.writeback != req) {
      t.wb[kept++] = page;
      continue;
    }
    st.writeback = nullptr;
    if (!st.dirty) {
      set_dirty(t, page);
      ++redirtied;
    }
  }
  t.wb.resize(kept);
  if (redirtied > 0) dirtied_.notify_all();
  return redirtied;
}

void PageCache::mark_clean(const PageKey& key) {
  PageState& st = page_at(key);
  if (st.dirty) clear_dirty(files_[key.ino], key.page);
}

void PageCache::drop_file(std::uint32_t ino) {
  if (ino >= files_.size()) return;
  FileTable& t = files_[ino];
  for (const PageState& st : t.pages)
    if (st.cached) --total_pages_;
  BIO_CHECK(dirty_count_ >= t.dirty.size());
  dirty_count_ -= t.dirty.size();
  t.pages.clear();
  t.dirty.clear();
  t.wb.clear();
}

const PageCache::PageState* PageCache::find(std::uint32_t ino,
                                            std::uint32_t page) const {
  if (ino >= files_.size() || page >= files_[ino].pages.size()) return nullptr;
  const PageState& st = files_[ino].pages[page];
  return st.cached ? &st : nullptr;
}

void PageCache::all_dirty(std::size_t limit,
                          std::vector<PageKey>& out) const {
  out.clear();
  for (std::uint32_t ino = 0; ino < files_.size(); ++ino) {
    for (std::uint32_t page : files_[ino].dirty) {
      if (out.size() >= limit) return;
      out.push_back(PageKey{ino, page});
    }
  }
}

std::vector<PageCache::PageKey> PageCache::all_dirty(
    std::size_t limit) const {
  std::vector<PageKey> out;
  all_dirty(limit, out);
  return out;
}

bool PageCache::check_index_invariants() const {
  std::size_t cached_seen = 0;
  std::size_t dirty_seen = 0;
  for (const FileTable& t : files_) {
    if (!std::is_sorted(t.dirty.begin(), t.dirty.end()) ||
        std::adjacent_find(t.dirty.begin(), t.dirty.end()) != t.dirty.end() ||
        !std::is_sorted(t.wb.begin(), t.wb.end()) ||
        std::adjacent_find(t.wb.begin(), t.wb.end()) != t.wb.end())
      return false;
    std::size_t listed_dirty = 0;
    std::size_t listed_wb = 0;
    for (std::uint32_t page = 0; page < t.pages.size(); ++page) {
      const PageState& st = t.pages[page];
      const bool in_dirty =
          std::binary_search(t.dirty.begin(), t.dirty.end(), page);
      const bool in_wb = std::binary_search(t.wb.begin(), t.wb.end(), page);
      if (!st.cached) {
        // A hole carries no state and no list entry.
        if (st.dirty || st.writeback != nullptr || in_dirty || in_wb)
          return false;
        continue;
      }
      ++cached_seen;
      if (in_dirty != st.dirty) return false;
      if (in_wb != (st.writeback != nullptr)) return false;
      listed_dirty += in_dirty ? 1 : 0;
      listed_wb += in_wb ? 1 : 0;
    }
    // No list entry points past the table or at a hole.
    if (listed_dirty != t.dirty.size() || listed_wb != t.wb.size())
      return false;
    dirty_seen += listed_dirty;
  }
  return cached_seen == total_pages_ && dirty_seen == dirty_count_;
}

}  // namespace bio::fs
