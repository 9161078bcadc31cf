#include "wl/single_writer.h"

#include <algorithm>
#include <utility>

#include "fs/page_cache.h"
#include "sim/rng.h"

namespace bio::wl {
namespace {

using namespace bio::sim::literals;

struct Writer {
  core::Volume& vol;
  api::Vfs& vfs;
  std::string prefix;
  SingleWriterParams p;
  ConcurrentTrace& trace;
  /// The volume degraded read-only (EROFS): stop mutating.
  bool stopped = false;

  /// Notes a failed mutation; only EROFS (degraded volume) is tolerated.
  void on_error(api::Errno e, const char* what) {
    BIO_CHECK_MSG(e == api::Errno::kRoFs, what);
    stopped = true;
  }
};

/// Records one completed write's pages (versions read back from the page
/// cache as the write returns).
void record_write(Writer& w, FileTrace& f, std::uint64_t start_tick,
                  std::uint32_t page, std::uint32_t npages) {
  const std::uint64_t done = w.trace.next_tick();
  for (std::uint32_t p = page; p < page + npages; ++p) {
    const fs::PageCache::PageState* st =
        w.vol.fs().page_cache().find(f.inode->ino, p);
    BIO_CHECK(st != nullptr);
    f.writes.push_back(TraceWrite{f.inode->lba_of_page(p), st->version, p,
                                  start_tick, done, /*writer=*/0});
  }
  ++w.trace.ops_done;
}

/// Issues `intent` on `f`. A kOk return is recorded as one sync fact on
/// `f` — or on every file for the settle sync, whose commit carries every
/// create. With one writer nothing the record snapshots (size, name,
/// unlink state) can change while the sync is suspended, so the values
/// read at return are the values at start.
sim::Task issue_sync(Writer& w, FileTrace& f, api::SyncIntent intent,
                     bool every_file) {
  const api::Syscall call =
      w.vfs.policy_of(f.anchor.fd()).value().resolve(intent);
  const std::uint64_t start = w.trace.next_tick();
  const api::Status st = co_await f.anchor.sync(intent);
  if (!st.ok()) {
    ++w.trace.syncs_failed;
    if (st.error() == api::Errno::kRoFs) w.stopped = true;
    co_return;
  }
  const std::uint64_t done = w.trace.next_tick();
  for (FileTrace& g : w.trace.files) {
    if (!every_file && &g != &f) continue;
    g.syncs.push_back(TraceSync{call, start, done, /*writer=*/0,
                                g.inode->size_blocks, g.rel_names.size() - 1,
                                g.unlinked, {}, {}});
    ++w.trace.syncs_done;
  }
}

sim::Task run(Writer w) {
  ConcurrentTrace& trace = w.trace;
  const SingleWriterParams& p = w.p;
  sim::Rng rng(p.seed);
  trace.writers_total = 1;
  trace.files.resize(p.files);  // never resized again: FileTrace& stable
  for (std::uint32_t i = 0; i < p.files; ++i) {
    FileTrace& f = trace.files[i];
    f.rel_names.push_back("f" + std::to_string(i));
    api::OpenOptions oo;
    oo.create = true;
    oo.extent_blocks = p.extent_blocks;
    api::Result<api::File> r =
        co_await w.vfs.open(w.prefix + f.rel_name(), oo);
    BIO_CHECK_MSG(r.ok(), "single writer: open failed");
    f.anchor = r.value();
    f.inode = w.vol.fs().lookup(f.rel_name());
    BIO_CHECK(f.inode != nullptr);
  }
  // Settle the creates so every later crash point has the namespace.
  co_await issue_sync(w, trace.files.front(), api::SyncIntent::kFullSync,
                      /*every_file=*/true);

  for (std::uint32_t i = 0; i < p.ops && !w.stopped; ++i) {
    FileTrace& f = trace.files[rng.uniform(0, p.files - 1)];
    const int dice = static_cast<int>(rng.uniform(0, 99));
    if (dice < 48) {
      const std::uint32_t n = static_cast<std::uint32_t>(rng.uniform(1, 3));
      const std::uint32_t page = static_cast<std::uint32_t>(
          rng.uniform(0, p.extent_blocks - n));
      const std::uint64_t t0 = trace.next_tick();
      api::Result<std::uint32_t> r = co_await f.anchor.pwrite(page, n);
      if (r.ok())
        record_write(w, f, t0, page, r.value());
      else if (r.error() == api::Errno::kRoFs)
        w.stopped = true;
    } else if (dice < 58) {
      const std::uint32_t room = p.extent_blocks - f.inode->size_blocks;
      if (room > 0) {
        const std::uint32_t n = std::min<std::uint32_t>(
            room, static_cast<std::uint32_t>(rng.uniform(1, 2)));
        const std::uint32_t at = f.inode->size_blocks;
        const std::uint64_t t0 = trace.next_tick();
        api::Result<std::uint32_t> r = co_await f.anchor.append(n);
        if (r.ok())
          record_write(w, f, t0, at, r.value());
        else if (r.error() == api::Errno::kRoFs)
          w.stopped = true;
      }
    } else if (dice < 72) {
      co_await issue_sync(w, f, api::SyncIntent::kOrder, false);
    } else if (dice < 84) {
      co_await issue_sync(w, f, api::SyncIntent::kDurability, false);
    } else if (dice < 93) {
      co_await issue_sync(w, f, api::SyncIntent::kFullSync, false);
    } else if (dice < 97) {
      // Namespace churn: rename — mostly to a fresh name, sometimes a
      // POSIX replace-rename onto another live file's name (the displaced
      // file becomes nameless in the same transaction).
      if (!f.unlinked) {
        FileTrace* victim = nullptr;
        if (rng.chance(0.3) && trace.unlinks < p.files / 2) {
          FileTrace& v = trace.files[rng.uniform(0, p.files - 1)];
          if (&v != &f && !v.unlinked) victim = &v;
        }
        const std::string next =
            victim != nullptr
                ? victim->rel_name()
                : f.rel_names.front() + ".r" +
                      std::to_string(f.rel_names.size());
        const api::Status st =
            co_await w.vfs.rename(w.prefix + f.rel_name(), w.prefix + next);
        if (st.ok()) {
          f.rel_names.push_back(next);
          ++trace.renames;
          if (victim != nullptr) {
            victim->unlinked = true;
            ++trace.unlinks;
          }
        } else {
          w.on_error(st.error(), "single writer: rename failed unexpectedly");
        }
      }
    } else {
      // Namespace churn: unlink; the anchor keeps the file writable (and
      // its extent alive) for the rest of the run.
      if (!f.unlinked && trace.unlinks < p.files / 2) {
        const api::Status st =
            co_await w.vfs.unlink(w.prefix + f.rel_name());
        if (st.ok()) {
          f.unlinked = true;
          ++trace.unlinks;
        } else {
          w.on_error(st.error(), "single writer: unlink failed unexpectedly");
        }
      }
    }
    if (rng.chance(0.3))
      co_await w.vol.sim().delay(rng.uniform(1, 400) * 1_us);
    if (rng.chance(0.08))
      co_await w.vol.sim().delay(rng.uniform(2'000, 6'000) * 1_us);
  }
  ++trace.writers_finished;
}

}  // namespace

void spawn_single_writer(core::Volume& vol, api::Vfs& vfs, std::string prefix,
                         const SingleWriterParams& params,
                         ConcurrentTrace& trace) {
  // iolint: detached-owner(the caller keeps vol, vfs and trace alive for
  // the whole run; the power cut discards any survivor)
  vol.sim().spawn("sw:writer",
                  run(Writer{vol, vfs, std::move(prefix), params, trace}));
}

}  // namespace bio::wl
