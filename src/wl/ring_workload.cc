#include "wl/ring_workload.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/ring.h"
#include "fs/page_cache.h"
#include "sim/rng.h"

namespace bio::wl {
namespace {

using namespace bio::sim::literals;

/// The stack's order-point syscall as a ring op (the substitution-table row
/// restricted to what a ring sqe can express).
api::RingOp order_op(core::StackKind kind) {
  switch (kind) {
    case core::StackKind::kBfsDR:
    case core::StackKind::kBfsOD:
      return api::RingOp::kFdatabarrier;
    case core::StackKind::kOptFs:
      return api::RingOp::kFbarrier;  // Vfs maps it onto osync
    default:
      return api::RingOp::kFdatasync;
  }
}

api::Syscall syscall_of(api::RingOp op) {
  switch (op) {
    case api::RingOp::kFsync: return api::Syscall::kFsync;
    case api::RingOp::kFdatasync: return api::Syscall::kFdatasync;
    case api::RingOp::kFbarrier: return api::Syscall::kFbarrier;
    case api::RingOp::kFdatabarrier: return api::Syscall::kFdatabarrier;
    default: return api::Syscall::kNone;
  }
}

struct Ctx {
  core::Volume& vol;
  api::Vfs& vfs;
  std::string prefix;
  RingWorkloadParams p;
  ConcurrentTrace& trace;
};

/// Chain bookkeeping: the submission-structure claims of one linked chain,
/// accumulated as its members complete (in whatever order a buggy ring
/// runs them — that is the point; see TraceSync::chain_covered).
struct ChainRec {
  FileTrace* f = nullptr;
  std::vector<std::size_t> covered;
  std::vector<std::size_t> successors;
  /// Index into f->syncs once the chain's sync completed; later-completing
  /// members then append straight to the recorded sync's claim vectors.
  std::ptrdiff_t sidx = -1;
};

/// One submitted sqe awaiting completion, keyed by user_data.
struct Pending {
  enum Kind : std::uint8_t { kWrite, kRead, kSync } kind = kWrite;
  FileTrace* f = nullptr;
  std::uint32_t writer = 0;
  std::uint32_t page = 0;
  std::uint64_t start_tick = 0;
  api::Syscall call = api::Syscall::kNone;
  // Sync snapshot, stamped by the start hook (synchronous in the driver).
  std::uint32_t settled_at_start = 0;
  std::size_t name_idx_at_start = 0;
  bool unlinked_at_start = false;
  ChainRec* rec = nullptr;
  /// Write linked *after* the chain's sync (vs covered by it).
  bool is_successor = false;
  /// Dispatch resolved the sqe's fd *number* to a different inode than the
  /// one the sqe was built for: fd churn closed it and a concurrent
  /// reopen recycled the slot (the classic io_uring stale-fd hazard). The
  /// op is real IO but promises nothing about the intended file, so its
  /// trace claims are dropped.
  bool aliased = false;
};

struct WriterState {
  std::unordered_map<std::uint64_t, Pending> pending;
  /// deque: stable ChainRec addresses across push_back within a batch.
  std::deque<ChainRec> chains;
  std::uint64_t next_ud = 1;
};

sim::Task ring_writer(Ctx* ctxp, std::uint32_t w, sim::Rng rng) {
  Ctx& ctx = *ctxp;
  ConcurrentTrace& trace = ctx.trace;

  // Each writer opens its OWN descriptor per file over the shared inodes.
  std::vector<api::File> fds(trace.files.size());
  for (std::size_t i = 0; i < trace.files.size(); ++i) {
    FileTrace& f = trace.files[i];
    if (f.unlinked) continue;
    api::Result<api::File> r =
        co_await ctx.vfs.open(ctx.prefix + f.rel_name(), {});
    if (r.ok()) fds[i] = r.value();
  }

  WriterState st;
  api::Ring ring(ctx.vfs);
  if (ctx.p.ignore_links) ring.set_ignore_links_for_test(true);
  api::must(ring.register_buffers({4, 4, 4, 4}));

  ring.set_on_op_start([&st, &trace, &ctx](const api::Sqe& sqe) {
    auto it = st.pending.find(sqe.user_data);
    if (it == st.pending.end()) return;
    Pending& p = it->second;
    p.start_tick = trace.next_tick();
    // The start hook runs synchronously in the chain driver, immediately
    // before the Vfs call resolves the fd — this is exactly the binding
    // the op will act on.
    const api::Result<std::uint32_t> ino = ctx.vfs.ino_of(sqe.fd);
    p.aliased = !ino.ok() || ino.value() != p.f->inode->ino;
    if (p.kind == Pending::kSync) {
      p.settled_at_start = p.f->settled_size;
      p.name_idx_at_start = p.f->rel_names.size() - 1;
      p.unlinked_at_start = p.f->unlinked;
    }
  });
  ring.set_on_op_complete([&st, &ctx](const api::Sqe& sqe, std::int32_t res) {
    auto it = st.pending.find(sqe.user_data);
    if (it == st.pending.end()) return;
    const Pending p = it->second;
    st.pending.erase(it);
    if (res < 0) return;    // failed/cancelled sqes promise nothing
    if (p.aliased) return;  // hit a recycled fd: wrong file, no claims
    ConcurrentTrace& trace = ctx.trace;
    FileTrace& f = *p.f;
    if (p.kind == Pending::kWrite) {
      const std::uint64_t done = trace.next_tick();
      const auto n = static_cast<std::uint32_t>(res);
      for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t pg = p.page + i;
        const fs::PageCache::PageState* pst =
            ctx.vol.fs().page_cache().find(f.inode->ino, pg);
        BIO_CHECK_MSG(pst != nullptr, "ring writer lost its page");
        f.writes.push_back(TraceWrite{f.inode->lba_of_page(pg), pst->version,
                                      pg, p.start_tick, done, p.writer});
        if (p.rec != nullptr) {
          const std::size_t idx = f.writes.size() - 1;
          (p.is_successor ? p.rec->successors : p.rec->covered)
              .push_back(idx);
          if (p.rec->sidx >= 0) {
            // The chain's sync already completed (only possible when links
            // are being ignored): keep its recorded claims complete.
            TraceSync& s = f.syncs[static_cast<std::size_t>(p.rec->sidx)];
            (p.is_successor ? s.chain_successors : s.chain_covered)
                .push_back(idx);
          }
        }
      }
      f.settled_size = std::max(f.settled_size, p.page + n);
      ++trace.ops_done;
    } else if (p.kind == Pending::kSync) {
      TraceSync s;
      s.call = p.call;
      s.writer = p.writer;
      s.start_tick = p.start_tick;
      s.done_tick = trace.next_tick();
      s.settled_size_at_start = p.settled_at_start;
      s.name_idx_at_start = p.name_idx_at_start;
      s.unlinked_at_start = p.unlinked_at_start;
      if (p.rec != nullptr) {
        s.chain_covered = p.rec->covered;
        s.chain_successors = p.rec->successors;
      }
      f.syncs.push_back(std::move(s));
      if (p.rec != nullptr)
        p.rec->sidx = static_cast<std::ptrdiff_t>(f.syncs.size() - 1);
      ++trace.syncs_done;
    }
    // reads: exercised for concurrency, nothing to claim
  });

  const api::RingOp osync_op = order_op(ctx.vol.kind());

  auto push_write = [&](std::size_t li, ChainRec* rec, bool successor,
                        bool link) {
    FileTrace& f = trace.files[li];
    const auto n = static_cast<std::uint32_t>(rng.uniform(1, 3));
    const auto page = static_cast<std::uint32_t>(
        rng.uniform(0, ctx.p.extent_blocks - n));
    api::Sqe sqe;
    sqe.op = api::RingOp::kWrite;
    sqe.fd = fds[li].valid() ? fds[li].fd() : f.anchor.fd();
    sqe.page = page;
    sqe.npages = n;
    sqe.buf_index = static_cast<std::int32_t>(rng.uniform(0, 3));
    sqe.flags = link ? api::kSqeLink : std::uint8_t{0};
    sqe.user_data = st.next_ud++;
    st.pending[sqe.user_data] =
        Pending{Pending::kWrite, &f, w, page, 0, api::Syscall::kNone,
                0, 0, false, rec, successor};
    BIO_CHECK(ring.push(sqe));
  };
  auto push_sync = [&](std::size_t li, api::RingOp op, ChainRec* rec,
                       bool link) {
    FileTrace& f = trace.files[li];
    api::Sqe sqe;
    sqe.op = op;
    sqe.fd = fds[li].valid() ? fds[li].fd() : f.anchor.fd();
    sqe.flags = link ? api::kSqeLink : std::uint8_t{0};
    sqe.user_data = st.next_ud++;
    st.pending[sqe.user_data] =
        Pending{Pending::kSync, &f, w, 0, 0, syscall_of(op),
                0, 0, false, rec, false};
    BIO_CHECK(ring.push(sqe));
  };

  for (std::uint32_t batch = 0; batch < ctx.p.batches_per_writer; ++batch) {
    // Linked chains: 1-2 covered writes, an order/durability sync, and
    // sometimes a successor write gated behind the sync.
    for (std::uint32_t c = 0; c < ctx.p.chains_per_batch; ++c) {
      const auto li = static_cast<std::size_t>(
          rng.uniform(0, trace.files.size() - 1));
      st.chains.push_back(ChainRec{&trace.files[li], {}, {}, -1});
      ChainRec* rec = &st.chains.back();
      const std::uint32_t covered = rng.chance(0.4) ? 2 : 1;
      for (std::uint32_t i = 0; i < covered; ++i)
        push_write(li, rec, /*successor=*/false, /*link=*/true);
      const api::RingOp call =
          rng.chance(0.6) ? osync_op : api::RingOp::kFsync;
      const bool tail = rng.chance(0.6);
      push_sync(li, call, rec, /*link=*/tail);
      if (tail) push_write(li, rec, /*successor=*/true, /*link=*/false);
    }
    // Unlinked sqes: free-running writes, reads and syncs.
    for (std::uint32_t u = 0; u < ctx.p.unlinked_per_batch; ++u) {
      const auto li = static_cast<std::size_t>(
          rng.uniform(0, trace.files.size() - 1));
      const int dice = static_cast<int>(rng.uniform(0, 99));
      if (dice < 55) {
        push_write(li, nullptr, false, false);
      } else if (dice < 80) {
        FileTrace& f = trace.files[li];
        api::Sqe sqe;
        sqe.op = api::RingOp::kRead;
        sqe.fd = fds[li].valid() ? fds[li].fd() : f.anchor.fd();
        sqe.page = 0;
        sqe.npages = static_cast<std::uint32_t>(rng.uniform(1, 4));
        sqe.user_data = st.next_ud++;
        st.pending[sqe.user_data] =
            Pending{Pending::kRead, &f, w, 0, 0, api::Syscall::kNone,
                    0, 0, false, nullptr, false};
        BIO_CHECK(ring.push(sqe));
      } else {
        push_sync(li, rng.chance(0.5) ? osync_op : api::RingOp::kFsync,
                  nullptr, false);
      }
    }

    const std::uint32_t submitted = ring.submit();

    // fd churn: occasionally close one of this writer's descriptors while
    // its sqes are still in flight — undispatched chain members then
    // surface as -EBADF cqes and cancel their chain tails.
    if (ctx.p.fd_churn && rng.chance(0.15)) {
      const auto li = static_cast<std::size_t>(
          rng.uniform(0, trace.files.size() - 1));
      if (fds[li].valid()) {
        api::must(fds[li].close());
        ++trace.fd_cycles;
      }
    }

    for (std::uint32_t i = 0; i < submitted; ++i)
      (void)co_await ring.wait_cqe();
    st.chains.clear();  // fully reaped: no completion references them now

    // Reopen anything fd churn closed (by the file's current name).
    for (std::size_t li = 0; li < trace.files.size(); ++li) {
      FileTrace& f = trace.files[li];
      if (fds[li].valid() || f.unlinked) continue;
      api::Result<api::File> r =
          co_await ctx.vfs.open(ctx.prefix + f.rel_name(), {});
      if (r.ok()) fds[li] = r.value();
    }

    // Namespace churn between batches (direct Vfs calls; the ring carries
    // data and sync ops only, as io_uring did before unlinkat support).
    if (ctx.p.namespace_churn && rng.chance(0.3)) {
      FileTrace& f = trace.files[static_cast<std::size_t>(
          rng.uniform(0, trace.files.size() - 1))];
      if (!f.unlinked && !f.ns_busy) {
        f.ns_busy = true;
        if (rng.chance(0.7)) {
          const std::string next = f.rel_names.front() + ".r" +
                                   std::to_string(f.rel_names.size());
          api::must(co_await ctx.vfs.rename(ctx.prefix + f.rel_name(),
                                            ctx.prefix + next));
          f.rel_names.push_back(next);
          ++trace.renames;
        } else if (trace.unlinks <
                   static_cast<std::uint32_t>(trace.files.size()) / 2) {
          api::must(co_await ctx.vfs.unlink(ctx.prefix + f.rel_name()));
          f.unlinked = true;
          ++trace.unlinks;
        }
        f.ns_busy = false;
      }
    }

    if (rng.chance(0.5))
      co_await ctx.vol.sim().delay(rng.uniform(1, 600) * 1_us);
    if (rng.chance(0.08))
      co_await ctx.vol.sim().delay(rng.uniform(2'000, 8'000) * 1_us);
  }

  for (api::File& fd : fds)
    if (fd.valid()) api::must(fd.close());
  ++trace.writers_finished;
}

sim::Task setup_and_run(std::unique_ptr<Ctx> ctx) {
  ConcurrentTrace& trace = ctx->trace;
  const RingWorkloadParams& p = ctx->p;
  trace.files.resize(p.files);  // never resized again: FileTrace& stable
  trace.writers_total = p.writers;

  for (std::uint32_t i = 0; i < p.files; ++i) {
    FileTrace& f = trace.files[i];
    f.rel_names.push_back("r" + std::to_string(i));
    f.shared = true;
    api::OpenOptions oo;
    oo.create = true;
    oo.extent_blocks = p.extent_blocks;
    f.anchor =
        api::must(co_await ctx->vfs.open(ctx->prefix + f.rel_name(), oo));
    f.inode = ctx->vol.fs().lookup(f.rel_name());
    BIO_CHECK(f.inode != nullptr);
  }
  // Settle the creates (transactions retire in commit order, so syncing
  // the newest covers them all) and record the settle as a sync fact on
  // every file — same discipline as the direct concurrent workload.
  if (p.files > 0) {
    const std::uint64_t s0 = trace.next_tick();
    api::must(co_await ctx->vfs.fsync(trace.files.back().anchor.fd()));
    const std::uint64_t s1 = trace.next_tick();
    for (FileTrace& f : trace.files) {
      f.syncs.push_back(TraceSync{api::Syscall::kFsync, s0, s1,
                                  /*writer=*/~std::uint32_t{0},
                                  /*settled_size_at_start=*/0,
                                  /*name_idx_at_start=*/0,
                                  /*unlinked_at_start=*/false,
                                  /*chain_covered=*/{},
                                  /*chain_successors=*/{}});
      ++trace.syncs_done;
    }
  }

  sim::Rng base(ctx->p.seed * 0x9e3779b97f4a7c15ULL + 5);
  std::vector<sim::Thread> threads;
  for (std::uint32_t w = 0; w < p.writers; ++w)
    // iolint: detached-owner(the join loop below waits every writer; the
    // Ctx unique_ptr outlives them in this frame)
    threads.push_back(ctx->vol.sim().spawn(
        "ring:w" + std::to_string(w),
        ring_writer(ctx.get(), w, base.fork())));
  for (const sim::Thread& t : threads) co_await ctx->vol.sim().join(t);
}

}  // namespace

void spawn_ring_writers(core::Volume& vol, api::Vfs& vfs, std::string prefix,
                        const RingWorkloadParams& params,
                        ConcurrentTrace& trace) {
  auto ctx =
      std::make_unique<Ctx>(Ctx{vol, vfs, std::move(prefix), params, trace});
  vol.sim().spawn("ring:setup", setup_and_run(std::move(ctx)));
}

}  // namespace bio::wl
