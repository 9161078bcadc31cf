// Concurrent multi-writer workload over shared inodes (the missing half of
// the crash sweep's coverage: fxmark DWSL, varmail and OLTP are concurrent,
// but every contract the checker verified before PR 5 was exercised by one
// writer at a time).
//
// N writer coroutines share one volume through *independent* file
// descriptors: each writer opens its own fd for every file it touches, a
// subset of the files is shared by all writers, and the ops interleave
// pwrite/append with the full sync-syscall matrix the stack supports
// (fsync/fdatasync everywhere, fbarrier/fdatabarrier on BarrierFS,
// osync/dsync on OptFS via policy rows) plus rename/unlink namespace churn
// and fd churn (close/reopen, and close() racing an in-flight sync).
//
// The workload records a ConcurrentTrace: every completed write and sync
// carries logical ticks from one per-run monotone counter, so a checker can
// reconstruct the cross-writer happens-before order (which writes completed
// before which sync started, which started only after it returned) without
// assuming anything about operations that raced each other. The single-
// writer and ring workloads record into the same trace, and it is the one
// input of chk's crash oracle (chk::run_check); the bench driver
// (run_concurrent_writers) runs the same workload for wall-clock cost and
// ignores the trace content.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/vfs.h"
#include "core/stack.h"
#include "sim/time.h"

namespace bio::wl {

struct ConcurrentWritersParams {
  /// Writer coroutines sharing the volume.
  std::uint32_t writers = 4;
  std::uint32_t ops_per_writer = 40;
  /// Files every writer writes through its own descriptor.
  std::uint32_t shared_files = 2;
  /// Additional private files per writer.
  std::uint32_t private_files = 1;
  /// Extent reserved per file (4 KiB pages).
  std::uint32_t extent_blocks = 48;
  std::uint64_t seed = 1;
  /// rename/unlink churn on shared and private names.
  bool namespace_churn = true;
  /// close/reopen descriptors mid-run, including close() while that fd's
  /// sync is still suspended (the fd-lifecycle edge).
  bool fd_churn = true;

  friend bool operator==(const ConcurrentWritersParams&,
                         const ConcurrentWritersParams&) = default;
};

/// One completed buffered write as the trace remembers it. `version` is the
/// page-cache version observed when the write returned — under concurrent
/// same-page writers that may be a later writer's version, which is sound:
/// the trace claim is "at done_tick this page held at least `version`".
struct TraceWrite {
  flash::Lba lba = 0;
  flash::Version version = 0;
  std::uint32_t page = 0;
  std::uint64_t start_tick = 0;
  std::uint64_t done_tick = 0;
  std::uint32_t writer = 0;
};

/// One *returned* sync syscall (syncs cut short by the power cut are never
/// recorded — they promised nothing).
struct TraceSync {
  /// The concrete syscall that ran (intents pre-resolved through the file's
  /// policy row, so the checker can classify semantics per stack kind).
  api::Syscall call = api::Syscall::kFsync;
  std::uint64_t start_tick = 0;
  std::uint64_t done_tick = 0;
  std::uint32_t writer = 0;
  /// Completed-write high-water of the file size when the sync started:
  /// what the sync is entitled to promise about i_size.
  std::uint32_t settled_size_at_start = 0;
  /// rel_names index current when the sync started (rename durability).
  std::size_t name_idx_at_start = 0;
  /// The unlink had fully completed before the sync started.
  bool unlinked_at_start = false;

  // ---- linked-chain contract (api::Ring workloads) ------------------------
  //
  // Indices into FileTrace::writes derived from the SUBMISSION structure of
  // a ring chain, not from observed timing: `chain_covered` names writes
  // linked *before* this sync in its chain (the chain contract says they
  // complete before the sync starts), `chain_successors` writes linked
  // *after* it (they must not reach media unless the sync's promise held).
  // Deliberately contract-derived so a link-ignoring ring produces real
  // trace claims the oracle can falsify — exact-tick bookkeeping would
  // adapt to the buggy order and hide it. Empty for direct-Vfs workloads.
  std::vector<std::size_t> chain_covered;
  std::vector<std::size_t> chain_successors;
};

/// Per-file trace + live bookkeeping shared by every writer touching it.
struct FileTrace {
  /// Volume-relative name history: [0] create name, back() current name.
  std::vector<std::string> rel_names;
  fs::Inode* inode = nullptr;
  bool shared = false;
  /// Descriptor opened at setup and never closed: keeps the file (and its
  /// extent) alive across unlink/fd churn, so extents never recycle and
  /// stay a stable file identity for the checker.
  api::File anchor;
  std::vector<TraceWrite> writes;
  std::vector<TraceSync> syncs;

  // ---- live bookkeeping (workload side) -----------------------------------
  /// max(page + npages) over *completed* writes.
  std::uint32_t settled_size = 0;
  bool unlinked = false;
  /// A namespace op (rename/unlink) is in flight; writers serialize their
  /// own namespace ops per file (racing renames of one name is UB the
  /// kernel prevents with locks this model does not have).
  bool ns_busy = false;

  const std::string& rel_name() const { return rel_names.back(); }
};

struct ConcurrentTrace {
  std::vector<FileTrace> files;
  std::uint32_t writers_total = 0;
  std::uint32_t writers_finished = 0;
  std::uint32_t ops_done = 0;
  std::uint32_t syncs_done = 0;
  std::uint32_t renames = 0;
  std::uint32_t unlinks = 0;
  /// close/reopen cycles completed (fd churn coverage signal).
  std::uint32_t fd_cycles = 0;
  /// close() calls issued while that fd's sync was still suspended.
  std::uint32_t closes_during_sync = 0;
  /// Syncs that returned EIO/EROFS (recorded as no promise). Only the
  /// single-writer workload tolerates them; the others abort on any error.
  std::uint32_t syncs_failed = 0;

  bool finished() const noexcept {
    return writers_total > 0 && writers_finished == writers_total;
  }

  std::uint64_t next_tick() noexcept { return ++tick_; }

 private:
  std::uint64_t tick_ = 0;
};

/// Spawns the setup task (creates + settles the namespace) which then
/// spawns the writer threads, all onto `vol`'s simulator. `trace` must
/// outlive the simulation run; `prefix` is the mount prefix ("" for a
/// root-mounted volume, "/v0/" on a named mount).
void spawn_concurrent_writers(core::Volume& vol, api::Vfs& vfs,
                              std::string prefix,
                              const ConcurrentWritersParams& params,
                              ConcurrentTrace& trace);

struct ConcurrentWritersResult {
  std::uint64_t ops_done = 0;
  std::uint64_t syncs_done = 0;
  double ops_per_sec = 0.0;
  sim::SimTime elapsed = 0;
};

/// Bench driver: runs the workload to completion on `stack`'s volume 0
/// (stack must not have been started yet) and reports simulated throughput.
ConcurrentWritersResult run_concurrent_writers(
    core::Stack& stack, const ConcurrentWritersParams& params);

}  // namespace bio::wl
