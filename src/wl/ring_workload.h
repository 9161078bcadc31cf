// Ring-driven concurrent workload: the api::Ring variant of the concurrent
// multi-writer sweep, so linked-chain ordering is verified by the same
// oracle that checks the direct-Vfs workloads (new subsystems extend the
// oracle, not dodge it).
//
// N writer coroutines each own an api::Ring over the shared Vfs and push
// batches of sqes: linked chains (`pwrite -> order-sync -> pwrite`,
// `pwrite -> fsync`) whose ordering promise comes from kSqeLink, plus
// unlinked pwrites/preads/syncs that are free to race, with registered
// buffers carrying the data ops and light rename/unlink/fd churn on the
// side. Completions are reaped out of order via wait_cqe.
//
// The workload fills the same wl::ConcurrentTrace the direct workload
// fills — with one addition: each recorded chain sync carries
// chain_covered/chain_successors indices derived from the *submission*
// structure (which writes were linked before/after it), so the checker can
// hold the ring to the chain contract rather than to whatever order a
// (possibly buggy) ring actually ran. `ignore_links` injects exactly that
// bug for the oracle's negative test.
#pragma once

#include <cstdint>
#include <string>

#include "api/vfs.h"
#include "core/stack.h"
#include "sim/time.h"
#include "wl/concurrent_writers.h"

namespace bio::wl {

struct RingWorkloadParams {
  /// Writer coroutines, each owning its own Ring over the shared Vfs.
  std::uint32_t writers = 3;
  std::uint32_t batches_per_writer = 12;
  /// Linked chains per batch (each 2-4 sqes glued by kSqeLink).
  std::uint32_t chains_per_batch = 3;
  /// Unlinked sqes per batch (free-running pwrites/preads/syncs).
  std::uint32_t unlinked_per_batch = 3;
  /// Files shared by every writer (each writer opens its own fds).
  std::uint32_t files = 3;
  /// Extent reserved per file (4 KiB pages).
  std::uint32_t extent_blocks = 48;
  std::uint64_t seed = 1;
  /// rename/unlink churn between batches.
  bool namespace_churn = true;
  /// Occasionally close a descriptor while its sqes are still in flight
  /// (late completions surface as -EBADF cqes).
  bool fd_churn = true;
  /// TEST ONLY: run every ring with link flags ignored — the deliberate
  /// ordering bug whose violations the crash oracle must catch.
  bool ignore_links = false;

  friend bool operator==(const RingWorkloadParams&,
                         const RingWorkloadParams&) = default;
};

/// Spawns the setup task (creates + settles the namespace, then spawns the
/// ring writers) onto `vol`'s simulator. `trace` must outlive the run.
void spawn_ring_writers(core::Volume& vol, api::Vfs& vfs, std::string prefix,
                        const RingWorkloadParams& params,
                        ConcurrentTrace& trace);

}  // namespace bio::wl
