// Single-writer crash-check workload: one coroutine churning a handful of
// files through api::File — positional writes and appends, the three
// policy-resolved sync intents (order point, durability point, full-file
// sync), rename (including POSIX replace-rename onto a live name) and
// unlink, with random think time between ops.
//
// It records into the same wl::ConcurrentTrace as the concurrent and ring
// workloads, as writer 0 and with the same conventions: every completed
// write and every *returned* sync carries ticks from the trace's monotone
// counter, syncs record the concrete syscall their intent resolved to, and
// the settle sync after the creates is recorded as one sync fact on every
// file. chk's one tick-based oracle therefore verifies all three workloads.
//
// The workload tolerates device faults: a sync returning EIO/EROFS is
// counted (ConcurrentTrace::syncs_failed) and recorded as no promise, and
// once the volume degrades read-only (EROFS) the writer stops mutating.
// Whether a failure was legitimate is the checker's call, not the
// workload's.
#pragma once

#include <cstdint>
#include <string>

#include "api/vfs.h"
#include "core/stack.h"
#include "wl/concurrent_writers.h"

namespace bio::wl {

struct SingleWriterParams {
  /// Files the workload churns.
  std::uint32_t files = 4;
  /// Random operations after setup.
  std::uint32_t ops = 60;
  /// Extent reserved per file (4 KiB pages).
  std::uint32_t extent_blocks = 64;
  std::uint64_t seed = 1;

  friend bool operator==(const SingleWriterParams&,
                         const SingleWriterParams&) = default;
};

/// Spawns the writer onto `vol`'s simulator. `trace` must outlive the run;
/// `prefix` is the mount prefix ("" for a root-mounted volume, "/v0/" on a
/// named mount).
void spawn_single_writer(core::Volume& vol, api::Vfs& vfs, std::string prefix,
                         const SingleWriterParams& params,
                         ConcurrentTrace& trace);

}  // namespace bio::wl
