// Full-stack crash-injection checker: one engine for every sweep flavour.
//
// A SweepSpec names the volumes, the workload, the journal size, the block
// layer's queue count and an optional device-fault plan. run_check() runs
// the workload on a freshly assembled node, cuts power at a chosen
// simulated instant, recovers every volume's durable image from its own
// journal through fs::Recovery, verifies each volume against its
// wl::ConcurrentTrace with one tick-based oracle, and remounts a fresh node
// over the recovered images. run_sweep() repeats that over many (seed,
// crash instant) points.
//
//   flavour | --repro form                     | SweepSpec
//   --------+----------------------------------+------------------------------
//   plain   | <stack>[:q<N>]:<base>:<point>    | 1 volume, SingleWriterParams
//   conc    | conc:<stack>[:q<N>]:...          | 1 volume, ConcurrentWriters
//   ring    | ring:<stack>[:q<N>]:...          | 1 volume, RingWorkloadParams
//   fault   | fault:<stack>[:q<N>]:...         | 1 volume, single writer,
//           |                                  |   faults = FaultSpec{}
//   node    | node[:<k>+<k>...][:q<N>]:...     | >= 2 volumes, single writer
//
// Any other combination (a node running the ring workload, say) runs too;
// it just has no --repro form.
//
// The oracle checks each stack's *claimed* contract, classified per
// recorded syscall (DESIGN.md §6, §9.1):
//
//   stack   | verified guarantees
//   --------+-----------------------------------------------------------
//   EXT4-DR | fsync/fdatasync returned => durable; epoch prefix
//   BFS-DR  | same (fdatabarrier additionally delimits epochs for free)
//   BFS-OD  | epoch prefix (fdatabarrier/fbarrier order only), full
//           | durability once the device quiesces
//   OptFS   | osync epoch prefix + delayed durability; dsync data durable
//   EXT4-OD | *claims* the EXT4-DR contract but runs nobarrier on an
//           | orderless device — the checker is expected to catch it
//           | violating (the paper's Fig 1 motivation)
//
// plus, on every stack: recovery never replays a stale log copy
// (RecoveryReport::clean()); the recovered namespace is consistent (no
// duplicate or fabricated names, durable renames and unlinks stick); ring
// chains keep their link order; the recovered image remounts into a fully
// usable volume; and a fault-free run never sees a sync fail.
//
// With `faults` set, every point installs a seed-derived flash::FaultPlan
// on each device. The oracle then drops the epoch-prefix fact (a bounded
// retry legally re-lands a transiently failed write after later writes)
// and quiescence also requires a live journal and a clean page cache.
// Durability facts were only recorded for syncs that returned kOk.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/stack.h"
#include "sim/time.h"
#include "wl/concurrent_writers.h"
#include "wl/ring_workload.h"
#include "wl/single_writer.h"

namespace bio::chk {

/// The workload every volume of the node runs (its `seed` is replaced by
/// the point's seed).
using Workload = std::variant<wl::SingleWriterParams,
                              wl::ConcurrentWritersParams,
                              wl::RingWorkloadParams>;

/// A seed-derived device fault plan per volume.
struct FaultSpec {
  /// Faults drawn per plan (flash::FaultPlan::random upper bound).
  std::uint32_t max_faults = 4;
  /// Write-op ordinal range the plan spreads its faults over (roughly the
  /// device write-command count of a full fault-free single-writer run).
  std::uint64_t expected_write_ops = 80;
  /// TEST ONLY: forwards to BlockLayer::set_swallow_io_errors_for_test —
  /// the deliberate injected bug the sweep must deterministically detect.
  bool swallow_io_errors = false;

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

struct SweepSpec {
  /// One entry: a root-mounted single volume. More: a node whose volumes
  /// mount at "/v0/", "/v1/", ... behind one Vfs, each with its own
  /// journal, workload (distinct seed) and verdict; one cut hits them all.
  std::vector<core::StackKind> volumes;
  Workload workload = wl::SingleWriterParams{};
  /// Journal size (small values force wraps). 0 = stack default.
  std::uint32_t journal_blocks = 256;
  /// Block-layer software queues (blk-mq). Sweeps run at 1 and 4.
  std::uint32_t nr_queues = 1;
  /// Device faults; only the single-writer workload tolerates them.
  std::optional<FaultSpec> faults = std::nullopt;

  friend bool operator==(const SweepSpec&, const SweepSpec&) = default;
};

/// The additive facts of a check: per point in CrashCheckResult, summed
/// over volumes on a node and over points in CrashSweepResult.
struct CheckCounters {
  std::uint64_t files_recovered = 0;
  std::uint64_t txns_replayed = 0;
  std::uint64_t txns_discarded = 0;
  std::uint64_t journal_wraps = 0;
  std::uint64_t journal_stalls = 0;
  std::uint64_t checkpoint_flushes = 0;
  /// Oracle facts verified: writes covered by a durable ack, writes under
  /// the epoch-prefix rule, namespace facts, ring chain claims, and the
  /// returned syncs whose promises were checked.
  std::uint64_t acked_pages_checked = 0;
  std::uint64_t order_writes_checked = 0;
  std::uint64_t namespace_facts_checked = 0;
  std::uint64_t chain_facts_checked = 0;
  std::uint64_t syncs_recorded = 0;
  /// Workload behaviour: namespace ops, descriptor close/reopen cycles
  /// and close() calls racing an in-flight sync.
  std::uint64_t renames_done = 0;
  std::uint64_t unlinks_done = 0;
  std::uint64_t fd_cycles = 0;
  std::uint64_t closes_during_sync = 0;
  /// Fault injection: faults fired, block-layer re-dispatches, requests
  /// that completed with an error, syncs that returned EIO/EROFS.
  std::uint64_t faults_injected = 0;
  std::uint64_t io_retries = 0;
  std::uint64_t io_failures = 0;
  std::uint64_t syncs_failed = 0;

  CheckCounters& operator+=(const CheckCounters& o);
};

struct CrashCheckResult : CheckCounters {
  std::uint64_t seed = 0;
  sim::SimTime crash_at = 0;

  /// On a node each violation is prefixed "<stack>@v<i>: ".
  std::vector<std::string> violations;
  bool ok() const noexcept { return violations.empty(); }

  // On a node: true iff true on every volume (volume_degraded and
  // tail_truncated: on any volume).
  bool workload_finished = false;
  /// Device (and, under faults, journal and page cache) fully drained at
  /// the cut: everything ever synced must have reached media.
  bool quiesced = false;
  bool tail_truncated = false;
  bool recovery_clean = true;
  /// The journal aborted and degraded the volume read-only before the cut.
  bool volume_degraded = false;

  /// Per-volume results, index-aligned with SweepSpec::volumes.
  std::vector<CrashCheckResult> volumes;
};

struct CrashSweepResult : CheckCounters {
  int points = 0;
  int failed_points = 0;
  int quiesced_points = 0;
  int degraded_points = 0;

  /// First 8 violations with their (seed, crash) context and, where the
  /// spec has one, the --repro line (examples/crash_consistency). That line
  /// carries the flavour, stacks and queue count only: a sweep with other
  /// non-default options replays through run_check with its own spec.
  std::vector<std::string> sample_violations;

  /// Replay coordinates of the first 32 failed points: run_check(spec,
  /// seed, crash_at) replays exactly that case; `failed_points` holds the
  /// true total.
  struct Failure {
    int point = 0;
    std::uint64_t seed = 0;
    sim::SimTime crash_at = 0;
    std::string first_violation;
  };
  std::vector<Failure> failures;

  /// Per-volume aggregates, index-aligned with SweepSpec::volumes.
  std::vector<CrashSweepResult> volumes;

  bool ok() const noexcept { return failed_points == 0; }

  /// Folds one point's result in (counters, point tallies, per-volume
  /// aggregates; failure samples stay with run_sweep).
  void accumulate(const CrashCheckResult& r);
};

/// One workload + power cut + recovery + remount + verification pass.
CrashCheckResult run_check(const SweepSpec& spec, std::uint64_t seed,
                           sim::SimTime crash_at);

/// The crash instant run_sweep derives for `point` under `base_seed` (the
/// point's seed is base_seed + point). Crash instants mix mid-workload cuts
/// with post-quiescence ones (the delayed-durability cases).
sim::SimTime sweep_crash_at(std::uint64_t base_seed, int point);

/// Runs `points` checks across up to `jobs` host threads, resolved through
/// sim::resolve_host_jobs (0 = BIO_SWEEP_JOBS env, else hardware
/// concurrency; 1 = serial). Every point builds its own node and derives
/// its seed and crash instant from its index alone, and results fold in
/// canonical point order, so any jobs value yields a bit-identical result.
CrashSweepResult run_sweep(const SweepSpec& spec, int points,
                           std::uint64_t base_seed = 1, int jobs = 0);

// ---- --repro lines ----------------------------------------------------------

/// One sweep point as a --repro line names it. The spec carries default
/// options apart from the flavour, stacks and queue count.
struct Repro {
  SweepSpec spec;
  std::uint64_t base_seed = 0;
  int point = 0;
};

/// Largest point index a --repro line may name.
inline constexpr int kMaxReproPoint = 1'000'000;

/// Strict parse of the grammar in the table above: decimal fields (no
/// sign, no junk), q<N> with N in [1, 64], point <= kMaxReproPoint, node
/// lists of >= 2 stacks joined by '+'. The bare `node:` form means
/// BFS-DR+EXT4-DR. nullopt on anything else.
std::optional<Repro> parse_repro(std::string_view text);

/// The --repro line for point `point` of run_sweep(spec, ..., base_seed);
/// empty when the spec's flavour has no --repro form.
std::string format_repro(const SweepSpec& spec, std::uint64_t base_seed,
                         int point);

}  // namespace bio::chk
