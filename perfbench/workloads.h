// The benchmark's four workloads. Each builds its stack through the public
// constructors (core::Stack, or flash::StorageDevice + blk::BlockLayer for
// mq-mixed), derives every generated input from the run's seed, and drives
// the stack with closed-loop simulated clients that call the public layer
// functions directly, timing each call through the Ledger.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ledger.h"
#include "sim/simulator.h"

namespace perfbench {

/// Layer counters read from each layer's public stats() accessors. The
/// driver diffs two snapshots taken at the window boundaries.
enum Ctr : std::uint8_t {
  kVfsErrors,
  kJournalCommits,
  kSyncCalls,
  kJournalBlocks,
  kJournalStalls,
  kCheckpointFlushes,
  kWritebackPages,
  kPageCachePages,  // absolute, not diffed
  kBlkSubmitted,
  kBlkBusyRetries,
  kBlkIoRetries,
  kSchedEnqueued,
  kSchedMerges,
  kQueue0Dispatched,
  kQueue1Dispatched,
  kQueue2Dispatched,
  kQueue3Dispatched,
  kPoolAcquired,
  kPoolHeapAllocs,
  kDevFlushes,
  kDevBarrierWrites,
  kDevWrites,
  kDevReads,
  kDevBlocksWritten,
  kDevBusyRejections,
  kDevCacheReadHits,
  kGcRuns,
  kGcPagesCopied,
  kPort0Submissions,
  kPort1Submissions,
  kPort2Submissions,
  kPort3Submissions,
  kPort4Submissions,
  kPort5Submissions,
  kPort6Submissions,
  kPort7Submissions,
  kSimEvents,
  kAppContextSwitches,
  // Host-dependent: excluded from the fingerprint.
  kFramePoolFresh,
  kHeapAllocs,
  kCtrCount,
};
using Counters = std::array<std::uint64_t, kCtrCount>;

/// Heap allocations made by the process so far (the driver's operator new).
std::uint64_t heap_allocs() noexcept;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds and starts the stack and runs the setup phase (prefill).
  virtual void setup() = 0;
  /// Spawns the closed-loop clients; they issue ops until the ledger's
  /// window closes, then finish their in-flight work.
  virtual void spawn_clients(Ledger& ledger) = 0;
  virtual Counters counters() = 0;
  /// Correctness gate, run once the simulation has drained. Returns an
  /// empty string on success, else what failed. `detail` receives a
  /// one-line summary of what was checked.
  virtual std::string gate(std::string& detail) = 0;
  virtual bio::sim::Simulator& sim() = 0;
};

struct WorkloadSpec {
  const char* name;
  /// Counted ops before the window opens, and inside it.
  std::uint64_t warmup;
  std::uint64_t measured;
};

/// The four workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& workload_specs();
const WorkloadSpec* find_workload(const std::string& name);
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
