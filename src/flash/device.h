// The barrier-compliant storage device (§3.2).
//
// Commands enter a bounded NCQ; the controller starts every *eligible*
// command concurrently. Eligibility implements the SCSI priority semantics
// the order-preserving dispatch relies on (§3.4):
//   * HEAD_OF_QUEUE commands start immediately.
//   * An ORDERED command starts only after every earlier data command has
//     finished its DMA transfer.
//   * A SIMPLE command starts only after every earlier ORDERED data command
//     has finished its DMA transfer.
//   * FLUSH commands neither wait for nor fence data commands: they snapshot
//     the cache at service time (durability is their only contract), which
//     is what lets Dual-Mode Journaling keep the queue busy while a flush is
//     in flight.
//
// Data lands in the writeback cache in transfer order; barrier writes bump
// the device epoch. The drain policy selected by BarrierMode moves entries
// to the SegmentLog; durable_state() answers "what survives a power cut
// right now" as a flat, LBA-sorted BlockImage (block_image.h), which the
// crash-consistency tests check against the paper's epoch ordering
// guarantees and fs::Recovery mounts.
//
// The device exposes one submission *port* per flash channel (blk-mq
// hardware queues). Each port has its own NCQ window and host-side DMA bus,
// so commands on different ports overlap their transfers in simulated time.
// Ordering state stays global: seq numbers, the writeback cache, the device
// epoch and the flush horizon span all ports, and ORDERED/SIMPLE transfer
// fencing compares (fence_epoch, seq) across every port's window —
// submission-order guarantees established by the host survive multi-port
// dispatch. With all traffic on port 0 (single-queue hosts) behavior is
// bit-identical to the former single-window device.
//
// The fence is an index, not a window scan: two sorted vectors of
// (fence_epoch, seq) keys hold every windowed data command that has not
// finished its DMA transfer, and the ORDERED ones among them. A key enters
// in try_submit and leaves when the command's transfer completes, so the
// front key precedes a command exactly when some earlier un-transferred
// data command (resp. ORDERED data command) exists, and eligibility is one
// comparison. Each port's NCQ window is a std::list whose nodes are
// recycled through a per-port spare list by splicing, so admitting a
// command allocates nothing once the window has reached its peak depth.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <utility>
#include <vector>

#include "flash/block_image.h"
#include "flash/cache.h"
#include "flash/command.h"
#include "flash/fault.h"
#include "flash/nand.h"
#include "flash/profile.h"
#include "flash/segment_log.h"
#include "flash/types.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/sync.h"

namespace bio::flash {

class StorageDevice {
 public:
  struct Stats {
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
    std::uint64_t flushes = 0;
    std::uint64_t barrier_writes = 0;
    std::uint64_t blocks_written = 0;
    std::uint64_t busy_rejections = 0;
    std::uint64_t cache_read_hits = 0;
    std::uint64_t faults_injected = 0;
    /// Transient program faults a barrier-mode device recovered internally
    /// (FTL remap + reprogram) instead of surfacing to the host.
    std::uint64_t in_device_retries = 0;
  };

  StorageDevice(sim::Simulator& sim, DeviceProfile profile);

  /// Spawns the controller, drain and GC threads. Call once.
  void start();

  /// Queues a command on port `cmd->port % port_count()`; returns false
  /// (device busy) when that port's NCQ window is full. The dispatcher
  /// then waits on queue_activity() and retries once a slot frees.
  bool try_submit(std::shared_ptr<Command> cmd);

  /// Hardware submission ports (one per flash channel).
  std::uint32_t port_count() const noexcept {
    return static_cast<std::uint32_t>(ports_.size());
  }

  /// Outstanding commands across every port's window.
  std::uint32_t queue_depth() const noexcept {
    std::uint32_t n = 0;
    for (const auto& p : ports_)
      n += static_cast<std::uint32_t>(p->window.size());
    return n;
  }
  /// Per-port NCQ window limit.
  std::uint32_t queue_depth_limit() const noexcept {
    return profile_.queue_depth;
  }

  /// Commands admitted through port `port` since start() (per-channel
  /// pipeline utilisation; the mq perf scenarios assert spread).
  std::uint64_t port_submissions(std::uint32_t port) const {
    BIO_CHECK(port < ports_.size());
    return ports_[port]->submissions;
  }

  const DeviceProfile& profile() const noexcept { return profile_; }
  const Stats& stats() const noexcept { return stats_; }
  SegmentLog& log() noexcept { return log_; }
  WritebackCache& cache() noexcept { return cache_; }
  NandArray& nand() noexcept { return nand_; }

  /// Current device epoch (advanced by barrier writes).
  std::uint64_t current_epoch() const noexcept { return epoch_; }

  // ---- fault injection ----------------------------------------------------
  // The plan is owned by the caller (test/sweep harness) and must outlive
  // the device or be uninstalled first. With no plan installed the IO path
  // pays one null test per command — nothing else changes, keeping the
  // figure benches bit-identical.

  void install_fault_plan(FaultPlan* plan) noexcept { fault_plan_ = plan; }
  bool has_fault_plan() const noexcept { return fault_plan_ != nullptr; }
  const FaultPlan* fault_plan() const noexcept { return fault_plan_; }

  /// Notified on every queue transition (submission, transfer, completion).
  /// A tag-aware host driver waits on this instead of polling when busy.
  sim::Notify& queue_activity() noexcept { return queue_event_; }

  /// Non-destructive crash analysis: the state recovery would reconstruct
  /// if power failed at the current simulated instant. Built per call: one
  /// walk of the FTL's folded durable table, 16 bytes per durable LBA.
  BlockImage durable_state() const;

  /// A captured durable image: the block-level state a power cut at
  /// `captured_at` would leave behind. Versions are the payload identity —
  /// the simulation stores no bytes, so (lba -> version) *is* the disk
  /// content, and higher layers (fs::Recovery) interpret it through their
  /// own content records.
  struct DurableImage {
    BlockImage blocks;
    sim::SimTime captured_at = 0;
    std::uint64_t epoch = 0;
  };
  DurableImage capture_durable_image() const {
    return DurableImage{durable_state(), sim_.now(), epoch_};
  }

  /// True when every cache entry with order < `through` has been persisted
  /// (non-blocking form of wait_persisted_through; crash analysis and the
  /// journal's checkpoint-release logic use it read-only).
  bool persisted_through(std::uint64_t through) const noexcept;

  // ---- flush horizon ------------------------------------------------------
  // Counters letting a host-side caller reason "did a full cache flush start
  // after instant X and complete?" without issuing one itself. A flush whose
  // entry sequence is > X snapshots the cache after X, so its completion
  // makes everything transferred before X durable. jbd2-style checkpoint
  // tail-advance uses this to piggyback on the flushes fsync traffic already
  // issues instead of adding its own.

  /// Entry sequence of the most recently *started* flush (0 = none yet).
  /// A caller proving durability must therefore require a *strictly
  /// greater* completed entry (flush_horizon() > stamp): a flush with the
  /// same sequence entered before the stamped instant.
  std::uint64_t flush_sequence() const noexcept { return flush_entries_; }
  /// Highest entry sequence among *completed* flushes (0 = none yet).
  std::uint64_t flush_horizon() const noexcept { return flush_horizon_; }

  /// The last WritebackCache::kHistoryWindow transfers with epoch tags,
  /// oldest first (invariant checks; see WritebackCache::transfer_history).
  std::vector<WritebackCache::Entry> transfer_history() const {
    return cache_.transfer_history();
  }

  // ---- queue-depth instrumentation (Figs 9, 10, 12) ----------------------

  /// Enables recording of a (time, depth) series.
  void enable_qd_trace() noexcept { qd_trace_enabled_ = true; }
  const sim::TimeSeries& qd_trace() const noexcept { return qd_trace_; }
  /// Time-weighted average queue depth since start() (or the last reset).
  double average_queue_depth() const;

  /// Restarts QD accounting (benchmarks call this after their setup phase).
  void reset_qd_accounting();

  /// Test hook: re-derives every windowed command's transfer eligibility by
  /// scanning all ports' windows and compares it with the fence index.
  /// True when they agree for every command. O(window^2).
  bool check_fence_index() const;

 private:
  /// Transfer-fence precedence key: epoch-major, seq-minor.
  using FenceKey = std::pair<std::uint64_t, std::uint64_t>;

  struct Slot {
    std::shared_ptr<Command> cmd;
    FenceKey key{};
    bool started = false;
    bool dma_done = false;
  };
  using SlotIter = std::list<Slot>::iterator;

  /// One hardware submission port: an NCQ window plus the channel's
  /// host-side DMA lane. Ports transfer concurrently; ordering decisions
  /// (transfer_eligible) read the device-wide fence index.
  struct Port {
    explicit Port(sim::Simulator& sim) : host_bus(sim, 1) {}
    std::list<Slot> window;
    /// Completed slots' nodes, spliced back into `window` on admission.
    std::list<Slot> spare;
    sim::Semaphore host_bus;
    std::uint64_t submissions = 0;
  };

  static bool is_data(const Command& c) noexcept {
    return c.op != OpCode::kFlush;
  }
  bool transfer_eligible(const Slot& slot) const;
  /// Marks `slot`'s DMA transfer done and drops its fence keys.
  void transfer_done(Slot& slot);
  sim::Task wait_transfer_turn(SlotIter it);
  sim::Task controller_loop();
  sim::Task handle(Port& port, SlotIter it);
  sim::Task handle_write(Port& port, SlotIter it);
  sim::Task handle_read(Port& port, SlotIter it);
  sim::Task handle_flush(Port& port, SlotIter it);
  void complete(Port& port, SlotIter it);

  /// Waits until every cache entry with order < `through` is persistent
  /// (mode-aware: PLP short-circuits, transactional forces a batch).
  sim::Task wait_persisted_through(std::uint64_t through);
  sim::Task do_flush();
  /// Host commands stall while GC erases a segment — the classic GC pause
  /// that produces 99.99th-percentile latency tails (Table 1).
  sim::Task gc_stall();

  // Drain policies.
  sim::Task drain_loop_fifo();      // kNone / kInOrderRecovery / PLP
  sim::Task drain_loop_epoch();     // kInOrderWriteback
  sim::Task drain_one(WritebackCache::Entry e, SegmentLog::Reservation r);
  sim::Task transactional_loop();   // kTransactional

  void note_qd_change();

  sim::Simulator& sim_;
  DeviceProfile profile_;
  NandArray nand_;
  SegmentLog log_;
  WritebackCache cache_;

  std::vector<std::unique_ptr<Port>> ports_;
  /// Fence index over every port's window (ascending keys): data commands
  /// whose transfer is not done, and the ORDERED ones among them.
  std::vector<FenceKey> untransferred_;
  std::vector<FenceKey> untransferred_ordered_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t epoch_ = 0;
  // Fault injection: per-class op ordinals advance only while a plan is
  // installed, so a plan installed before start() sees a deterministic
  // stream for a given workload seed.
  FaultPlan* fault_plan_ = nullptr;
  std::uint64_t fault_write_ops_ = 0;
  std::uint64_t fault_read_ops_ = 0;
  sim::Notify queue_event_;
  sim::Semaphore drain_slots_;

  // kInOrderWriteback bookkeeping.
  std::uint64_t epoch_inflight_programs_ = 0;
  sim::Notify epoch_drained_;

  // kTransactional bookkeeping.
  sim::Notify txn_wake_;
  sim::Notify txn_done_;
  std::uint64_t txn_committed_through_ = 0;  // cache order watermark

  // Flush-horizon counters (see accessors above).
  std::uint64_t flush_entries_ = 0;
  std::uint64_t flush_horizon_ = 0;

  Stats stats_;
  bool started_ = false;

  bool qd_trace_enabled_ = false;
  sim::TimeSeries qd_trace_;
  // Always-on time-weighted QD accumulator.
  double qd_area_ = 0.0;
  sim::SimTime qd_last_change_ = 0;
  std::uint32_t qd_current_ = 0;
  sim::SimTime start_time_ = 0;
};

}  // namespace bio::flash
