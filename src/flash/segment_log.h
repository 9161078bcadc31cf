// Log-structured FTL: the paper's UFS firmware treats the entire device as
// a single log (§3.2, "in-order recovery"). Appends are assigned log
// positions in call order and striped round-robin across chips, so programs
// proceed in parallel while the *log order* still encodes the transfer
// order. Crash recovery scans the log and truncates at the first page that
// did not finish programming, which is exactly what makes the barrier
// command free of flush overhead.
//
// A background garbage collector relocates valid pages out of the victim
// segment and erases it; GC contends with foreground traffic on the chips,
// producing the long latency tails of Table 1.
//
// The LBA -> (slot, version, history index) map is a flat LbaTable
// (lba_table.h): chunked, directly indexed, allocated per 1024-LBA chunk on
// first append, so the per-IO lookups in reserve/read/GC allocate nothing.
//
// What a crash keeps is answered by an AppendHistory: the records below the
// programmed prefix are folded into a durable LBA -> version map, so the
// log's memory tracks the programs in flight, not the run length.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "flash/geometry.h"
#include "flash/lba_table.h"
#include "flash/nand.h"
#include "flash/types.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace bio::flash {

/// The FTL's append log as crash recovery reads it: one record per page
/// program, in reservation (= persist) order, each either in flight or
/// programmed. It answers the three durable views of SegmentLog.
///
/// Invariant: every record below `base` is programmed or a GC copy of
/// programmed content, and lies below the programmed prefix (and, on a
/// transactional device, below the last commit point). Applying those
/// records in log order gives the same map under all three views, so they
/// are folded into one durable LBA -> version table and dropped; only the
/// tail [base, size) is kept. The fold runs in steps of kFoldStep records,
/// so the tail holds at most the records from the oldest in-flight program
/// (or the last commit point) on, plus one step. History indices keep
/// counting across the fold.
class AppendHistory {
 public:
  /// Records folded at once; the tail's slack above what is in flight.
  static constexpr std::uint64_t kFoldStep = 4096;

  /// A transactional history answers durable_committed(), so its fold
  /// never passes the last commit point.
  explicit AppendHistory(bool transactional) : transactional_(transactional) {
    // One fold step plus what is in flight fits without regrowth.
    tail_.reserve(2 * kFoldStep);
  }

  /// Appends an unprogrammed record; returns its history index.
  /// `gc_redundant` marks a GC copy of already-programmed content: recovery
  /// can fall back to the source (its segment is not erased until the copy
  /// lands), so the copy never truncates the in-order-recovery prefix.
  std::uint64_t append(Lba lba, Version version, bool gc_redundant);

  /// Appends a record that is programmed (and committed) on arrival,
  /// straight into the folded map. Needs an empty tail (prefill).
  std::uint64_t append_durable(Lba lba, Version version);

  void mark_programmed(std::uint64_t index);

  /// True if record `index` has been programmed. A folded record counts as
  /// programmed: the only unprogrammed records the fold passes are GC
  /// copies, and GC waits for every copy before it picks the next victim,
  /// so none of them is ever the source of another relocation.
  bool programmed(std::uint64_t index) const;

  /// Everything appended so far becomes atomically durable.
  void mark_commit_point();

  std::uint64_t size() const noexcept { return base_ + tail_.size(); }
  /// One past the longest prefix of programmed (or GC-redundant) records.
  std::uint64_t programmed_prefix() const noexcept { return prefix_; }
  /// Records kept above the folded map.
  std::size_t retained() const noexcept { return tail_.size(); }

  /// Records [0, programmed_prefix()), applied in log order.
  std::unordered_map<Lba, Version> durable_in_order_recovery() const;
  /// Every programmed record, applied in log order.
  std::unordered_map<Lba, Version> durable_programmed_set() const;
  /// Records up to the last commit point (transactional history only).
  std::unordered_map<Lba, Version> durable_committed() const;

 private:
  struct Record {
    Lba lba;
    Version version;
    bool programmed;
    bool gc_redundant;
  };

  void advance_prefix();
  void maybe_fold();
  /// The folded map plus the tail records below `end` (only the programmed
  /// ones if `programmed_only`).
  std::unordered_map<Lba, Version> durable_through(std::uint64_t end,
                                                   bool programmed_only) const;

  bool transactional_;
  LbaTable<Version> folded_;  // records [0, base_), applied in log order
  std::vector<Record> tail_;  // records [base_, size())
  std::uint64_t base_ = 0;
  std::uint64_t prefix_ = 0;
  std::uint64_t commit_point_ = 0;  // transactional only
};

class SegmentLog {
 public:
  struct Params {
    /// GC starts when free segments drop to this count.
    std::uint32_t gc_low_watermark = 3;
    /// Concurrent GC page relocations.
    std::uint32_t gc_inflight = 8;
  };

  struct GcStats {
    std::uint64_t runs = 0;
    std::uint64_t pages_copied = 0;
    std::uint64_t segments_erased = 0;
  };

  /// `mode` is the device's barrier mode; a kTransactional log keeps its
  /// history back to the last commit point.
  SegmentLog(sim::Simulator& sim, NandArray& nand,
             BarrierMode mode = BarrierMode::kNone)
      : SegmentLog(sim, nand, mode, Params{}) {}
  SegmentLog(sim::Simulator& sim, NandArray& nand, BarrierMode mode,
             Params params);

  /// Spawns the background GC thread. Call once before appends.
  void start();

  /// A reserved log position (see reserve()/program_reserved()).
  struct Reservation {
    std::uint64_t slot = 0;
    std::uint64_t history_index = 0;
  };

  /// Reserves the next log position for (lba, version). Call sequentially:
  /// the reservation order defines the persist order that in-order recovery
  /// preserves. May block waiting for GC to free a segment.
  sim::Task reserve(Lba lba, Version version, Reservation& out);

  /// Programs a reserved slot; safe to run many concurrently (this is where
  /// the multi-channel parallelism comes from).
  sim::Task program_reserved(Reservation r);

  /// reserve() + program_reserved() in one step (convenience/tests).
  sim::Task append(Lba lba, Version version);

  /// Reads the page currently mapped to `lba` (no-op timing if unmapped).
  sim::Task read(Lba lba);

  /// Records a transactional commit point: everything appended so far is
  /// atomically durable (kTransactional logs only).
  void mark_commit_point() { history_.mark_commit_point(); }

  // ---- crash / durability analysis (non-destructive) --------------------

  /// Durable state under in-order recovery: longest programmed prefix of
  /// the append log, applied in log order.
  std::unordered_map<Lba, Version> durable_in_order_recovery() const {
    return history_.durable_in_order_recovery();
  }

  /// Durable state when every individually-programmed page survives
  /// (no-barrier or in-order-writeback devices), applied in log order.
  std::unordered_map<Lba, Version> durable_programmed_set() const {
    return history_.durable_programmed_set();
  }

  /// Durable state under transactional write-back: entries up to the last
  /// commit point only (kTransactional logs only).
  std::unordered_map<Lba, Version> durable_committed() const {
    return history_.durable_committed();
  }

  /// Index (into the append history) one past the longest programmed
  /// prefix.
  std::uint64_t programmed_prefix() const noexcept {
    return history_.programmed_prefix();
  }

  std::uint64_t append_count() const noexcept { return history_.size(); }
  /// Append records kept in memory (the unfolded tail of the history).
  std::size_t retained_history() const noexcept { return history_.retained(); }
  std::uint64_t free_segment_count() const noexcept {
    return free_segments_.size();
  }
  const GcStats& gc_stats() const noexcept { return gc_; }

  /// True while GC is erasing a segment (the controller stalls host
  /// commands during the erase burst; source of the 99.99th-pct tails).
  bool erasing() const noexcept { return erasing_; }
  sim::Notify& erase_done() noexcept { return erase_done_; }

  /// Synchronously pre-populates the log to `utilization` (0..1) of
  /// physical capacity with pages spread over `lba_span` addresses, so GC
  /// has realistic work from the start of a benchmark. No simulated time
  /// elapses.
  void prefill(double utilization, Lba lba_span, sim::Rng& rng);

  /// The version currently mapped at `lba` on flash, if any (test helper).
  std::optional<Version> mapped_version(Lba lba) const;

 private:
  struct PhysSlot {
    Lba lba = 0;
    bool valid = false;
  };
  struct Segment {
    std::vector<PhysSlot> slots;
    std::uint32_t next_offset = 0;  // append cursor within the segment
    std::uint32_t valid_count = 0;
    bool full() const noexcept {
      return next_offset >= static_cast<std::uint32_t>(slots.size());
    }
  };

  /// Global physical slot id = segment * pages_per_segment + offset.
  using SlotId = std::uint64_t;

  std::uint32_t chip_of(SlotId slot) const noexcept {
    return static_cast<std::uint32_t>(slot % nand_.chip_count());
  }

  /// Slot of an LBA mapping entry that was just created.
  static constexpr SlotId kUnmapped = ~SlotId{0};

  /// Where an LBA's current content lives and which append put it there.
  struct Mapping {
    SlotId slot = kUnmapped;
    Version version = 0;
    std::uint64_t history_index = 0;  // record that installed this mapping
  };

  /// Takes the next physical slot for `lba`, whose mapping entry is `m`,
  /// and invalidates the slot `m` pointed at. The caller remaps `m`.
  SlotId take_slot(Lba lba, const Mapping& m);

  /// take_slot() plus a history record; remaps `m` to the new slot.
  /// Synchronous (no suspension between the capacity check and the
  /// assignment).
  Reservation allocate_slot(Lba lba, Version version, Mapping& m,
                            bool gc_redundant);

  /// True if a slot can be allocated right now.
  bool space_available() const noexcept;

  sim::Task gc_loop();
  sim::Task relocate_slot(SlotId victim_slot, sim::Semaphore& inflight);
  bool needs_gc() const noexcept {
    return free_segments_.size() <= params_.gc_low_watermark;
  }

  sim::Simulator& sim_;
  NandArray& nand_;
  Params params_;
  Geometry geom_;

  std::vector<Segment> segments_;
  std::deque<std::uint32_t> free_segments_;
  std::uint32_t active_segment_;

  /// LBA -> current mapping; entries are created by the first append of an
  /// LBA and never erased (an overwrite remaps in place).
  LbaTable<Mapping> mapping_;

  AppendHistory history_;  // append order = persist order

  sim::Notify space_freed_;
  sim::Notify gc_wake_;
  bool erasing_ = false;
  sim::Notify erase_done_;
  GcStats gc_;
  bool started_ = false;
};

}  // namespace bio::flash
