// Device write-back cache.
//
// Write commands DMA their blocks into this cache; a drain policy (owned by
// the StorageDevice, driven by the BarrierMode) moves entries to flash via
// the SegmentLog. Each entry is tagged with the *device epoch* current at
// its transfer time: barrier writes advance the epoch, and the epoch tags
// are what the in-order-writeback drain and the crash-invariant checkers
// consume.
//
// With power-loss protection (supercap) the cache itself is durable, so a
// flush answers in O(1); without PLP a flush must wait until every entry
// transferred so far has been programmed.
//
// Per-IO state is flat: the in-flight orders sit in one dense window
// indexed by order (a vector compacted from the front), and the
// newest-dirty index (read hits) is an LbaTable (lba_table.h), so insert,
// drain and lookup allocate nothing once the touched LBA chunks exist. The
// transfer history is a fixed ring of the last kHistoryWindow entries, so
// no per-device structure grows with run length.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "flash/lba_table.h"
#include "flash/types.h"
#include "sim/simulator.h"
#include "sim/sync.h"

namespace bio::flash {

class WritebackCache {
 public:
  /// Transfers kept by transfer_history(): 4x the plain-SSD cache.
  static constexpr std::size_t kHistoryWindow = 16384;

  struct Entry {
    Lba lba = 0;
    Version version = 0;
    std::uint64_t epoch = 0;
    /// Arrival (transfer) order, dense from 0.
    std::uint64_t order = 0;
    /// True if the write carried the barrier flag (last block of a barrier
    /// command); kept for analysis.
    bool barrier = false;
  };

  WritebackCache(sim::Simulator& sim, std::size_t capacity_entries)
      : sim_(sim), capacity_(capacity_entries), space_(sim, capacity_entries),
        drain_ready_(sim), drained_(sim) {
    BIO_CHECK(capacity_ > 0);
    history_.reserve(kHistoryWindow);
  }

  /// DMA landing point: blocks until a cache slot is free (this is how a
  /// saturated device back-pressures the host), then records the entry.
  sim::Task insert(Lba lba, Version version, std::uint64_t epoch,
                   bool barrier);

  /// Oldest not-yet-claimed dirty entry, FIFO order. Blocks while empty.
  /// Returns nullopt only if the cache was shut down (not implemented: the
  /// simulator tears the drain thread down instead).
  sim::Task claim_next(Entry& out);

  /// Marks `order` programmed to flash and releases its cache slot. The
  /// order must have been claimed and not drained yet.
  void mark_drained(std::uint64_t order);

  /// Highest order id assigned so far +1 (0 if no entries yet).
  std::uint64_t next_order() const noexcept { return next_order_; }

  /// True when every entry with order < `through` has been drained.
  bool drained_through(std::uint64_t through) const noexcept {
    return window_head_ == window_.size() || window_base_ >= through;
  }

  /// Blocks until drained_through(through) holds.
  sim::Task wait_drained_through(std::uint64_t through);

  /// Latest cached version for `lba`, if its newest write is still dirty.
  std::optional<Version> lookup(Lba lba) const;

  /// Entries transferred but not yet drained, in arrival order (crash
  /// analysis for PLP devices; snapshot copy). Walks the in-flight window
  /// only, so the cost is bounded by the cache capacity.
  std::vector<Entry> undrained_entries() const;

  /// The last kHistoryWindow transfers (order, epoch, barrier), oldest
  /// first, for invariant checks (snapshot copy). The history is complete
  /// iff it is empty or its first entry has order 0.
  std::vector<Entry> transfer_history() const;

  std::size_t dirty_count() const noexcept { return dirty_count_; }
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  sim::Simulator& sim_;
  std::size_t capacity_;
  sim::Semaphore space_;
  sim::Notify drain_ready_;
  sim::Notify drained_;

  /// One in-flight order in the window; drained ones linger until every
  /// older order has drained too.
  struct InFlight {
    Entry entry;
    bool drained = false;
  };

  std::uint64_t next_order_ = 0;
  /// Orders [window_base_, next_order_) sit at window_[window_head_ + order
  /// - window_base_]; the slots before window_head_ are popped. The front
  /// is always undrained: it is popped as soon as it drains. Orders from
  /// next_claim_ on are not claimed yet; only claimed orders drain, so
  /// window_base_ <= next_claim_. The vector is compacted from the front,
  /// so it keeps its capacity and steady-state traffic allocates nothing.
  std::vector<InFlight> window_;
  std::size_t window_head_ = 0;
  std::uint64_t window_base_ = 0;
  InFlight& in_flight(std::uint64_t order) {
    return window_[window_head_ + (order - window_base_)];
  }
  std::uint64_t next_claim_ = 0;
  std::size_t dirty_count_ = 0;
  /// LBA -> its newest write while that write is still undrained.
  struct Newest {
    std::uint64_t order = 0;
    Version version = 0;
  };
  LbaTable<Newest> newest_dirty_;
  /// Ring of the last kHistoryWindow transfers: order o sits at
  /// o % kHistoryWindow (capacity reserved once, filled as orders arrive).
  std::vector<Entry> history_;
};

}  // namespace bio::flash
