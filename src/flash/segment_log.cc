#include "flash/segment_log.h"

#include <algorithm>
#include <limits>

namespace bio::flash {

// ---- AppendHistory ----------------------------------------------------------

std::uint64_t AppendHistory::append(Lba lba, Version version,
                                    bool gc_redundant) {
  tail_.push_back(Record{lba, version, false, gc_redundant});
  return size() - 1;
}

std::uint64_t AppendHistory::append_durable(Lba lba, Version version) {
  BIO_CHECK_MSG(tail_.empty(), "durable append behind unfolded records");
  folded_[lba] = version;
  prefix_ = ++base_;
  if (transactional_) commit_point_ = base_;
  return base_ - 1;
}

void AppendHistory::mark_programmed(std::uint64_t index) {
  BIO_CHECK(index < size());
  if (index >= base_) tail_[index - base_].programmed = true;
  if (index <= prefix_) advance_prefix();
}

bool AppendHistory::programmed(std::uint64_t index) const {
  BIO_CHECK(index < size());
  return index < base_ || tail_[index - base_].programmed;
}

void AppendHistory::mark_commit_point() {
  BIO_CHECK_MSG(transactional_, "commit point on a non-transactional log");
  commit_point_ = size();
  maybe_fold();
}

void AppendHistory::advance_prefix() {
  // gc_redundant records never gate the prefix: their content already sits
  // programmed at an earlier log position, and the source segment outlives
  // the relocation, so recovery loses nothing if the copy is torn.
  const std::uint64_t before = prefix_;
  while (prefix_ < size()) {
    const Record& r = tail_[prefix_ - base_];
    if (!r.programmed && !r.gc_redundant) break;
    ++prefix_;
  }
  if (prefix_ != before) maybe_fold();
}

void AppendHistory::maybe_fold() {
  const std::uint64_t limit =
      transactional_ ? std::min(prefix_, commit_point_) : prefix_;
  if (limit < base_ + kFoldStep) return;
  const auto end = tail_.begin() + static_cast<std::ptrdiff_t>(limit - base_);
  for (auto it = tail_.begin(); it != end; ++it) folded_[it->lba] = it->version;
  tail_.erase(tail_.begin(), end);
  base_ = limit;
}

std::unordered_map<Lba, Version> AppendHistory::durable_through(
    std::uint64_t end, bool programmed_only) const {
  std::unordered_map<Lba, Version> state;
  folded_.for_each([&](Lba lba, Version v) { state.emplace(lba, v); });
  for (std::uint64_t i = base_; i < end; ++i) {
    const Record& r = tail_[i - base_];
    if (!programmed_only || r.programmed) state[r.lba] = r.version;
  }
  return state;
}

std::unordered_map<Lba, Version> AppendHistory::durable_in_order_recovery()
    const {
  return durable_through(prefix_, false);
}

std::unordered_map<Lba, Version> AppendHistory::durable_programmed_set() const {
  return durable_through(size(), true);
}

std::unordered_map<Lba, Version> AppendHistory::durable_committed() const {
  BIO_CHECK_MSG(transactional_, "durable_committed on a non-transactional log");
  return durable_through(commit_point_, false);
}

// ---- SegmentLog -------------------------------------------------------------

SegmentLog::SegmentLog(sim::Simulator& sim, NandArray& nand, BarrierMode mode,
                       Params params)
    : sim_(sim),
      nand_(nand),
      params_(params),
      geom_(nand.geometry()),
      history_(mode == BarrierMode::kTransactional),
      space_freed_(sim),
      gc_wake_(sim),
      erase_done_(sim) {
  segments_.resize(geom_.segments());
  for (auto& seg : segments_)
    seg.slots.resize(static_cast<std::size_t>(geom_.pages_per_segment()));
  for (std::uint32_t s = 1; s < segments_.size(); ++s)
    free_segments_.push_back(s);
  active_segment_ = 0;
  BIO_CHECK_MSG(geom_.segments() > params_.gc_low_watermark + 1,
                "device too small for the GC watermark");
}

void SegmentLog::start() {
  BIO_CHECK(!started_);
  started_ = true;
  sim_.spawn("ftl:gc", gc_loop())->wake_latency = 0;
}

bool SegmentLog::space_available() const noexcept {
  if (!segments_[active_segment_].full()) return true;
  // Keep two free segments in reserve so GC relocation can always proceed
  // even while foreground traffic is blocked waiting for space.
  return free_segments_.size() > 2;
}

SegmentLog::SlotId SegmentLog::take_slot(Lba lba, const Mapping& m) {
  Segment* seg = &segments_[active_segment_];
  if (seg->full()) {
    BIO_CHECK_MSG(!free_segments_.empty(), "allocate_slot without space");
    active_segment_ = free_segments_.front();
    free_segments_.pop_front();
    seg = &segments_[active_segment_];
    BIO_CHECK(seg->next_offset == 0);
  }
  const std::uint32_t offset = seg->next_offset++;
  const SlotId slot =
      static_cast<SlotId>(active_segment_) * geom_.pages_per_segment() +
      offset;
  if (m.slot != kUnmapped) {
    Segment& old_seg = segments_[m.slot / geom_.pages_per_segment()];
    PhysSlot& old_slot = old_seg.slots[m.slot % geom_.pages_per_segment()];
    if (old_slot.valid) {
      old_slot.valid = false;
      BIO_CHECK(old_seg.valid_count > 0);
      --old_seg.valid_count;
    }
  }
  seg->slots[offset] = PhysSlot{lba, true};
  ++seg->valid_count;
  return slot;
}

SegmentLog::Reservation SegmentLog::allocate_slot(Lba lba, Version version,
                                                  Mapping& m,
                                                  bool gc_redundant) {
  const SlotId slot = take_slot(lba, m);
  m = Mapping{slot, version, history_.append(lba, version, gc_redundant)};
  return Reservation{slot, m.history_index};
}

sim::Task SegmentLog::reserve(Lba lba, Version version, Reservation& out) {
  BIO_CHECK_MSG(started_, "SegmentLog::start() not called");
  while (!space_available()) {
    gc_wake_.notify_all();
    co_await space_freed_.wait();
  }
  out = allocate_slot(lba, version, mapping_[lba], /*gc_redundant=*/false);
  if (needs_gc()) gc_wake_.notify_all();
}

sim::Task SegmentLog::program_reserved(Reservation r) {
  co_await nand_.program(chip_of(r.slot));
  history_.mark_programmed(r.history_index);
}

sim::Task SegmentLog::append(Lba lba, Version version) {
  Reservation r;
  co_await reserve(lba, version, r);
  co_await program_reserved(r);
}

sim::Task SegmentLog::read(Lba lba) {
  const Mapping* m = mapping_.find(lba);
  if (m == nullptr) co_return;  // unmapped: served as zeroes
  co_await nand_.read(chip_of(m->slot));
}

std::optional<Version> SegmentLog::mapped_version(Lba lba) const {
  const Mapping* m = mapping_.find(lba);
  if (m == nullptr) return std::nullopt;
  return m->version;
}

void SegmentLog::prefill(double utilization, Lba lba_span, sim::Rng& rng) {
  BIO_CHECK(utilization >= 0.0 && utilization < 1.0);
  BIO_CHECK(lba_span > 0);
  const auto target =
      static_cast<std::uint64_t>(utilization *
                                 static_cast<double>(geom_.physical_pages()));
  for (std::uint64_t i = 0; i < target; ++i) {
    if (!space_available()) break;
    const Lba lba = rng.uniform(0, lba_span - 1);
    Mapping& m = mapping_[lba];
    const SlotId slot = take_slot(lba, m);
    m = Mapping{slot, /*version=*/0, history_.append_durable(lba, 0)};
  }
}

sim::Task SegmentLog::gc_loop() {
  for (;;) {
    while (!needs_gc()) co_await gc_wake_.wait();

    // Victim: the full, non-active segment with the fewest valid pages.
    std::uint32_t victim = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t best_valid = std::numeric_limits<std::uint32_t>::max();
    for (std::uint32_t s = 0; s < segments_.size(); ++s) {
      if (s == active_segment_ || !segments_[s].full()) continue;
      if (segments_[s].valid_count < best_valid) {
        best_valid = segments_[s].valid_count;
        victim = s;
      }
    }
    // A fully-valid victim would gain nothing (and could exhaust the GC
    // reserve); wait until overwrites invalidate some pages.
    if (victim != std::numeric_limits<std::uint32_t>::max() &&
        best_valid >= geom_.pages_per_segment())
      victim = std::numeric_limits<std::uint32_t>::max();
    if (victim == std::numeric_limits<std::uint32_t>::max()) {
      // Nothing collectable yet; wait for more segments to fill.
      co_await gc_wake_.wait();
      continue;
    }

    ++gc_.runs;
    // Relocate valid pages (bounded concurrency), then erase the segment.
    sim::Semaphore inflight(sim_, params_.gc_inflight);
    std::vector<sim::Thread> workers;
    const std::uint64_t base =
        static_cast<std::uint64_t>(victim) * geom_.pages_per_segment();
    for (std::uint32_t off = 0; off < geom_.pages_per_segment(); ++off) {
      if (!segments_[victim].slots[off].valid) continue;
      // iolint: detached-owner(the join loop below waits every worker
      // before the semaphore and segment state go away)
      workers.push_back(sim_.spawn("gc", relocate_slot(base + off, inflight)));
      workers.back()->wake_latency = 0;
    }
    for (const sim::Thread& w : workers) co_await sim_.join(w);
    BIO_CHECK_MSG(segments_[victim].valid_count == 0,
                  "GC victim still has valid pages after relocation");

    // Erase the victim's block on every chip, in parallel. The controller
    // is busy during the erase burst: host commands stall (tail source).
    erasing_ = true;
    std::vector<sim::Thread> erasers;
    for (std::uint32_t c = 0; c < nand_.chip_count(); ++c) {
      erasers.push_back(sim_.spawn("gc:erase", nand_.erase(c)));
      erasers.back()->wake_latency = 0;
    }
    for (const sim::Thread& w : erasers) co_await sim_.join(w);

    erasing_ = false;
    erase_done_.notify_all();

    Segment& seg = segments_[victim];
    seg.next_offset = 0;
    seg.valid_count = 0;
    for (auto& slot : seg.slots) slot = PhysSlot{};
    free_segments_.push_back(victim);
    ++gc_.segments_erased;
    space_freed_.notify_all();
  }
}

sim::Task SegmentLog::relocate_slot(SlotId victim_slot,
                                    sim::Semaphore& inflight) {
  co_await inflight.acquire();
  const Lba lba =
      segments_[victim_slot / geom_.pages_per_segment()]
          .slots[victim_slot % geom_.pages_per_segment()]
          .lba;
  Mapping* m = mapping_.find(lba);
  if (m == nullptr || m->slot != victim_slot) {
    // Overwritten while GC was scanning: nothing to move.
    inflight.release();
    co_return;
  }
  // Synchronous slot assignment keeps log order consistent with mapping
  // updates (no suspension between the check above and the allocation).
  // Only a relocation of already-programmed content is redundant for
  // recovery; copying a page whose own program is still in flight must
  // gate the prefix like any other append.
  const Mapping src = *m;
  const Reservation r = allocate_slot(lba, src.version, *m,
                                      history_.programmed(src.history_index));
  co_await nand_.read(chip_of(victim_slot));
  co_await nand_.program(chip_of(r.slot));
  history_.mark_programmed(r.history_index);
  ++gc_.pages_copied;
  inflight.release();
}

}  // namespace bio::flash
