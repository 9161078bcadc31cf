#include "flash/cache.h"

namespace bio::flash {

sim::Task WritebackCache::insert(Lba lba, Version version, std::uint64_t epoch,
                                 bool barrier) {
  co_await space_.acquire();
  Entry e;
  e.lba = lba;
  e.version = version;
  e.epoch = epoch;
  e.order = next_order_++;
  e.barrier = barrier;
  window_.push_back(InFlight{e});
  ++dirty_count_;
  newest_dirty_[lba] = Newest{e.order, version};
  if (history_.size() < kHistoryWindow)
    history_.push_back(e);
  else
    history_[e.order % kHistoryWindow] = e;
  drain_ready_.notify_all();
}

sim::Task WritebackCache::claim_next(Entry& out) {
  while (next_claim_ == next_order_) co_await drain_ready_.wait();
  out = in_flight(next_claim_++).entry;
}

void WritebackCache::mark_drained(std::uint64_t order) {
  BIO_CHECK_MSG(order >= window_base_ && order < next_claim_ &&
                    !in_flight(order).drained,
                "mark_drained on an unknown, unclaimed or drained order");
  InFlight& slot = in_flight(order);
  slot.drained = true;
  --dirty_count_;
  const Newest* newest = newest_dirty_.find(slot.entry.lba);
  if (newest != nullptr && newest->order == order)
    newest_dirty_.erase(slot.entry.lba);
  while (window_head_ < window_.size() && window_[window_head_].drained) {
    ++window_head_;
    ++window_base_;
  }
  // Compact once the popped slots are at least half the vector: each
  // compaction moves no more entries than were popped since the last one.
  if (2 * window_head_ >= window_.size()) {
    window_.erase(window_.begin(),
                  window_.begin() + static_cast<std::ptrdiff_t>(window_head_));
    window_head_ = 0;
  }
  space_.release();
  drained_.notify_all();
}

sim::Task WritebackCache::wait_drained_through(std::uint64_t through) {
  while (!drained_through(through)) co_await drained_.wait();
}

std::optional<Version> WritebackCache::lookup(Lba lba) const {
  const Newest* newest = newest_dirty_.find(lba);
  if (newest == nullptr) return std::nullopt;
  return newest->version;
}

std::vector<WritebackCache::Entry> WritebackCache::transfer_history() const {
  // Until the ring wraps, slot i holds order i; after that the oldest
  // retained order sits at next_order_ % kHistoryWindow.
  const std::size_t oldest =
      history_.size() < kHistoryWindow ? 0 : next_order_ % kHistoryWindow;
  std::vector<Entry> out(history_.begin() + static_cast<std::ptrdiff_t>(oldest),
                         history_.end());
  out.insert(out.end(), history_.begin(),
             history_.begin() + static_cast<std::ptrdiff_t>(oldest));
  return out;
}

std::vector<WritebackCache::Entry> WritebackCache::undrained_entries() const {
  std::vector<Entry> out;
  out.reserve(dirty_count_);
  for (std::size_t i = window_head_; i < window_.size(); ++i)
    if (!window_[i].drained) out.push_back(window_[i].entry);
  return out;
}

}  // namespace bio::flash
