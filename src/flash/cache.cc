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
  history_.push_back(e);
  drain_ready_.notify_all();
}

sim::Task WritebackCache::claim_next(Entry& out) {
  while (next_claim_ == next_order_) co_await drain_ready_.wait();
  out = window_[next_claim_++ - window_base_].entry;
}

void WritebackCache::mark_drained(std::uint64_t order) {
  BIO_CHECK_MSG(order >= window_base_ && order < next_claim_ &&
                    !window_[order - window_base_].drained,
                "mark_drained on an unknown, unclaimed or drained order");
  InFlight& slot = window_[order - window_base_];
  slot.drained = true;
  --dirty_count_;
  const Newest* newest = newest_dirty_.find(slot.entry.lba);
  if (newest != nullptr && newest->order == order)
    newest_dirty_.erase(slot.entry.lba);
  while (!window_.empty() && window_.front().drained) {
    window_.pop_front();
    ++window_base_;
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

std::vector<WritebackCache::Entry> WritebackCache::undrained_entries() const {
  std::vector<Entry> out;
  out.reserve(dirty_count_);
  for (const InFlight& f : window_)
    if (!f.drained) out.push_back(f.entry);
  return out;
}

}  // namespace bio::flash
