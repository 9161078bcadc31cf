#include "fs/journal.h"

#include <algorithm>
#include <map>

namespace bio::fs {

Journal::Journal(sim::Simulator& sim, blk::BlockLayer& blk,
                 const FsConfig& cfg, const Layout& layout)
    : sim_(sim),
      blk_(blk),
      cfg_(cfg),
      layout_(layout),
      ckpt_wake_(sim),
      journal_space_(sim) {
  running_ = new_txn();
}

void Journal::attach_data(blk::RequestPtr r) {
  running_->data_reqs.push_back(std::move(r));
}

void Journal::add_journaled_data(std::span<const blk::Block> pages) {
  running_->journaled_data_blocks += static_cast<std::uint32_t>(pages.size());
  running_->journaled_data.insert(running_->journaled_data.end(),
                                  pages.begin(), pages.end());
}

sim::Task Journal::throttle_running_txn(std::size_t adding) {
  while (!aborted_ && !running_->empty() &&
         1 + running_->buffers.size() + running_->journaled_data_blocks +
                 adding >
             max_txn_payload())
    co_await commit(running_->id, WaitMode::kDispatched);
}

sim::Task Journal::dirty_metadata(flash::Lba block, std::uint64_t& txn_out) {
  co_await throttle_running_txn(1);
  while (committing_ != nullptr && committing_->buffers.contains(block)) {
    ++stats_.conflicts;
    Txn& holder = *committing_;
    pin(holder);
    co_await holder.durable.wait();
    unpin(holder);
  }
  running_->buffers.insert(block);
  txn_out = running_->id;
}

bool Journal::is_retired(std::uint64_t tid) const {
  const Txn* t = find_txn(tid);
  return t != nullptr ? t->state == Txn::State::kRetired : freed(tid);
}

const Txn* Journal::find_txn(std::uint64_t tid) const {
  if (running_->id == tid) return running_.get();
  if (tid < closed_base_ || tid - closed_base_ >= closed_.size())
    return nullptr;
  return closed_[tid - closed_base_].get();
}

Journal::Footprint Journal::footprint() const {
  Footprint f;
  for (const std::unique_ptr<Txn>& t : closed_) {
    if (t == nullptr) continue;
    ++f.retained_txns;
    if (t->released) ++f.pinned_txns;
  }
  f.free_txns = free_txns_.size();
  f.live_spans = live_spans_.size();
  f.records = records_.size();
  f.checkpoint_homes = checkpoints_.size();
  for (const auto& [home, copies] : checkpoints_)
    f.checkpoint_copies += copies.size();
  f.data_checkpoint_homes = data_checkpoints_.size();
  for (const auto& [home, copies] : data_checkpoints_)
    f.data_checkpoint_copies += copies.size();
  return f;
}

const JournalRecord* Journal::find_record(flash::Version version) const {
  auto it = records_.find(version);
  return it == records_.end() ? nullptr : &it->second;
}

const Journal::CheckpointCopy* Journal::find_checkpoint(
    flash::Lba home, flash::Version version) const {
  auto it = checkpoints_.find(home);
  if (it == checkpoints_.end()) return nullptr;
  for (const CheckpointCopy& c : it->second)
    if (c.version == version) return &c;
  return nullptr;
}

const MetaSnapshot* Journal::find_snapshot(flash::Lba home,
                                           std::uint64_t tid) const {
  if (const Txn* t = find_txn(tid))
    if (const MetaSnapshot* s = t->find_snapshot(home)) return s;
  auto it = checkpoints_.find(home);
  if (it == checkpoints_.end()) return nullptr;
  for (const CheckpointCopy& c : it->second)
    if (c.txn_id == tid) return &c.snapshot;
  return nullptr;
}

const Journal::DataCheckpointCopy* Journal::find_data_checkpoint(
    flash::Lba home, flash::Version version) const {
  auto it = data_checkpoints_.find(home);
  if (it == data_checkpoints_.end()) return nullptr;
  for (const DataCheckpointCopy& c : it->second)
    if (c.version == version) return &c;
  return nullptr;
}

Txn& Journal::get_txn(std::uint64_t tid) {
  Txn* t = const_cast<Txn*>(find_txn(tid));
  BIO_CHECK_MSG(t != nullptr,
                "unknown transaction id " + std::to_string(tid) +
                    " (running=" + std::to_string(running_->id) + ")");
  return *t;
}

std::unique_ptr<Txn> Journal::new_txn() {
  if (free_txns_.empty()) return std::make_unique<Txn>(sim_, next_txn_id_++);
  std::unique_ptr<Txn> t = std::move(free_txns_.back());
  free_txns_.pop_back();
  t->id = next_txn_id_++;
  return t;
}

Txn* Journal::close_running(bool allow_empty) {
  if (running_->empty() && !allow_empty) return nullptr;
  if (running_->empty()) ++stats_.empty_commits;
  Txn* txn = running_.get();
  txn->state = Txn::State::kCommitting;
  if (close_hook_) close_hook_(*txn);  // freeze metadata-buffer content
  BIO_CHECK(txn->id == closed_base_ + closed_.size());
  closed_.push_back(std::move(running_));
  running_ = new_txn();
  ++stats_.commits;
  return txn;
}

void Journal::unpin(Txn& txn) {
  BIO_CHECK(txn.pins > 0);
  --txn.pins;
  free_if_unpinned(txn);
}

void Journal::release(Txn& txn) {
  // Recovery scans from sb_tail_txn_, which is past this txn now: its
  // records are never looked up again.
  records_.erase(txn.jd_blocks.front().second);
  records_.erase(txn.jc_block.second);
  // Its in-place copies are provably durable, so a home's older copies can
  // never be what a later image holds (copies of one home are serialized
  // and versioned in retire order).
  for (const auto& [home, version] : txn.checkpoint_blocks)
    std::erase_if(checkpoints_.at(home), [v = version](const auto& c) {
      return c.version < v;
    });
  txn.released = true;
  free_if_unpinned(txn);
}

void Journal::free_if_unpinned(Txn& txn) {
  if (!txn.released || txn.pins != 0) return;
  const std::uint64_t id = txn.id;
  if (!txn.flushed) {
    if (freed_unflushed_.size() <= id) freed_unflushed_.resize(id + 1);
    freed_unflushed_[id] = true;
  }
  std::unique_ptr<Txn>& slot = closed_[id - closed_base_];
  slot->clear();
  free_txns_.push_back(std::move(slot));
  while (!closed_.empty() && closed_.front() == nullptr) {
    closed_.pop_front();
    ++closed_base_;
  }
}

// ---- journal space ---------------------------------------------------------

bool Journal::checkpoint_durable(const Txn& txn) const {
  if (!txn.checkpoint_done) return false;
  if (!txn.journaled_data.empty() && !txn.data_checkpointed) return false;
  if (txn.checkpoint_blocks.empty() && txn.journaled_data.empty())
    return true;  // nothing was copied in place
  return proven_durable(txn.checkpoint_flush_stamp);
}

bool Journal::proven_durable(std::uint64_t stamp) const {
  if (blk_.device().profile().plp) return true;
  // A full flush whose entry sequence postdates the stamp snapshotted the
  // cache after the writes completed before it.
  return blk_.device().flush_horizon() > stamp;
}

void Journal::advance_tail() {
  bool advanced = false;
  while (!live_spans_.empty()) {
    const JournalSpan& front = live_spans_.front();
    Txn& txn = *front.txn;
    if (txn.state != Txn::State::kRetired || !checkpoint_durable(txn)) break;
    // Freed: the span itself plus any wrap waste between tail and its start.
    const std::uint32_t cap = cfg_.journal_blocks;
    const std::uint32_t waste =
        (front.start + cap - journal_tail_) % cap;
    BIO_CHECK(journal_used_ >= waste + front.len);
    journal_used_ -= waste + front.len;
    journal_tail_ = (front.start + front.len) % cap;
    // The tail pointer moves past `front`'s txn only when no earlier span
    // remains; track the oldest still-live txn as the scan start.
    const std::uint64_t released_txn = txn.id;
    live_spans_.pop_front();
    sb_tail_txn_ = live_spans_.empty()
                       ? std::max(sb_tail_txn_, released_txn + 1)
                       : std::max(sb_tail_txn_, live_spans_.front().txn->id);
    ++stats_.tail_advances;
    advanced = true;
    // A txn's JD and JC spans are adjacent: its last one just went.
    if (live_spans_.empty() || live_spans_.front().txn != &txn) release(txn);
  }
  if (advanced) journal_space_.notify_all();
}

sim::Task Journal::force_tail_advance() {
  // The front transactions' checkpoints have transferred but are not yet
  // provably durable. Copy any journaled data in place (lazy OptFS
  // checkpoint), then issue the jbd2-style update-log-tail flush; both are
  // off every syscall's critical path except this stalled reserve.
  // Collect the newest journaled content per home lba across the batch: a
  // page journaled by several of these transactions gets ONE in-place copy
  // (two concurrent same-lba writes could land inverted and resurrect the
  // older content — the buffer-lock rule applies to checkpoints too).
  std::map<flash::Lba, flash::Version> to_copy;
  std::vector<Txn*> copied;
  for (const JournalSpan& span : live_spans_) {
    Txn& txn = *span.txn;
    if (txn.state != Txn::State::kRetired) break;
    if (!txn.checkpoint_done) break;
    if (!txn.journaled_data.empty() && !txn.data_checkpointed) {
      for (const blk::Block& page : txn.journaled_data) {
        flash::Version& v = to_copy[page.first];
        v = std::max(v, page.second);
      }
      txn.data_checkpointed = true;
      pin(txn);
      copied.push_back(&txn);
    }
  }
  std::vector<blk::RequestPtr> data_copies;
  data_copies.reserve(to_copy.size());
  for (const auto& [lba, content] : to_copy) {
    const flash::Version v = blk_.next_version();
    data_checkpoints_[lba].push_back(DataCheckpointCopy{v, content});
    const blk::Block payload[1] = {{lba, v}};
    blk::RequestPtr r = blk_.pool().make_write(payload);
    blk_.submit(r);
    data_copies.push_back(std::move(r));
    ++stats_.checkpoint_writes;
  }
  bool copy_failed = false;
  for (const blk::RequestPtr& r : data_copies) {
    co_await r->completion.wait();
    if (r->failed()) copy_failed = true;
  }
  if (copy_failed) {
    // As in checkpoint_tracker: a lost in-place copy means the journal
    // span must never be reused. Abort instead of advancing the tail.
    abort_journal(*live_spans_.front().txn);
    co_return;
  }
  // The data copies postdate the recorded checkpoint stamp; require a flush
  // entered after *their* completion before the space counts as durable.
  const std::uint64_t copies_done = blk_.device().flush_sequence();
  for (Txn* txn : copied) {
    txn->checkpoint_flush_stamp =
        std::max(txn->checkpoint_flush_stamp, copies_done);
    unpin(*txn);
  }
  ++stats_.checkpoint_flushes;
  co_await blk_.flush_and_wait();
  if (proven_durable(copies_done)) {
    // Each home's new copy is durable: its older copies are unreachable.
    for (const blk::RequestPtr& r : data_copies) {
      const auto [lba, v] = r->blocks.front();
      std::erase_if(data_checkpoints_.at(lba),
                    [v](const DataCheckpointCopy& c) { return c.version < v; });
    }
  }
  advance_tail();
  // Re-check is the caller's loop; wake anyone else stalled too.
  journal_space_.notify_all();
}

sim::Task Journal::reserve_journal_blocks(Txn& txn, std::size_t n,
                                          std::vector<blk::Block>& out) {
  const std::uint32_t cap = cfg_.journal_blocks;
  BIO_CHECK_MSG(n <= cap, "transaction larger than the journal");
  for (;;) {
    // An aborted journal never hands out space: its commit machinery is
    // dead and reusing a live span could clobber descriptor/commit
    // evidence recovery still needs. Park until teardown — the abort
    // already woke every commit waiter with its EIO verdict.
    while (aborted_) co_await journal_space_.wait();
    // Free opportunistic releases first (no flush needed).
    if (!live_spans_.empty()) advance_tail();
    const bool wrap = journal_head_ + n > cap;
    const std::uint32_t waste =
        wrap ? cap - static_cast<std::uint32_t>(journal_head_) : 0;
    if (journal_used_ + waste + n <= cap) {
      const std::uint32_t start =
          wrap ? 0 : static_cast<std::uint32_t>(journal_head_);
      if (wrap) {
        journal_head_ = 0;
        ++stats_.journal_wraps;
      }
      out.clear();
      out.reserve(n);
      for (std::size_t i = 0; i < n; ++i)
        out.emplace_back(layout_.journal_base() + journal_head_ + i,
                         blk_.next_version());
      journal_head_ += n;
      journal_used_ += waste + static_cast<std::uint32_t>(n);
      live_spans_.push_back(
          JournalSpan{&txn, start, static_cast<std::uint32_t>(n)});
      stats_.journal_blocks_written += n;
      co_return;
    }
    // No live spans but still no fit: the whole area is free, yet the head
    // sits so close to the end that the wrap waste plus this record exceed
    // the capacity (a group commit over many concurrent writers can carry
    // dozens of buffers, so a single JD approaches the journal size).
    // Nothing lives anywhere — restart the lap at offset 0, which is what
    // jbd2's separate head/tail free-space arithmetic achieves.
    if (live_spans_.empty()) {
      BIO_CHECK_MSG(journal_used_ == 0, "journal accounting corrupt");
      journal_head_ = 0;
      journal_tail_ = 0;
      ++stats_.journal_wraps;
      continue;
    }
    // Journal full: the head would run into records still owned by an
    // un-checkpointed transaction (pre-fix this silently clobbered them).
    ++stats_.journal_stalls;
    BIO_CHECK_MSG(live_spans_.front().txn != &txn,
                  "transaction larger than the journal");
    Txn& oldest = *live_spans_.front().txn;
    if (oldest.state == Txn::State::kRetired && oldest.checkpoint_done) {
      co_await force_tail_advance();
    } else {
      // Wait for the oldest transaction to retire / its checkpoint writes
      // to land; retire() and checkpoint_tracker() notify.
      co_await journal_space_.wait();
    }
  }
}

sim::Task Journal::reserve_jd(Txn& txn) {
  const std::size_t jd_size =
      1 + txn.buffers.size() + txn.journaled_data_blocks;
  co_await reserve_journal_blocks(txn, jd_size, txn.jd_blocks);

  // Register the descriptor's content record. Its tag table (log block ->
  // home) is implied by the transaction: jd_blocks[1..] pair with the
  // metadata buffers in set order, then the journaled data pages —
  // fs::Recovery re-derives it from there.
  records_.emplace(txn.jd_blocks[0].second,
                   JournalRecord{JournalRecord::Type::kDescriptor, txn.id});
}

sim::Task Journal::reserve_jc(Txn& txn) {
  // scratch_jc_ is only touched on the suspension-free path after the
  // reserve completes (one journal thread reserves at a time per journal).
  std::vector<blk::Block>& jc = scratch_jc_;
  co_await reserve_journal_blocks(txn, 1, jc);
  txn.jc_block = jc[0];
  records_.emplace(jc[0].second,
                   JournalRecord{JournalRecord::Type::kCommit, txn.id});
}

// ---- checkpoint ------------------------------------------------------------

sim::Task Journal::checkpoint_tracker() {
  for (;;) {
    while (ckpt_queue_.empty()) co_await ckpt_wake_.wait();
    PendingCheckpoint p = std::move(ckpt_queue_.front());
    ckpt_queue_.pop_front();
    // Deferred copies: their home block had an older copy in flight at
    // submit time (two concurrent writes to one block can land inverted,
    // resurrecting the older content — jbd2's buffer lock forbids it).
    // Serialize: wait out the conflict, then submit.
    for (const blk::Block& b : p.deferred) {
      for (;;) {
        auto it = inflight_ckpt_.find(b.first);
        if (it == inflight_ckpt_.end() || it->second->completion.is_set())
          break;
        co_await it->second->completion.wait();
      }
      const blk::Block payload[1] = {b};
      blk::RequestPtr r = blk_.pool().make_write(payload);
      blk_.submit(r);
      inflight_ckpt_[b.first] = r;
      auto dit = deferred_ckpt_count_.find(b.first);
      BIO_CHECK(dit != deferred_ckpt_count_.end() && dit->second > 0);
      --dit->second;
      p.reqs.push_back(std::move(r));
      ++stats_.checkpoint_writes;
    }
    bool copy_failed = false;
    for (const blk::RequestPtr& r : p.reqs) {
      co_await r->completion.wait();
      if (r->failed()) copy_failed = true;
    }
    // Drop completed conflict-detection entries so the pooled requests can
    // recycle (a block checkpointed once and never again would otherwise
    // pin its request for the rest of the run).
    for (const blk::RequestPtr& r : p.reqs) {
      auto it = inflight_ckpt_.find(r->blocks.front().first);
      if (it != inflight_ckpt_.end() && it->second == r)
        inflight_ckpt_.erase(it);
    }
    if (copy_failed) {
      // A home copy never landed. Marking the checkpoint done would let
      // the journal reuse the span recovery still needs to replay this
      // transaction — acked data loss. jbd2's checkpoint-IO-error path:
      // abort, degrade read-only, keep the log intact for recovery.
      abort_journal(*p.txn);
      co_return;
    }
    p.txn->checkpoint_done = true;
    // The stamp may postdate the actual completion (the tracker drains in
    // retire order) — only ever conservative for the durability proof.
    p.txn->checkpoint_flush_stamp = blk_.device().flush_sequence();
    unpin(*p.txn);
    journal_space_.notify_all();
  }
}

void Journal::checkpoint(Txn& txn) {
  // In-place metadata writes, orderless and asynchronous: checkpointing is
  // not on anyone's critical path once the journal copy is safe. Completion
  // is tracked (checkpoint_tracker) because the journal space the records
  // occupy may only be reused once these copies are durable.
  PendingCheckpoint p;
  p.txn = &txn;
  p.reqs.reserve(txn.buffers.size());
  for (flash::Lba block : txn.buffers) {
    const flash::Version v = blk_.next_version();
    // The copy's record carries the content it writes: the snapshot moves
    // out of the txn, which may be freed long before the copy is pruned.
    CheckpointCopy& copy = checkpoints_[block].emplace_back();
    copy.version = v;
    copy.txn_id = txn.id;
    if (MetaSnapshot* snap = txn.find_snapshot(block))
      copy.snapshot = std::move(*snap);
    txn.checkpoint_blocks.emplace_back(block, v);
    auto it = inflight_ckpt_.find(block);
    auto dit = deferred_ckpt_count_.find(block);
    if ((it != inflight_ckpt_.end() && !it->second->completion.is_set()) ||
        (dit != deferred_ckpt_count_.end() && dit->second > 0)) {
      // An older copy of this block is still in flight (or queued behind
      // one): defer to the tracker (per-block serialization).
      p.deferred.emplace_back(block, v);
      ++deferred_ckpt_count_[block];
      continue;
    }
    const blk::Block payload[1] = {{block, v}};
    blk::RequestPtr r = blk_.pool().make_write(payload);
    blk_.submit(r);
    inflight_ckpt_[block] = r;
    p.reqs.push_back(std::move(r));
    ++stats_.checkpoint_writes;
  }
  txn.meta_snapshots.clear();
  if (txn.journaled_data.empty()) txn.data_checkpointed = true;
  if (p.reqs.empty() && p.deferred.empty()) {
    txn.checkpoint_done = true;
    txn.checkpoint_flush_stamp = 0;  // nothing to persist
    return;
  }
  if (!ckpt_tracker_started_) {
    ckpt_tracker_started_ = true;
    sim_.spawn("jnl:ckpt", checkpoint_tracker());
  }
  pin(txn);  // the tracker holds it across its waits
  ckpt_queue_.push_back(std::move(p));
  ckpt_wake_.notify_all();
}

void Journal::retire(Txn& txn) {
  txn.state = Txn::State::kRetired;
  // Its JD/JC writes completed: let the pool recycle them now rather than
  // when the tail passes (a no-flush stack may not free space for long).
  txn.jd_req.reset();
  txn.jc_req.reset();
  stats_.journaled_data_blocks += txn.journaled_data_blocks;
  if (retire_hook_) retire_hook_(txn);
  checkpoint(txn);
  txn.durable.trigger();
  journal_space_.notify_all();
}

void Journal::abort_journal(Txn& txn) {
  if (aborted_) return;
  aborted_ = true;
  // Wake everyone. The failed txn stays kCommitting forever — it never
  // retires, so it is never freed and neither the live checkers nor
  // recovery ever treat it as committed.
  txn.dispatched.trigger();
  txn.durable.trigger();
  for (const std::unique_ptr<Txn>& t : closed_) {
    if (t != nullptr && t->state == Txn::State::kCommitting) {
      t->dispatched.trigger();
      t->durable.trigger();
    }
  }
  running_->dispatched.trigger();
  running_->durable.trigger();
  journal_space_.notify_all();
  ckpt_wake_.notify_all();
  if (abort_hook_) abort_hook_();
}

}  // namespace bio::fs
