// OptFS-style optimistic crash consistency (the paper's closest related
// work; evaluated in §6.4/§6.5).
//
// osync() commits like EXT4 but:
//   * JD and JC are dispatched back-to-back and waited together — the
//     transactional checksum removes the flush *between* them,
//   * no flush is ever issued — durability is deferred (the real system's
//     asynchronous durability notifications are modelled by retiring the
//     transaction at JC transfer and checkpointing lazily),
//   * overwritten data pages are *selectively data-journaled*: they travel
//     inside JD instead of being written in place, which is why OptFS
//     struggles on overwrite-heavy workloads (MySQL, §6.5).
//
// It keeps JBD2's single committing transaction and its blocking
// page-conflict rule (the fs::Journal::dirty_metadata default).
//
// OptFS still relies on Wait-on-Transfer (that is the paper's point), so it
// runs on the legacy block layer.
#pragma once

#include "fs/journal.h"

namespace bio::fs {

class OptFsJournal : public Journal {
 public:
  OptFsJournal(sim::Simulator& sim, blk::BlockLayer& blk, const FsConfig& cfg,
               const Layout& layout)
      : Journal(sim, blk, cfg, layout), commit_wake_(sim) {}

  void start() override;
  sim::Task commit(std::uint64_t tid, WaitMode mode) override;

 private:
  sim::Task commit_loop();

  bool commit_pending_ = false;
  sim::Notify commit_wake_;
};

}  // namespace bio::fs
