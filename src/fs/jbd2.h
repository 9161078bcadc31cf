// EXT4 / JBD2 Ordered-mode journaling — the paper's baseline (§2.3, Fig 3).
//
// One JBD thread commits one transaction at a time with Wait-on-Transfer
// and Wait-on-Flush:
//   D (data, waited by the fsync caller) -> JD (wait transfer) ->
//   JC with FLUSH|FUA (wait completion).
// Variants:
//   * nobarrier        — JC is a plain write; nothing is flushed (EXT4-OD),
//   * journal_checksum — JC is FUA-only (no pre-flush; the checksum guards
//     atomicity) followed by one flush for data durability (the mobile
//     EXT4 configuration the paper describes in §6.3).
//
// An application dirtying a metadata buffer held by *the* committing
// transaction blocks until that transaction retires (§4.3's page conflict,
// EXT4 flavour).
#pragma once

#include "fs/journal.h"

namespace bio::fs {

class Jbd2Journal : public Journal {
 public:
  Jbd2Journal(sim::Simulator& sim, blk::BlockLayer& blk, const FsConfig& cfg,
              const Layout& layout)
      : Journal(sim, blk, cfg, layout), commit_wake_(sim) {}

  void start() override;
  sim::Task commit(std::uint64_t tid, WaitMode mode) override;

 private:
  sim::Task jbd_loop();

  bool commit_pending_ = false;
  sim::Notify commit_wake_;
};

}  // namespace bio::fs
