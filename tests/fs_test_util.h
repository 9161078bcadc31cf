// Helpers for filesystem/stack tests: a small fast stack fixture.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/stack.h"
#include "flash_test_util.h"
#include "fs/journal.h"

namespace bio::fs::testutil {

/// What a test reads of one retired transaction.
struct RetiredTxn {
  std::uint64_t id = 0;
  std::vector<flash::Lba> buffers;
  std::uint32_t journaled_data_blocks = 0;
  std::vector<std::pair<flash::Lba, flash::Version>> jd_blocks;
  std::pair<flash::Lba, flash::Version> jc_block{0, 0};
  bool flushed = false;
};

/// The journal's commit order, copied through its retire hook as each
/// transaction retires (the journal frees a txn once its tail passes it).
struct RetiredTxns {
  std::vector<RetiredTxn> txns;

  explicit RetiredTxns(Journal& journal) {
    journal.set_retire_hook([this](const Txn& t) {
      txns.push_back(RetiredTxn{
          t.id, std::vector<flash::Lba>(t.buffers.begin(), t.buffers.end()),
          t.journaled_data_blocks, t.jd_blocks, t.jc_block, t.flushed});
    });
  }
  RetiredTxns(const RetiredTxns&) = delete;
  RetiredTxns& operator=(const RetiredTxns&) = delete;
};

/// StackConfig for `kind` on the tiny test device (larger than the device
/// tests' profile so filesystem workloads fit comfortably).
inline core::StackConfig test_stack_config(core::StackKind kind) {
  flash::DeviceProfile dev =
      flash::testutil::test_profile(flash::BarrierMode::kNone);
  dev.geometry.blocks_per_chip = 64;   // 4 chips * 64 * 4 = 1024 pages
  dev.queue_depth = 16;
  dev.cache_entries = 64;
  core::StackConfig cfg = core::StackConfig::make(kind, dev);
  cfg.fs.journal_blocks = 256;
  cfg.fs.max_inodes = 64;
  cfg.fs.default_extent_blocks = 64;
  cfg.fs.writeback_high_watermark = 1u << 20;  // pdflush off unless wanted
  return cfg;
}

struct StackFixture {
  std::unique_ptr<core::Stack> stack;

  explicit StackFixture(core::StackKind kind,
                        core::StackConfig* custom = nullptr) {
    core::StackConfig cfg = custom ? *custom : test_stack_config(kind);
    stack = std::make_unique<core::Stack>(cfg);
    stack->start();
  }

  sim::Simulator& sim() { return stack->sim(); }
  fs::Filesystem& fs() { return stack->fs(); }
  flash::StorageDevice& dev() { return stack->device(); }
};

/// NodeConfig with one test-sized volume per kind, named "v0", "v1", ...
inline core::NodeConfig test_node_config(
    const std::vector<core::StackKind>& kinds) {
  std::vector<core::StackConfig> bases;
  for (core::StackKind kind : kinds) bases.push_back(test_stack_config(kind));
  return core::NodeConfig::from(bases);
}

/// A started multi-volume node (volumes "v0", "v1", ... per `kinds`).
struct NodeFixture {
  std::unique_ptr<core::Stack> node;

  explicit NodeFixture(const std::vector<core::StackKind>& kinds,
                       const core::NodeConfig* custom = nullptr) {
    node = std::make_unique<core::Stack>(custom ? *custom
                                                : test_node_config(kinds));
    node->start();
  }

  sim::Simulator& sim() { return node->sim(); }
  core::Volume& vol(std::size_t i) { return node->volume(i); }
  fs::Filesystem& fs(std::size_t i) { return node->volume(i).fs(); }
};

}  // namespace bio::fs::testutil
