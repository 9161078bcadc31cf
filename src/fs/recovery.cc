#include "fs/recovery.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

namespace bio::fs {

RecoveryReport Recovery::recover(const flash::BlockImage& image) const {
  RecoveryReport report;
  report.scan_start_txn = journal_.sb_tail_txn();

  auto durable_version =
      [&image](flash::Lba lba) -> std::optional<flash::Version> {
    auto it = image.find(lba);
    if (it == image.end()) return std::nullopt;
    return it->second;
  };

  // ---- 1. read the journal area ------------------------------------------
  // For every journal block that survived, look up what its surviving
  // version contained. Records overwritten by a later lap resolve to the
  // newer transaction's record, exactly as a real scan would read them.
  // Records of transactions before the superblock tail were dropped with
  // their spans; the scan below never starts before it anyway.
  std::set<std::uint64_t> descriptors;
  std::set<std::uint64_t> commits;
  const flash::Lba jbase = layout_.journal_base();
  for (flash::Lba off = 0; off < cfg_.journal_blocks; ++off) {
    const auto v = durable_version(jbase + off);
    if (!v) continue;
    const JournalRecord* rec = journal_.find_record(*v);
    if (rec == nullptr) continue;  // pre-journal content (never written)
    switch (rec->type) {
      case JournalRecord::Type::kDescriptor:
        descriptors.insert(rec->txn_id);
        break;
      case JournalRecord::Type::kCommit:
        commits.insert(rec->txn_id);
        break;
    }
  }

  // ---- 2. scan, validate, truncate ---------------------------------------
  // Walk transactions in commit (= id) order from the superblock tail.
  // Per-home replay decisions accumulate here; `meta_replayed` maps a
  // metadata home block to the newest transaction that validly replays it.
  std::unordered_map<flash::Lba, std::uint64_t> meta_replayed;
  std::map<flash::Lba, flash::Version> data_replayed;  // sorted for step 5
  std::set<flash::Lba> destroyed;  // homes clobbered by stale-log replay

  // Enumerates the descriptor's tag table: jd_blocks[0] is the descriptor
  // itself; the log blocks pair with the metadata buffers (set order), then
  // the journaled data pages. fn(journal block, home lba, content version
  // [0 = metadata snapshot], is_data).
  auto for_each_tag = [](const Txn& txn, auto&& fn) {
    std::size_t i = 1;
    for (flash::Lba home : txn.buffers)
      fn(txn.jd_blocks[i++], home, flash::Version{0}, false);
    for (const blk::Block& page : txn.journaled_data)
      fn(txn.jd_blocks[i++], page.first, page.second, true);
  };

  std::uint64_t t = report.scan_start_txn;
  for (;; ++t) {
    const bool has_commit = commits.contains(t);
    const bool has_desc = descriptors.contains(t);
    if (!has_commit || !has_desc) {
      // End of log. Partial evidence means the tail commit was torn.
      report.tail_truncated = has_commit || has_desc;
      break;
    }
    const Txn* txn = journal_.find_txn(t);
    BIO_CHECK_MSG(txn != nullptr, "journal record for unknown transaction");
    bool torn = false;
    for_each_tag(*txn, [&](const blk::Block& jblock, flash::Lba,
                           flash::Version, bool) {
      if (durable_version(jblock.first) != jblock.second) torn = true;
    });
    // The commit record's checksum also covers in-place data (OptFS): a
    // covered block that did not reach media fails the checksum.
    for (const blk::Block& b : txn->covered_data) {
      const auto v = durable_version(b.first);
      if (!v || *v < b.second) {
        torn = true;
        break;
      }
    }
    if (torn && checksummed()) {
      // The commit checksum fails: this transaction and everything after
      // it is discarded. Detected, so nothing is replayed corruptly.
      report.corruption_detected = true;
      report.tail_truncated = true;
      break;
    }
    // Replay. With a torn descriptor chain and no checksum the replay
    // still happens (JBD2 has no way to notice): homes whose log copy is
    // stale receive garbage.
    for_each_tag(*txn, [&](const blk::Block& jblock, flash::Lba home,
                           flash::Version content, bool is_data) {
      const bool ok = durable_version(jblock.first) == jblock.second;
      if (!ok) {
        destroyed.insert(home);
        report.corrupted_blocks.push_back(home);
        return;
      }
      destroyed.erase(home);  // a newer valid copy heals the home
      if (is_data)
        data_replayed[home] = std::max(data_replayed[home], content);
      else
        meta_replayed[home] = std::max(meta_replayed[home], t);
    });
    report.last_replayed_txn = t;
    ++report.txns_replayed;
  }
  // Commit evidence beyond the stop point = discarded transactions.
  for (std::uint64_t id : commits)
    if (id >= t) ++report.txns_discarded;

  // ---- 3. resolve metadata block content ---------------------------------
  // A metadata block's recovered content is the newest of (a) the in-place
  // checkpoint copy the image holds and (b) the journal replay — each a
  // MetaSnapshot frozen at its transaction's close. The copy's record
  // carries its snapshot: its transaction may be long freed.
  const flash::Lba ibase = layout_.inode_base();
  auto meta_content = [&](flash::Lba block) -> const MetaSnapshot* {
    if (destroyed.contains(block)) return nullptr;
    const Journal::CheckpointCopy* ck = nullptr;
    if (const auto v = durable_version(block))
      ck = journal_.find_checkpoint(block, *v);
    auto rit = meta_replayed.find(block);
    const std::uint64_t replayed =
        rit == meta_replayed.end() ? 0 : rit->second;
    if (ck != nullptr && ck->txn_id >= replayed) return &ck->snapshot;
    if (replayed == 0) return nullptr;  // block never committed
    return journal_.find_snapshot(block, replayed);
  };

  // ---- 4. reconstruct the namespace --------------------------------------
  for (std::uint32_t shard = 0; shard < kDirShards; ++shard) {
    const MetaSnapshot* dir = meta_content(ibase + shard);
    if (dir == nullptr || !dir->is_directory) continue;
    for (const auto& [name, ino] : dir->entries) {
      const MetaSnapshot* inode = meta_content(ibase + ino);
      if (inode == nullptr || inode->is_directory || !inode->exists) continue;
      if (inode->name != name) continue;  // ino recycled under another name
      report.files.push_back(RecoveryReport::RecoveredFile{
          name, ino, inode->extent_base, inode->extent_blocks,
          inode->size_blocks});
    }
  }
  std::sort(report.files.begin(), report.files.end(),
            [](const auto& a, const auto& b) { return a.ino < b.ino; });

  // ---- 5. recover data content -------------------------------------------
  // In-place state (checkpointed data copies resolve to the page version
  // they carried), the replayed journal copies over it (the newer content
  // wins), destroyed data homes dropped. The image and data_replayed are
  // both sorted by LBA, so one merge builds the flat result.
  const auto in_place = std::partition_point(
      image.begin(), image.end(),
      [&](const auto& e) { return e.first < layout_.data_base(); });
  std::vector<flash::BlockImage::Entry> data;
  data.reserve(static_cast<std::size_t>(image.end() - in_place) +
               data_replayed.size());
  auto emit = [&](flash::Lba lba, flash::Version v) {
    if (lba < layout_.data_base() || !destroyed.contains(lba))
      data.emplace_back(lba, v);
  };
  auto rep = data_replayed.cbegin();
  for (auto it = in_place; it != image.end(); ++it) {
    const auto [lba, v] = *it;
    for (; rep != data_replayed.cend() && rep->first < lba; ++rep)
      emit(rep->first, rep->second);
    const Journal::DataCheckpointCopy* ck =
        journal_.find_data_checkpoint(lba, v);
    flash::Version content = ck != nullptr ? ck->content : v;
    if (rep != data_replayed.cend() && rep->first == lba)
      content = std::max(content, (rep++)->second);
    emit(lba, content);
  }
  for (; rep != data_replayed.cend(); ++rep) emit(rep->first, rep->second);
  report.data = flash::BlockImage(std::move(data));

  return report;
}

}  // namespace bio::fs
