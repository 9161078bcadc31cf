#include "chk/crash_check.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <type_traits>
#include <unordered_map>

#include "api/vfs.h"
#include "flash/fault.h"
#include "fs/recovery.h"
#include "sim/host_pool.h"
#include "sim/rng.h"

namespace bio::chk {
namespace {

using namespace bio::sim::literals;
using core::StackKind;
using flash::Lba;

core::StackConfig checker_config(StackKind kind, const SweepSpec& spec) {
  flash::DeviceProfile dev;
  dev.name = "chk";
  dev.geometry = flash::Geometry{.channels = 2,
                                 .ways_per_channel = 2,
                                 .blocks_per_chip = 64,
                                 .pages_per_block = 4};
  dev.nand = flash::NandTiming{.read_page = 50_us,
                               .program_page = 200_us,
                               .erase_block = 1'000_us,
                               .channel_xfer = 10_us};
  dev.queue_depth = 16;
  dev.cache_entries = 64;
  dev.cmd_overhead = 5_us;
  dev.dma_4k = 10_us;
  dev.flush_overhead = 20_us;
  dev.plp_flush_latency = 15_us;
  dev.read_hit_latency = 5_us;
  core::StackConfig cfg = core::StackConfig::make(kind, dev);
  if (spec.journal_blocks != 0) cfg.fs.journal_blocks = spec.journal_blocks;
  cfg.fs.max_inodes = 64;
  cfg.fs.default_extent_blocks =
      std::visit([](const auto& p) { return p.extent_blocks; }, spec.workload);
  cfg.fs.writeback_high_watermark = 1u << 20;  // pdflush off: explicit syncs
  cfg.blk.nr_queues = spec.nr_queues;
  return cfg;
}

std::unique_ptr<core::Stack> make_node(const SweepSpec& spec) {
  if (spec.volumes.size() == 1)
    return std::make_unique<core::Stack>(
        checker_config(spec.volumes.front(), spec));
  std::vector<core::StackConfig> bases;
  for (StackKind kind : spec.volumes)
    bases.push_back(checker_config(kind, spec));
  return std::make_unique<core::Stack>(core::NodeConfig::from(bases));
}

/// Volume `i`'s mount prefix: the root mount on a single-volume spec.
std::string prefix_of(const SweepSpec& spec, std::size_t i) {
  return spec.volumes.size() == 1 ? std::string()
                                  : "/v" + std::to_string(i) + "/";
}

void spawn_workload(const SweepSpec& spec, core::Volume& vol, api::Vfs& vfs,
                    std::string prefix, std::uint64_t seed,
                    wl::ConcurrentTrace& trace) {
  std::visit(
      [&](auto params) {
        params.seed = seed;
        using P = decltype(params);
        if constexpr (std::is_same_v<P, wl::SingleWriterParams>)
          wl::spawn_single_writer(vol, vfs, std::move(prefix), params, trace);
        else if constexpr (std::is_same_v<P, wl::ConcurrentWritersParams>)
          wl::spawn_concurrent_writers(vol, vfs, std::move(prefix), params,
                                       trace);
        else
          wl::spawn_ring_writers(vol, vfs, std::move(prefix), params, trace);
      },
      spec.workload);
}

/// "EXT4-DR", or "BFS-DR+EXT4-DR" for a node.
std::string kinds_tag(const std::vector<StackKind>& kinds) {
  std::string out;
  for (StackKind k : kinds) {
    if (!out.empty()) out += '+';
    out += core::to_string(k);
  }
  return out;
}

// Syscall-semantics classification per stack kind — the *claimed* contract
// (EXT4-OD claims the same acks as EXT4-DR and is expected to break them).

/// Every sync syscall is an order point on its file.
bool call_orders(api::Syscall c) { return c != api::Syscall::kNone; }

/// Data covered by the call is on media when it returns.
bool call_acks_data(StackKind kind, api::Syscall c) {
  if (kind == StackKind::kOptFs) return c == api::Syscall::kDsync;
  return c == api::Syscall::kFsync || c == api::Syscall::kFdatasync;
}

/// i_size as of the call's start is durable when it returns (fdatasync
/// journals size changes — the metadata needed to retrieve the data).
bool call_acks_size(StackKind kind, api::Syscall c) {
  if (kind == StackKind::kOptFs) return false;  // metadata stays delayed
  return c == api::Syscall::kFsync || c == api::Syscall::kFdatasync;
}

/// Namespace ops (rename/unlink) completed before the call are durable
/// when it returns.
bool call_acks_name(StackKind kind, api::Syscall c) {
  if (kind == StackKind::kOptFs) return false;
  return c == api::Syscall::kFsync;
}

/// The call commits the inode's metadata transaction whenever it is dirty;
/// quiescence then makes that commit durable on every stack — the gate for
/// delayed namespace/size facts on the ordering-only stacks.
bool call_commits_meta(api::Syscall c) {
  return c == api::Syscall::kFsync || c == api::Syscall::kFbarrier ||
         c == api::Syscall::kOsync || c == api::Syscall::kDsync;
}

std::string describe(const wl::TraceWrite& w) {
  std::ostringstream os;
  os << "lba=" << w.lba << " v=" << w.version << " page=" << w.page
     << " writer=" << w.writer << " [" << w.start_tick << "," << w.done_tick
     << "]";
  return os.str();
}

/// BIO_CHK_DEBUG=1 diagnostic dump for a failed write check: where the
/// block's versions actually ended up (image, FTL mapping, the retained
/// transfer window, log prefix). This is how the checker's findings get
/// root-caused down the stack.
void debug_dump_write(const char* what, const wl::TraceWrite& w,
                      const flash::StorageDevice::DurableImage& image,
                      core::Volume& vol) {
  if (std::getenv("BIO_CHK_DEBUG") == nullptr) return;
  auto img = image.blocks.find(w.lba);
  const auto mapped = vol.device().log().mapped_version(w.lba);
  std::fprintf(stderr, "DBG %s lba=%llu v=%llu image=%lld mapped=%lld\n",
               what, (unsigned long long)w.lba, (unsigned long long)w.version,
               img == image.blocks.end() ? -1 : (long long)img->second,
               mapped.has_value() ? (long long)*mapped : -1);
  // The device keeps only its last transfers; say when older ones are gone.
  const auto history = vol.device().transfer_history();
  const std::uint64_t dropped = history.empty() ? 0 : history.front().order;
  std::fprintf(stderr, "  xfer window: %zu transfers, %llu older dropped\n",
               history.size(), (unsigned long long)dropped);
  for (const auto& e : history)
    if (e.lba == w.lba)
      std::fprintf(stderr, "  xfer v=%llu epoch=%llu order=%llu\n",
                   (unsigned long long)e.version, (unsigned long long)e.epoch,
                   (unsigned long long)e.order);
  std::fprintf(stderr, "  log prefix=%llu appends=%llu cache_dirty=%zu\n",
               (unsigned long long)vol.device().log().programmed_prefix(),
               (unsigned long long)vol.device().log().append_count(),
               vol.device().cache().dirty_count());
}

/// Captures the durable image, recovers it from the volume's own journal
/// and fills the recovery facts of `res`.
struct Recovered {
  flash::StorageDevice::DurableImage image;
  fs::RecoveryReport report;
};

Recovered recover_volume(CrashCheckResult& res, core::Volume& vol) {
  res.journal_wraps = vol.fs().journal().stats().journal_wraps;
  res.journal_stalls = vol.fs().journal().stats().journal_stalls;
  res.checkpoint_flushes = vol.fs().journal().stats().checkpoint_flushes;
  Recovered r;
  r.image = vol.device().capture_durable_image();
  const fs::Recovery recovery(vol.fs().journal(), vol.fs().layout(),
                              vol.fs().config());
  r.report = recovery.recover(r.image.blocks);
  res.files_recovered = r.report.files.size();
  res.txns_replayed = r.report.txns_replayed;
  res.txns_discarded = r.report.txns_discarded;
  res.tail_truncated = r.report.tail_truncated;
  res.recovery_clean = r.report.clean();
  if (!r.report.clean())
    res.violations.push_back(
        "recovery silently corrupted " +
        std::to_string(r.report.corrupted_blocks.size()) +
        " home block(s) (stale log replay under a surviving commit)");
  return r;
}

/// Global recovered-namespace consistency — no duplicate or fabricated
/// names, extents inside the volume's data region, each recovered file over
/// an extent some workload file owns and under a name that extent actually
/// carried. Returns the recovered files indexed by extent base (the stable
/// file identity: every workload keeps an anchor descriptor open all run,
/// so no extent ever recycles).
std::unordered_map<Lba, const fs::RecoveryReport::RecoveredFile*>
check_recovered_namespace(CrashCheckResult& res, core::Volume& vol,
                          const fs::RecoveryReport& report,
                          const std::vector<wl::FileTrace>& files) {
  auto violation = [&res](const std::string& what) {
    res.violations.push_back(what);
  };
  std::unordered_map<Lba, const fs::RecoveryReport::RecoveredFile*>
      by_extent;
  std::map<std::string, int> name_count;
  const Lba data_base = vol.fs().layout().data_base();
  const Lba data_end = vol.device().profile().geometry.physical_pages();
  for (const fs::RecoveryReport::RecoveredFile& rf : report.files) {
    ++res.namespace_facts_checked;
    if (++name_count[rf.name] > 1)
      violation("namespace: name " + rf.name + " recovered twice");
    // Every volume has its own LBA space starting at 0, so a *foreign*
    // volume's extent can be numerically in range — cross-volume leakage
    // is caught by the per-volume oracle (ownership + name history + data
    // versions), not by this range check, which catches extents corrupted
    // into the journal/inode region or past the device.
    if (rf.extent_base < data_base ||
        rf.extent_base + rf.extent_blocks > data_end)
      violation("namespace: " + rf.name +
                " recovered with an extent outside this volume's data "
                "region");
    if (const auto [pos, inserted] = by_extent.emplace(rf.extent_base, &rf);
        !inserted)
      violation("namespace: extent of " + rf.name +
                " also recovered as " + pos->second->name +
                " — one file under two names");
    const wl::FileTrace* owner = nullptr;
    for (const wl::FileTrace& f : files)
      if (f.inode != nullptr && f.inode->extent_base == rf.extent_base) {
        owner = &f;
        break;
      }
    if (owner == nullptr) {
      violation("namespace: recovered file " + rf.name +
                " maps to no extent the workload created");
      continue;
    }
    if (std::find(owner->rel_names.begin(), owner->rel_names.end(),
                  rf.name) == owner->rel_names.end())
      violation("namespace: " + rf.name +
                " recovered over an extent that never carried that name");
  }
  return by_extent;
}

/// The oracle: verifies one volume's recovered image against its trace
/// (DESIGN.md §6.7 maps every fact to the clauses below). Fills `res` and
/// returns the report for the remount phase.
fs::RecoveryReport verify_trace(CrashCheckResult& res, core::Volume& vol,
                                const wl::ConcurrentTrace& trace,
                                bool faults) {
  const StackKind kind = vol.kind();
  res.workload_finished = trace.finished();
  res.volume_degraded = vol.fs().degraded();
  // Under faults quiescence also requires a live journal and a clean page
  // cache: an aborted journal never durably commits the writes its failed
  // transaction covered, and a hard-faulted writeback redirties its page —
  // fs-level dirt the workload may never have resubmitted.
  res.quiesced = trace.finished() &&
                 vol.device().cache().dirty_count() == 0 &&
                 vol.device().queue_depth() == 0 &&
                 (!faults || (!res.volume_degraded &&
                              vol.fs().page_cache().dirty_count() == 0));
  res.renames_done = trace.renames;
  res.unlinks_done = trace.unlinks;
  res.fd_cycles = trace.fd_cycles;
  res.closes_during_sync = trace.closes_during_sync;
  res.syncs_failed = trace.syncs_failed;

  Recovered rec = recover_volume(res, vol);
  fs::RecoveryReport& report = rec.report;

  auto violation = [&res](const std::string& what) {
    res.violations.push_back(what);
  };
  auto present = [&report](const wl::TraceWrite& w) {
    auto it = report.data.find(w.lba);
    return it != report.data.end() && it->second >= w.version;
  };
  auto dump = [&](const char* what, const wl::TraceWrite& w) {
    debug_dump_write(what, w, rec.image, vol);
  };

  if (!faults && (trace.syncs_failed > 0 || res.volume_degraded))
    violation("a sync failed or the volume degraded on a fault-free run");

  const std::unordered_map<Lba, const fs::RecoveryReport::RecoveredFile*>
      by_extent = check_recovered_namespace(res, vol, report, trace.files);

  constexpr std::uint64_t kNever = ~std::uint64_t{0};
  for (const wl::FileTrace& f : trace.files) {
    res.syncs_recorded += f.syncs.size();
    const fs::RecoveryReport::RecoveredFile* rf = nullptr;
    if (f.inode != nullptr) {
      auto it = by_extent.find(f.inode->extent_base);
      if (it != by_extent.end()) rf = it->second;
    }

    // Aggregate the returned syncs' promises. Only strictly-ordered pairs
    // count: a sync covers writes that *completed* before it *started*, and
    // constrains writes that *started* after it *returned* — operations
    // racing the sync on either side are promised nothing.
    std::uint64_t max_ack_start = 0;
    std::uint32_t size_floor = 0;
    std::size_t name_idx_floor = 0;
    bool any_exist_fact = false;
    bool unlink_committed = false;
    for (const wl::TraceSync& s : f.syncs) {
      if (call_acks_data(kind, s.call))
        max_ack_start = std::max(max_ack_start, s.start_tick);
      if (call_acks_size(kind, s.call) ||
          (res.quiesced && call_orders(s.call)))
        size_floor = std::max(size_floor, s.settled_size_at_start);
      if (call_acks_name(kind, s.call) ||
          (res.quiesced && call_commits_meta(s.call))) {
        name_idx_floor = std::max(name_idx_floor, s.name_idx_at_start);
        if (s.unlinked_at_start)
          unlink_committed = true;
        else
          any_exist_fact = true;
      }
    }

    // 1. Acked durability across writers and fds: a write (any writer)
    //    that completed before a durable-ack sync (any fd of the file)
    //    started must have survived — faults or not.
    for (const wl::TraceWrite& w : f.writes) {
      if (w.done_tick < max_ack_start) {
        ++res.acked_pages_checked;
        if (!present(w)) {
          violation(f.rel_name() + " write (" + describe(w) +
                    ") was acked durable but did not survive");
          dump("acked", w);
          if (std::getenv("BIO_CHK_DEBUG") != nullptr)
            for (const wl::TraceSync& s : f.syncs)
              std::fprintf(stderr,
                           "  sync call=%d writer=%u [%llu,%llu] acks=%d\n",
                           int(s.call), s.writer,
                           (unsigned long long)s.start_tick,
                           (unsigned long long)s.done_tick,
                           int(call_acks_data(kind, s.call)));
        }
      }
    }

    // 2. Epoch prefix (off under faults: a bounded retry legally re-lands
    //    a transiently failed write after later writes): if any write that
    //    started after a returned order point survives, every write that
    //    completed before that order point started must have survived.
    //    ready_at(w) is the earliest return among order points that
    //    started after w completed; a surviving write with a later start
    //    proves w.
    // 3. Delayed durability: once the device quiesced, every write some
    //    returned sync covered must be on media.
    std::uint64_t max_surviving_start = 0;
    for (const wl::TraceWrite& w : f.writes)
      if (present(w))
        max_surviving_start = std::max(max_surviving_start, w.start_tick);
    for (const wl::TraceWrite& w : f.writes) {
      if (!faults) ++res.order_writes_checked;
      std::uint64_t ready_at = kNever;
      for (const wl::TraceSync& s : f.syncs)
        if (call_orders(s.call) && s.start_tick > w.done_tick)
          ready_at = std::min(ready_at, s.done_tick);
      if (present(w)) continue;
      if (!faults && ready_at < max_surviving_start) {
        violation(f.rel_name() + " write (" + describe(w) +
                  ") lost although a later write survived past the order "
                  "point covering it — ordering broken");
        dump("order", w);
      } else if (res.quiesced && ready_at != kNever) {
        violation(f.rel_name() + " write (" + describe(w) +
                  ") not durable after quiescence");
        dump("quiesce", w);
      }
    }

    // 4. Existence + size floor: a never-unlinked file with a durable
    //    full-sync fact must exist, with at least the size the syncs
    //    settled.
    if (!f.unlinked && any_exist_fact) {
      ++res.namespace_facts_checked;
      if (rf == nullptr)
        violation(f.rel_name() +
                  " was durably synced but does not exist after recovery");
    }
    if (rf != nullptr && size_floor > 0) {
      ++res.namespace_facts_checked;
      if (rf->size_blocks < size_floor)
        violation(f.rel_name() + " recovered with size " +
                  std::to_string(rf->size_blocks) + " < synced size " +
                  std::to_string(size_floor));
    }

    // 5. Rename durability: once a sync committed the rename history up
    //    to name_idx_floor, only that or a newer name may recover (a later
    //    rename may have ridden a group commit).
    if (name_idx_floor > 0 && rf != nullptr) {
      ++res.namespace_facts_checked;
      const auto it =
          std::find(f.rel_names.begin(), f.rel_names.end(), rf->name);
      if (it != f.rel_names.end() &&
          static_cast<std::size_t>(it - f.rel_names.begin()) <
              name_idx_floor)
        violation("namespace: " + rf->name +
                  " recovered although the rename to " +
                  f.rel_names[name_idx_floor] + " was durably synced");
    }

    // 6. Unlink durability: a sync that returned after the unlink
    //    completed committed the removal.
    if (unlink_committed) {
      ++res.namespace_facts_checked;
      if (rf != nullptr)
        violation("namespace: " + rf->name +
                  " recovered although its unlink was durably synced");
    }

    // 7. Linked-chain contract (api::Ring workloads; the vectors are empty
    //    on direct-Vfs traces). chain_covered/chain_successors come from
    //    the chain's SUBMISSION structure, not observed timing, so a ring
    //    that ignores its link flags still produces these claims — and the
    //    reordering it allowed shows up as violations here even when the
    //    tick-based rules above (which adapt to actual behaviour) say
    //    nothing.
    for (const wl::TraceSync& s : f.syncs) {
      if (s.chain_covered.empty()) continue;
      const bool acks = call_acks_data(kind, s.call);
      bool successor_present = false;
      for (const std::size_t si : s.chain_successors)
        if (present(f.writes[si])) successor_present = true;
      for (const std::size_t ci : s.chain_covered) {
        const wl::TraceWrite& w = f.writes[ci];
        ++res.chain_facts_checked;
        if (present(w)) continue;
        if (acks) {
          // (a) The chain's sync returned, so every write linked before
          //     it was acked durable.
          violation(f.rel_name() + " chain write (" + describe(w) +
                    ") linked before a returned " +
                    "durable sync did not survive");
          dump("chain-acked", w);
        } else if (successor_present) {
          // (b) A write linked after the sync reached media, so the link
          //     order says every write linked before it must have too.
          violation(f.rel_name() + " chain write (" + describe(w) +
                    ") lost although a write linked after its chain's "
                    "sync survived — linked-chain ordering broken");
          dump("chain-order", w);
        } else if (res.quiesced && call_orders(s.call)) {
          // (c) Delayed durability: the chain's returned sync covered it.
          violation(f.rel_name() + " chain write (" + describe(w) +
                    ") not durable after quiescence");
          dump("chain-quiesce", w);
        }
      }
    }
  }
  return report;
}

/// Remount-phase verification: the recovered image must yield a fully
/// usable volume behind the fresh node's Vfs.
sim::Task remount_verify(api::Vfs& vfs, std::string prefix,
                         const fs::RecoveryReport& report,
                         std::string& err) {
  for (const auto& rf : report.files) {
    api::Result<api::File> r = co_await vfs.open(prefix + rf.name, {});
    if (!r.ok()) {
      err = "open(" + prefix + rf.name + ") failed on remount";
      co_return;
    }
    api::File h = r.value();
    if (h.size_blocks().value() != rf.size_blocks) {
      err = prefix + rf.name + " remounted with wrong size";
      co_return;
    }
    must(h.close());
  }
  // The recovered filesystem must be fully usable: write + full sync.
  api::OpenOptions oo;
  oo.create = true;
  api::Result<api::File> r = co_await vfs.open(prefix + "post-crash", oo);
  if (!r.ok()) {
    err = "create failed on remounted stack";
    co_return;
  }
  api::File h = r.value();
  api::Result<std::uint32_t> w = co_await h.pwrite(0, 2);
  api::Status s = co_await h.sync_file();
  if (!w.ok() || !s.ok()) err = "write+sync failed on remounted stack";
  must(h.close());
}

/// Sweep crash-instant stream: mostly mid-workload cuts, with a slice of
/// late cuts exercising the quiesced (delayed-durability) contract.
class CrashPointGen {
 public:
  explicit CrashPointGen(std::uint64_t base_seed)
      : rng_(base_seed * 7919 + 17) {}

  sim::SimTime next() {
    return rng_.chance(0.2) ? rng_.uniform(60'000, 300'000) * 1_us
                            : rng_.uniform(100, 60'000) * 1_us;
  }

 private:
  sim::Rng rng_;
};

/// Records a failed point in both human-readable and machine-replayable
/// form; the sample line ends with the exact flag that replays the case.
void note_failure(CrashSweepResult& sweep, const SweepSpec& spec, int point,
                  std::uint64_t base_seed, const CrashCheckResult& r) {
  if (sweep.failures.size() < 32)
    sweep.failures.push_back(
        {point, r.seed, r.crash_at, r.violations.front()});
  if (sweep.sample_violations.size() < 8) {
    std::ostringstream os;
    os << kinds_tag(spec.volumes) << " seed=" << r.seed
       << " crash=" << r.crash_at << "ns point=" << point << ": "
       << r.violations.front();
    const std::string repro = format_repro(spec, base_seed, point);
    if (!repro.empty()) os << " (replay: --repro " << repro << ")";
    sweep.sample_violations.push_back(os.str());
  }
}

// ---- --repro grammar helpers ------------------------------------------------

/// Strict decimal: the whole field must be digits (no sign, no trailing
/// junk, not empty). A silent atoi-style zero would replay a different
/// case than the one that failed.
bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty() || s.size() > 19) return false;
  out = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    out = out * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

bool parse_kind(std::string_view name, StackKind& out) {
  for (StackKind k : {StackKind::kExt4DR, StackKind::kExt4OD,
                      StackKind::kBfsDR, StackKind::kBfsOD,
                      StackKind::kOptFs}) {
    if (name == core::to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> parts;
  for (std::size_t pos = 0;;) {
    const std::size_t next = s.find(sep, pos);
    parts.push_back(s.substr(pos, next - pos));
    if (next == std::string_view::npos) return parts;
    pos = next + 1;
  }
}

}  // namespace

CheckCounters& CheckCounters::operator+=(const CheckCounters& o) {
  files_recovered += o.files_recovered;
  txns_replayed += o.txns_replayed;
  txns_discarded += o.txns_discarded;
  journal_wraps += o.journal_wraps;
  journal_stalls += o.journal_stalls;
  checkpoint_flushes += o.checkpoint_flushes;
  acked_pages_checked += o.acked_pages_checked;
  order_writes_checked += o.order_writes_checked;
  namespace_facts_checked += o.namespace_facts_checked;
  chain_facts_checked += o.chain_facts_checked;
  syncs_recorded += o.syncs_recorded;
  renames_done += o.renames_done;
  unlinks_done += o.unlinks_done;
  fd_cycles += o.fd_cycles;
  closes_during_sync += o.closes_during_sync;
  faults_injected += o.faults_injected;
  io_retries += o.io_retries;
  io_failures += o.io_failures;
  syncs_failed += o.syncs_failed;
  return *this;
}

CrashCheckResult run_check(const SweepSpec& spec, std::uint64_t seed,
                           sim::SimTime crash_at) {
  BIO_CHECK_MSG(!spec.volumes.empty(), "crash check with zero volumes");
  BIO_CHECK_MSG(!spec.faults ||
                    std::holds_alternative<wl::SingleWriterParams>(
                        spec.workload),
                "only the single-writer workload tolerates device faults");
  const std::size_t n = spec.volumes.size();
  // A node's volumes run distinct streams derived from the point seed.
  auto seed_of = [&](std::size_t i) {
    return n == 1 ? seed : seed ^ (0x9e3779b97f4a7c15ULL * (i + 1));
  };

  // Plans and traces outlive the node: devices hold raw plan pointers, and
  // suspended workload frames destroyed at simulator teardown may still
  // name their trace. Plans install before start(), so the op ordinals
  // they match are deterministic for a given (spec, seed).
  std::vector<flash::FaultPlan> plans;
  plans.reserve(n);
  std::vector<wl::ConcurrentTrace> traces(n);
  auto node = make_node(spec);
  if (spec.faults) {
    for (std::size_t i = 0; i < n; ++i) {
      plans.push_back(flash::FaultPlan::random(
          seed_of(i), spec.faults->expected_write_ops,
          spec.faults->max_faults));
      node->volume(i).device().install_fault_plan(&plans.back());
      if (spec.faults->swallow_io_errors)
        node->volume(i).blk().set_swallow_io_errors_for_test(true);
    }
  }
  node->start();
  api::Vfs vfs(*node);
  for (std::size_t i = 0; i < n; ++i)
    spawn_workload(spec, node->volume(i), vfs, prefix_of(spec, i),
                   seed_of(i), traces[i]);
  node->sim().run_until(crash_at);  // one power cut hits every volume

  CrashCheckResult res;
  res.seed = seed;
  res.crash_at = crash_at;
  res.volumes.resize(n);
  std::vector<fs::RecoveryReport> reports;
  reports.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    CrashCheckResult& v = res.volumes[i];
    core::Volume& vol = node->volume(i);
    v.seed = seed;
    v.crash_at = crash_at;
    if (spec.faults) v.faults_injected = plans[i].stats().total();
    v.io_retries = vol.blk().stats().io_retries;
    v.io_failures = vol.blk().stats().io_failures;
    reports.push_back(
        verify_trace(v, vol, traces[i], spec.faults.has_value()));
  }

  // ---- remount a fresh, fault-free node over the recovered images --------
  // Under faults this is the errors=remount-ro repair path: even a volume
  // the journal abort degraded must recover read-consistent from its last
  // durable commit and come back fully usable.
  auto node2 = make_node(spec);
  for (std::size_t i = 0; i < n; ++i)
    node2->volume(i).fs().mount(reports[i]);
  node2->start();
  api::Vfs vfs2(*node2);
  std::vector<std::string> errs(n);
  for (std::size_t i = 0; i < n; ++i)
    // iolint: detached-owner(run() below drains every verifier before
    // vfs2/reports/errs leave scope)
    node2->sim().spawn(
        "chk:verify",
        remount_verify(vfs2, prefix_of(spec, i), reports[i], errs[i]));
  node2->sim().run();

  res.workload_finished = true;
  res.quiesced = true;
  for (std::size_t i = 0; i < n; ++i) {
    CrashCheckResult& v = res.volumes[i];
    if (!errs[i].empty()) v.violations.push_back("remount: " + errs[i]);
    res += v;
    res.workload_finished = res.workload_finished && v.workload_finished;
    res.quiesced = res.quiesced && v.quiesced;
    res.tail_truncated = res.tail_truncated || v.tail_truncated;
    res.recovery_clean = res.recovery_clean && v.recovery_clean;
    res.volume_degraded = res.volume_degraded || v.volume_degraded;
    const std::string tag =
        n == 1 ? std::string()
               : std::string(core::to_string(spec.volumes[i])) + "@v" +
                     std::to_string(i) + ": ";
    for (const std::string& s : v.violations)
      res.violations.push_back(tag + s);
  }
  return res;
}

void CrashSweepResult::accumulate(const CrashCheckResult& r) {
  *this += r;
  ++points;
  if (!r.ok()) ++failed_points;
  if (r.quiesced) ++quiesced_points;
  if (r.volume_degraded) ++degraded_points;
  if (volumes.size() < r.volumes.size()) volumes.resize(r.volumes.size());
  for (std::size_t v = 0; v < r.volumes.size(); ++v)
    volumes[v].accumulate(r.volumes[v]);
}

sim::SimTime sweep_crash_at(std::uint64_t base_seed, int point) {
  CrashPointGen gen(base_seed);
  sim::SimTime t = 0;
  for (int i = 0; i <= point; ++i) t = gen.next();
  return t;
}

CrashSweepResult run_sweep(const SweepSpec& spec, int points,
                           std::uint64_t base_seed, int jobs) {
  CrashSweepResult sweep;
  if (points <= 0) return sweep;
  // One serial pass precomputes every crash instant; the points then run
  // in parallel and fold in canonical order, so accumulate() and
  // note_failure() see the identical sequence at any jobs value.
  CrashPointGen gen(base_seed);
  std::vector<sim::SimTime> crash_at(static_cast<std::size_t>(points));
  for (sim::SimTime& t : crash_at) t = gen.next();

  std::vector<CrashCheckResult> results(static_cast<std::size_t>(points));
  const sim::HostPool pool(jobs);
  // iolint: detached-owner(for_each_index joins its workers before
  // returning; the capture cannot outlive this frame)
  pool.for_each_index(points, [&](int i) {
    const auto idx = static_cast<std::size_t>(i);
    results[idx] = run_check(spec, base_seed + static_cast<std::uint64_t>(i),
                             crash_at[idx]);
  });

  for (int i = 0; i < points; ++i) {
    const CrashCheckResult& res = results[static_cast<std::size_t>(i)];
    sweep.accumulate(res);
    if (!res.ok()) note_failure(sweep, spec, i, base_seed, res);
  }
  return sweep;
}

// ---- --repro lines ----------------------------------------------------------

std::optional<Repro> parse_repro(std::string_view text) {
  const std::vector<std::string_view> parts = split(text, ':');
  if (parts.size() < 3 || parts.size() > 5) return std::nullopt;
  Repro r;
  std::size_t idx = 1;  // past the form tag
  if (parts[0] == "node") {
    // An optional '+'-joined stack list (never starts with 'q'); the bare
    // form is the historical BFS-DR+EXT4-DR pair.
    r.spec.volumes = {StackKind::kBfsDR, StackKind::kExt4DR};
    if (parts.size() - idx > 2 && !parts[idx].starts_with('q')) {
      r.spec.volumes.clear();
      for (std::string_view name : split(parts[idx], '+')) {
        StackKind kind{};
        if (!parse_kind(name, kind)) return std::nullopt;
        r.spec.volumes.push_back(kind);
      }
      if (r.spec.volumes.size() < 2) return std::nullopt;
      ++idx;
    }
  } else {
    if (parts[0] == "conc")
      r.spec.workload = wl::ConcurrentWritersParams{};
    else if (parts[0] == "ring")
      r.spec.workload = wl::RingWorkloadParams{};
    else if (parts[0] == "fault")
      r.spec.faults = FaultSpec{};
    else
      idx = 0;  // plain form: the stack name leads
    StackKind kind{};
    if (!parse_kind(parts[idx], kind)) return std::nullopt;
    r.spec.volumes = {kind};
    ++idx;
  }
  if (parts.size() - idx == 3) {
    // q<N>: the block layer's queue count, N in [1, 64].
    std::uint64_t q = 0;
    const std::string_view seg = parts[idx];
    if (!seg.starts_with('q') || !parse_u64(seg.substr(1), q) || q < 1 ||
        q > 64)
      return std::nullopt;
    r.spec.nr_queues = static_cast<std::uint32_t>(q);
    ++idx;
  }
  std::uint64_t point = 0;
  if (parts.size() - idx != 2 || !parse_u64(parts[idx], r.base_seed) ||
      !parse_u64(parts[idx + 1], point) || point > kMaxReproPoint)
    return std::nullopt;
  r.point = static_cast<int>(point);
  return r;
}

std::string format_repro(const SweepSpec& spec, std::uint64_t base_seed,
                         int point) {
  const bool single =
      std::holds_alternative<wl::SingleWriterParams>(spec.workload);
  std::string out;
  if (spec.volumes.size() > 1) {
    if (!single || spec.faults) return {};
    out = "node:";
  } else if (spec.faults) {
    if (!single) return {};
    out = "fault:";
  } else if (std::holds_alternative<wl::ConcurrentWritersParams>(
                 spec.workload)) {
    out = "conc:";
  } else if (std::holds_alternative<wl::RingWorkloadParams>(spec.workload)) {
    out = "ring:";
  }
  if (spec.volumes.empty()) return {};
  out += kinds_tag(spec.volumes);
  if (spec.nr_queues != 1) out += ":q" + std::to_string(spec.nr_queues);
  return out + ":" + std::to_string(base_seed) + ":" + std::to_string(point);
}

}  // namespace bio::chk
