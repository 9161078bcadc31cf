#include "workloads.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "api/ring.h"
#include "api/vfs.h"
#include "blk/block_layer.h"
#include "core/stack.h"
#include "flash/device.h"
#include "flash/profile.h"
#include "fs/recovery.h"
#include "sim/frame_pool.h"
#include "sim/rng.h"

namespace perfbench {

using namespace bio;

namespace {

// ---- shared sizes -----------------------------------------------------------
//
// Every workload runs on the plain-SSD profile: 8 channels, 512 MiB of
// flash (131072 pages), a 16 MiB (4096-entry) write-back cache. Before the
// run the FTL is aged with SegmentLog::prefill, so garbage collection is
// already cycling when the window opens instead of starting part-way
// through it.

/// Pages of the logical range the aging prefill scatters over (256 MiB).
constexpr flash::Lba kAgedSpan = 65536;
/// Share of physical flash the fs workloads' aging fills with cold pages.
constexpr double kFsAgedUtilization = 0.85;

// sqlite: a 16 MiB database and a 8 MiB rollback journal.
constexpr std::uint32_t kDbPages = 4096;
constexpr std::uint32_t kJournalPages = 2048;
constexpr std::uint32_t kUndoPagesPerTxn = 2;
constexpr std::uint32_t kDbPagesPerTxn = 2;

// varmail: 400 mails of 16 KiB (6.4 MiB), 16 clients, ring QD 8.
constexpr std::uint32_t kMailClients = 16;
constexpr std::uint32_t kMails = 400;
constexpr std::uint32_t kMailPages = 4;
/// Extent per mail: room for 12 one-page appends, so appends never run out
/// of space (the client picks a mail with room; see VarmailWorkload::pick).
constexpr std::uint32_t kMailExtent = 16;
constexpr std::uint32_t kMinLiveMails = 8;
constexpr std::uint32_t kRingQd = 8;

// mq-mixed: 4 software queues, 8 writers and 8 readers over 256 MiB.
constexpr std::uint32_t kMqQueues = 4;
constexpr std::uint32_t kMqWriters = 8;
constexpr std::uint32_t kMqReaders = 8;
constexpr flash::Lba kReadSpan = 65536;
constexpr flash::Lba kWriterRegion = kReadSpan / kMqWriters;
/// Each writer overwrites the first 4 MiB of its region: 32 MiB of hot data
/// (twice the device cache) over 224 MiB of cold, read-only data. Writers
/// spread over the whole range keep half the flash valid under random
/// overwrites, a load the FTL's garbage collection cannot sustain: its
/// relocations and foreground writes share the active segment, the
/// two-segment reserve drains, and allocate_slot fails its space check.
constexpr flash::Lba kWriterHotBlocks = 1024;
constexpr std::uint32_t kBarrierEvery = 32;
/// The read range is written once in setup, so aging only has to add the
/// stale pages that put the FTL into GC: 0.45 + 0.5 (the range) of flash.
constexpr double kMqAgedUtilization = 0.45;

void fill_blk_dev(Counters& c, blk::BlockLayer& b, flash::StorageDevice& d,
                  sim::Simulator& s) {
  c[kBlkSubmitted] = b.stats().submitted;
  c[kBlkBusyRetries] = b.stats().busy_retries;
  c[kBlkIoRetries] = b.stats().io_retries;
  for (std::uint32_t q = 0; q < b.nr_queues(); ++q) {
    const blk::IoScheduler::Stats& st = b.scheduler(q).stats();
    c[kSchedEnqueued] += st.enqueued;
    c[kSchedMerges] += st.merges;
    if (q < 4) c[kQueue0Dispatched + q] = st.dispatched;
  }
  const blk::RequestPool::Stats& pool = b.pool().stats();
  c[kPoolAcquired] = pool.acquired;
  c[kPoolHeapAllocs] =
      pool.fresh_requests + pool.ctrl_allocs + pool.block_heap_allocs;

  const flash::StorageDevice::Stats& ds = d.stats();
  c[kDevFlushes] = ds.flushes;
  c[kDevBarrierWrites] = ds.barrier_writes;
  c[kDevWrites] = ds.writes;
  c[kDevReads] = ds.reads;
  c[kDevBlocksWritten] = ds.blocks_written;
  c[kDevBusyRejections] = ds.busy_rejections;
  c[kDevCacheReadHits] = ds.cache_read_hits;
  c[kGcRuns] = d.log().gc_stats().runs;
  c[kGcPagesCopied] = d.log().gc_stats().pages_copied;
  for (std::uint32_t p = 0; p < d.port_count() && p < 8; ++p)
    c[kPort0Submissions + p] = d.port_submissions(p);

  c[kSimEvents] = s.events_dispatched();
  c[kAppContextSwitches] = s.total_context_switches("app");
  c[kFramePoolFresh] = sim::frame_pool_stats().fresh;
  c[kHeapAllocs] = heap_allocs();
}

Counters fs_counters(core::Stack& stack, const api::Vfs& vfs) {
  Counters c{};
  c[kVfsErrors] = vfs.stats().errors;
  fs::Filesystem& f = stack.fs();
  const fs::Journal::Stats& js = f.journal().stats();
  c[kJournalCommits] = js.commits;
  c[kJournalBlocks] = js.journal_blocks_written;
  c[kJournalStalls] = js.journal_stalls;
  c[kCheckpointFlushes] = js.checkpoint_flushes;
  const fs::Filesystem::Stats& st = f.stats();
  c[kSyncCalls] = st.fsyncs + st.fdatasyncs + st.fbarriers +
                  st.fdatabarriers + st.osyncs + st.dsyncs;
  c[kWritebackPages] = st.writeback_pages;
  c[kPageCachePages] = f.page_cache().total_pages();
  fill_blk_dev(c, stack.blk(), stack.device(), stack.sim());
  return c;
}

/// Runs fs::Recovery over the device's current durable image and checks
/// that it is clean and holds every name in `expected`.
std::string check_recovery(core::Stack& stack,
                           const std::vector<std::string>& expected,
                           std::string& detail) {
  const flash::StorageDevice::DurableImage image =
      stack.device().capture_durable_image();
  const fs::Recovery recovery(stack.fs().journal(), stack.fs().layout(),
                              stack.fs().config());
  const fs::RecoveryReport report = recovery.recover(image.blocks);
  if (!report.clean())
    return "recovery silently corrupted " +
           std::to_string(report.corrupted_blocks.size()) + " blocks";
  std::vector<std::string> present;
  present.reserve(report.files.size());
  for (const auto& f : report.files) present.push_back(f.name);
  std::sort(present.begin(), present.end());
  for (const std::string& name : expected)
    if (!std::binary_search(present.begin(), present.end(), name))
      return "durably synced file '" + name + "' missing after recovery";
  detail = "recovery clean (" + std::to_string(report.txns_replayed) +
           " txns replayed), " + std::to_string(expected.size()) + "/" +
           std::to_string(expected.size()) + " durably synced files present";
  return {};
}

// ---- timed api calls --------------------------------------------------------

sim::TaskOf<bool> timed_pwrite(Ledger& led, OpRef op, api::File f,
                               std::uint32_t page, std::uint32_t npages) {
  const CallTicket t = led.begin_call(Call::kPwrite, op);
  const api::Result<std::uint32_t> r = co_await f.pwrite(page, npages);
  led.end_call(t, r.ok());
  if (led.in_window(t.sim_start)) led.user_pages() += npages;
  co_return r.ok();
}

sim::TaskOf<bool> timed_sync(Ledger& led, OpRef op, api::File f, Call call) {
  const CallTicket t = led.begin_call(call, op);
  const bool durability = call == Call::kDurabilityPoint;
  api::Status s;
  if (durability)
    s = co_await f.durability_point();
  else
    s = co_await f.order_point();
  led.end_call(t, s.ok(), /*counted=*/false, durability);
  co_return s.ok();
}

// ---- sqlite-bfs-dr / sqlite-ext4-dr -----------------------------------------

/// One client running SQLite PERSIST-journal transactions (paper §5,
/// Fig 14): undo pages, order point, journal header, order point, database
/// pages, order point, journal header, durability point.
class SqliteWorkload final : public Workload {
 public:
  SqliteWorkload(core::StackKind kind, std::uint64_t seed)
      : kind_(kind), rng_(seed) {}

  void setup() override {
    stack_ = std::make_unique<core::Stack>(
        core::StackConfig::make(kind_, flash::DeviceProfile::plain_ssd()));
    sim::Rng aging = rng_.fork();
    stack_->device().log().prefill(
        kFsAgedUtilization, stack_->fs().layout().data_base() + kAgedSpan,
        aging);
    stack_->start();
    vfs_ = std::make_unique<api::Vfs>(*stack_);
    // iolint: detached-owner(run() below drains the task; the workload
    // owns vfs_ and the files)
    sim().spawn("setup", create_files());
    sim().run();
  }

  void spawn_clients(Ledger& led) override {
    // iolint: detached-owner(the driver drains the simulator before the
    // workload or the ledger go away)
    sim().spawn("app:sqlite", client(led, rng_.fork()));
  }

  Counters counters() override { return fs_counters(*stack_, *vfs_); }

  std::string gate(std::string& detail) override {
    // Every txn ended in a durability point and the files were fsynced at
    // creation, so both must survive a power cut at quiescence.
    return check_recovery(*stack_, {"app.db", "app.db-journal"}, detail);
  }

  sim::Simulator& sim() override { return stack_->sim(); }

 private:
  sim::Task create_files() {
    db_ = api::must(co_await vfs_->open(
        "app.db", {.create = true, .extent_blocks = kDbPages}));
    // Populate the database so txn updates are overwrites.
    for (std::uint32_t off = 0; off < kDbPages; off += blk::kMaxMergedBlocks) {
      api::must(co_await db_.pwrite(off, blk::kMaxMergedBlocks));
      api::must(co_await db_.fsync());
    }
    journal_ = api::must(co_await vfs_->open(
        "app.db-journal", {.create = true, .extent_blocks = kJournalPages}));
    api::must(co_await journal_.pwrite(0, 1));
    api::must(co_await journal_.fsync());
  }

  sim::Task client(Ledger& led, sim::Rng rng) {
    // The rollback journal is reset per txn: a cursor wrapping in its extent.
    std::uint32_t cursor = 1;
    while (led.issuing()) {
      led.count_issue();
      const SimTime start = sim().now();
      const OpRef op = led.begin_op("op.txn", 0);
      if (cursor + kUndoPagesPerTxn >= kJournalPages) cursor = 1;
      bool ok = co_await timed_pwrite(led, op, journal_, cursor,
                                      kUndoPagesPerTxn);
      cursor += kUndoPagesPerTxn;
      ok &= co_await timed_sync(led, op, journal_, Call::kOrderPoint);
      ok &= co_await timed_pwrite(led, op, journal_, 0, 1);
      ok &= co_await timed_sync(led, op, journal_, Call::kOrderPoint);
      for (std::uint32_t i = 0; i < kDbPagesPerTxn; ++i) {
        const auto page =
            static_cast<std::uint32_t>(rng.uniform(0, kDbPages - 1));
        ok &= co_await timed_pwrite(led, op, db_, page, 1);
      }
      ok &= co_await timed_sync(led, op, db_, Call::kOrderPoint);
      ok &= co_await timed_pwrite(led, op, journal_, 0, 1);
      ok &= co_await timed_sync(led, op, journal_, Call::kDurabilityPoint);
      led.op_sample(start, ok);
      led.end_op(op);
    }
  }

  core::StackKind kind_;
  sim::Rng rng_;
  std::unique_ptr<core::Stack> stack_;
  std::unique_ptr<api::Vfs> vfs_;
  api::File db_;
  api::File journal_;
};

// ---- varmail-bfs-od ---------------------------------------------------------

class MailClient;

struct Mail {
  std::string name;
  /// Pages written or reserved by an in-flight append.
  std::uint32_t pages = 0;
  /// Clients suspended in open() on this name; a pinned mail is never
  /// picked for deletion, so opens by name cannot race an unlink.
  std::uint32_t pins = 0;
};

/// filebench varmail (paper §6.5, Fig 15) on BFS-OD: 16 clients
/// delete / create+write+sync / append+sync / read mails. Namespace calls
/// are direct; fd ops go through one api::Ring per client at QD 8.
class VarmailWorkload final : public Workload {
 public:
  explicit VarmailWorkload(std::uint64_t seed) : rng_(seed) {}
  ~VarmailWorkload() override;

  void setup() override {
    stack_ = std::make_unique<core::Stack>(core::StackConfig::make(
        core::StackKind::kBfsOD, flash::DeviceProfile::plain_ssd()));
    sim::Rng aging = rng_.fork();
    stack_->device().log().prefill(
        kFsAgedUtilization, stack_->fs().layout().data_base() + kAgedSpan,
        aging);
    stack_->start();
    vfs_ = std::make_unique<api::Vfs>(*stack_);
    // iolint: detached-owner(run() below drains the task; the workload
    // owns vfs_ and the mail set)
    sim().spawn("setup", create_mails());
    sim().run();
  }

  void spawn_clients(Ledger& led) override;

  Counters counters() override { return fs_counters(*stack_, *vfs_); }

  std::string gate(std::string& detail) override;

  sim::Simulator& sim() override { return stack_->sim(); }

  api::Vfs& vfs() { return *vfs_; }

  /// A live mail satisfying `pred`, probing from a random start; nullptr
  /// when none does.
  template <typename Pred>
  Mail* pick(sim::Rng& rng, Pred pred) {
    const std::size_t n = live_.size();
    const auto start = static_cast<std::size_t>(rng.uniform(0, n - 1));
    for (std::size_t i = 0; i < n; ++i) {
      Mail* m = live_[(start + i) % n].get();
      if (pred(*m)) return m;
    }
    return nullptr;
  }

  /// Removes a mail from the live set (it must be unpinned); returns its name.
  std::string remove(Mail* m) {
    auto it = std::find_if(live_.begin(), live_.end(),
                           [m](const auto& p) { return p.get() == m; });
    std::string name = std::move(m->name);
    live_.erase(it);
    return name;
  }

  Mail* add(std::string name) {
    live_.push_back(
        std::make_unique<Mail>(Mail{std::move(name), kMailPages, 0}));
    return live_.back().get();
  }

  std::size_t live_count() const noexcept { return live_.size(); }
  std::string next_name() { return "mail" + std::to_string(next_name_++); }

 private:
  sim::Task create_mails() {
    for (std::uint32_t i = 0; i < kMails; ++i) {
      Mail* m = add(next_name());
      api::File f = api::must(co_await vfs_->open(
          m->name, {.create = true, .extent_blocks = kMailExtent}));
      api::must(co_await f.pwrite(0, kMailPages));
      // One fsync commits the running transaction: every create so far.
      if (i + 1 == kMails) api::must(co_await f.fsync());
      api::must(f.close());
    }
  }

  sim::Task fsync_one(std::string name) {
    api::File f = api::must(co_await vfs_->open(name));
    api::must(co_await vfs_->fsync(f.fd()));
    api::must(f.close());
  }

  sim::Rng rng_;
  std::unique_ptr<core::Stack> stack_;
  std::unique_ptr<api::Vfs> vfs_;
  std::vector<std::unique_ptr<Mail>> live_;
  std::uint64_t next_name_ = 0;
  std::vector<std::unique_ptr<MailClient>> clients_;
};

/// One varmail client: the four flow steps, with linked write -> sync
/// chains (and single reads) kept up to kRingQd deep in its own ring.
class MailClient {
 public:
  MailClient(VarmailWorkload& w, Ledger& led, std::uint32_t id, sim::Rng rng)
      : w_(w), led_(led), id_(id), rng_(std::move(rng)), ring_(w.vfs()),
        sync_op_(api::ring_op_for(
            w.vfs().default_policy().resolve(api::SyncIntent::kFullSync))),
        chains_(kRingQd) {
    for (std::uint32_t i = kRingQd; i > 0; --i) free_.push_back(i - 1);
    // Each ring sqe is a flowop; the hooks bracket it exactly where the
    // ring issues it to the Vfs and where its completion is queued.
    ring_.set_on_op_start([this](const api::Sqe& sqe) {
      Chain& c = chains_[sqe.user_data / 2];
      const std::size_t k = sqe.user_data % 2;
      c.ticket[k] = led_.begin_call(c.call[k], c.op);
      c.started[k] = true;
    });
    ring_.set_on_op_complete([this](const api::Sqe& sqe, std::int32_t res) {
      Chain& c = chains_[sqe.user_data / 2];
      const std::size_t k = sqe.user_data % 2;
      // Sqes cancelled or refused at submit never started: zero-length.
      if (!c.started[k]) c.ticket[k] = led_.begin_call(c.call[k], c.op);
      led_.end_call(c.ticket[k], res >= 0, /*counted=*/true,
                    c.call[k] == Call::kRingSync);
    });
  }

  MailClient(const MailClient&) = delete;
  MailClient& operator=(const MailClient&) = delete;

  sim::Task run() {
    while (led_.issuing()) {
      co_await delete_step();
      if (!led_.issuing()) break;
      co_await create_step();
      if (!led_.issuing()) break;
      co_await append_step();
      if (!led_.issuing()) break;
      co_await read_step();
    }
    const OpRef op = led_.begin_op("op.drain", id_);
    while (in_flight_ > 0) co_await reap_one(op);
    led_.end_op(op);
  }

 private:
  struct Chain {
    api::File file;
    OpRef op;
    std::uint32_t remaining = 0;
    std::array<Call, 2> call{};
    std::array<CallTicket, 2> ticket{};
    std::array<bool, 2> started{};
  };

  sim::Task delete_step() {
    if (w_.live_count() <= kMinLiveMails) co_return;
    Mail* victim = w_.pick(rng_, [](const Mail& m) { return m.pins == 0; });
    if (victim == nullptr) co_return;
    const std::string name = w_.remove(victim);
    led_.count_issue();
    const OpRef op = led_.begin_op("op.delete", id_);
    const CallTicket t = led_.begin_call(Call::kUnlink, op);
    const api::Status s = co_await w_.vfs().unlink(name);
    led_.end_call(t, s.ok(), /*counted=*/true);
    led_.end_op(op);
  }

  sim::Task create_step() {
    const OpRef op = led_.begin_op("op.create", id_);
    co_await wait_slot(op);
    std::string name = w_.next_name();
    const std::optional<api::File> f = co_await open(
        op, name,
        {.create = true, .exclusive = true, .extent_blocks = kMailExtent});
    if (f) {
      w_.add(std::move(name));
      issue_chain(op, *f, api::RingOp::kWrite, 0, kMailPages, true);
    }
    led_.end_op(op);
  }

  sim::Task append_step() {
    Mail* m =
        w_.pick(rng_, [](const Mail& x) { return x.pages < kMailExtent; });
    if (m == nullptr) co_return;
    // Reserve the page now: concurrent appends to one mail never collide.
    const std::uint32_t page = m->pages++;
    ++m->pins;
    const OpRef op = led_.begin_op("op.append", id_);
    co_await wait_slot(op);
    const std::optional<api::File> f = co_await open(op, m->name, {});
    --m->pins;
    if (f) issue_chain(op, *f, api::RingOp::kWrite, page, 1, true);
    led_.end_op(op);
  }

  sim::Task read_step() {
    Mail* m = w_.pick(rng_, [](const Mail&) { return true; });
    const std::uint32_t pages = m->pages;
    ++m->pins;
    const OpRef op = led_.begin_op("op.read", id_);
    co_await wait_slot(op);
    const std::optional<api::File> f = co_await open(op, m->name, {});
    --m->pins;
    if (f) issue_chain(op, *f, api::RingOp::kRead, 0, pages, false);
    led_.end_op(op);
  }

  sim::TaskOf<std::optional<api::File>> open(const OpRef& op,
                                              const std::string& name,
                                              api::OpenOptions opts) {
    led_.count_issue();
    const CallTicket t = led_.begin_call(Call::kOpen, op);
    api::Result<api::File> r = co_await w_.vfs().open(name, opts);
    led_.end_call(t, r.ok(), /*counted=*/true);
    if (!r.ok()) co_return std::nullopt;
    co_return r.value();
  }

  /// Queues `op_kind` (plus a linked full sync when `sync`) on a free
  /// chain slot and submits it. The chain owns `f` until its last cqe.
  void issue_chain(const OpRef& op, api::File f, api::RingOp op_kind,
                   std::uint32_t page, std::uint32_t npages, bool sync) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    Chain& c = chains_[slot];
    c.file = f;
    c.op = op;
    c.remaining = sync ? 2 : 1;
    c.call = {op_kind == api::RingOp::kRead ? Call::kRingRead
                                            : Call::kRingWrite,
              Call::kRingSync};
    c.started = {false, false};
    ++in_flight_;
    led_.count_issue();
    if (op_kind == api::RingOp::kWrite && led_.in_window(w_.sim().now()))
      led_.user_pages() += npages;
    bool pushed = ring_.push({.op = op_kind,
                              .fd = f.fd(),
                              .page = page,
                              .npages = npages,
                              .flags = sync ? api::kSqeLink : std::uint8_t{0},
                              .user_data = slot * 2ull});
    if (sync) {
      led_.count_issue();
      pushed &= ring_.push(
          {.op = sync_op_, .fd = f.fd(), .user_data = slot * 2ull + 1});
    }
    const CallTicket t = led_.begin_call(Call::kRingSubmit, op);
    const std::uint32_t n = ring_.submit();
    led_.end_call(t, pushed && n == c.remaining);
    if (led_.in_window(t.sim_start)) {
      ++led_.ring_submits();
      led_.ring_sqes() += n;
    }
  }

  sim::Task wait_slot(const OpRef& op) {
    while (in_flight_ >= kRingQd) co_await reap_one(op);
  }

  sim::Task reap_one(const OpRef& op) {
    const CallTicket t = led_.begin_call(Call::kRingWaitCqe, op);
    const api::Cqe cqe = co_await ring_.wait_cqe();
    led_.end_call(t, true);
    const auto slot = static_cast<std::uint32_t>(cqe.user_data / 2);
    Chain& c = chains_[slot];
    if (--c.remaining > 0) co_return;
    const CallTicket tc = led_.begin_call(Call::kClose, c.op);
    const api::Status s = c.file.close();
    led_.end_call(tc, s.ok());
    free_.push_back(slot);
    --in_flight_;
  }

  VarmailWorkload& w_;
  Ledger& led_;
  const std::uint32_t id_;
  sim::Rng rng_;
  api::Ring ring_;
  const api::RingOp sync_op_;
  std::vector<Chain> chains_;
  std::vector<std::uint32_t> free_;
  std::uint32_t in_flight_ = 0;
};

VarmailWorkload::~VarmailWorkload() = default;

void VarmailWorkload::spawn_clients(Ledger& led) {
  for (std::uint32_t i = 0; i < kMailClients; ++i) {
    clients_.push_back(
        std::make_unique<MailClient>(*this, led, i, rng_.fork()));
    // iolint: detached-owner(clients_ owns the client; the driver drains
    // the simulator before the workload goes away)
    sim().spawn("app:mail" + std::to_string(i), clients_.back()->run());
  }
}

std::string VarmailWorkload::gate(std::string& detail) {
  // BFS-OD never makes a mail durable on its own (its full sync is
  // fbarrier); one real fsync at quiescence must make the whole live
  // namespace survive a power cut.
  // iolint: detached-owner(run() below drains the task)
  sim().spawn("gate", fsync_one(live_.front()->name));
  sim().run();
  std::vector<std::string> names;
  for (const auto& m : live_) names.push_back(m->name);
  return check_recovery(*stack_, names, detail);
}

// ---- mq-mixed ---------------------------------------------------------------

/// blk-mq with no filesystem: 8 writers issue ordered writes (a barrier
/// every 32) into their own hot 4 MiB, 8 readers read random blocks of the
/// whole 256 MiB range, through 4 software queues of a barrier-capable
/// plain-SSD.
class MqMixedWorkload final : public Workload {
 public:
  explicit MqMixedWorkload(std::uint64_t seed)
      : sim_(sim::Simulator::Params{.wake_latency = 15'000}), rng_(seed),
        acked_(kReadSpan, 0) {}

  void setup() override {
    core::VolumeConfig v = core::VolumeConfig::make(
        core::StackKind::kBfsDR, flash::DeviceProfile::plain_ssd());
    v.blk.nr_queues = kMqQueues;
    dev_ = std::make_unique<flash::StorageDevice>(sim_, v.device);
    blk_ = std::make_unique<blk::BlockLayer>(sim_, *dev_, v.blk);
    sim::Rng aging = rng_.fork();
    dev_->log().prefill(kMqAgedUtilization, kReadSpan, aging);
    dev_->start();
    blk_->start();
    // Write the whole read range once, so every read is served by flash.
    for (std::uint32_t w = 0; w < kMqWriters; ++w)
      // iolint: detached-owner(run() below drains the task)
      sim_.spawn("setup", fill_region(w));
    sim_.run();
  }

  void spawn_clients(Ledger& led) override {
    // Writers first, then readers: queue routing is spawn ordinal % 4, so
    // each queue gets two writers and two readers.
    for (std::uint32_t w = 0; w < kMqWriters; ++w)
      // iolint: detached-owner(the driver drains the simulator first)
      sim_.spawn("app:writer", writer(led, w, rng_.fork()));
    for (std::uint32_t r = 0; r < kMqReaders; ++r)
      // iolint: detached-owner(the driver drains the simulator first)
      sim_.spawn("app:reader", reader(led, kMqWriters + r, rng_.fork()));
  }

  Counters counters() override {
    Counters c{};
    fill_blk_dev(c, *blk_, *dev_, sim_);
    return c;
  }

  std::string gate(std::string& detail) override {
    // iolint: detached-owner(run() below drains the task)
    sim_.spawn("gate", blk_->flush_and_wait());
    sim_.run();
    const auto durable = dev_->durable_state();
    std::uint64_t checked = 0;
    for (flash::Lba lba = 0; lba < kReadSpan; ++lba) {
      const flash::Version acked = acked_[lba];
      if (acked == 0) continue;
      ++checked;
      const auto it = durable.find(lba);
      if (it == durable.end() || it->second < acked)
        return "lba " + std::to_string(lba) + " lost acknowledged version " +
               std::to_string(acked);
    }
    detail = std::to_string(checked) +
             " acknowledged LBAs durable at their acked version or newer";
    return {};
  }

  sim::Simulator& sim() override { return sim_; }

 private:
  sim::Task fill_region(std::uint32_t w) {
    for (flash::Lba off = 0; off < kWriterRegion;
         off += blk::kMaxMergedBlocks) {
      std::vector<blk::Block> blocks;
      for (flash::Lba i = 0; i < blk::kMaxMergedBlocks; ++i)
        blocks.emplace_back(w * kWriterRegion + off + i, blk_->next_version());
      const std::vector<blk::Block> acked = blocks;
      co_await blk_->write_and_wait(std::move(blocks));
      for (const blk::Block& b : acked) acked_[b.first] = b.second;
    }
  }

  sim::Task writer(Ledger& led, std::uint32_t w, sim::Rng rng) {
    for (std::uint32_t i = 1; led.issuing(); ++i) {
      const flash::Lba lba =
          w * kWriterRegion + rng.uniform(0, kWriterHotBlocks - 1);
      const bool barrier = i % kBarrierEvery == 0;
      led.count_issue();
      const OpRef op = led.begin_op("op.write", w);
      const std::uint64_t failures = blk_->stats().io_failures;
      const CallTicket t =
          led.begin_call(barrier ? Call::kBlkBarrier : Call::kBlkWrite, op);
      const flash::Version v = blk_->next_version();
      std::vector<blk::Block> block;
      block.emplace_back(lba, v);
      co_await blk_->write_and_wait(std::move(block), /*ordered=*/true,
                                    barrier);
      const bool ok = blk_->stats().io_failures == failures;
      led.end_call(t, ok, /*counted=*/true, /*durability=*/barrier);
      if (led.in_window(t.sim_start)) ++led.user_pages();
      // One writer per region, one write in flight: acks arrive in order.
      if (ok) acked_[lba] = v;
      led.end_op(op);
    }
  }

  sim::Task reader(Ledger& led, std::uint32_t id, sim::Rng rng) {
    while (led.issuing()) {
      const flash::Lba lba = rng.uniform(0, kReadSpan - 1);
      led.count_issue();
      const OpRef op = led.begin_op("op.read", id);
      const std::uint64_t failures = blk_->stats().io_failures;
      const CallTicket t = led.begin_call(Call::kBlkRead, op);
      co_await blk_->read_and_wait(lba);
      led.end_call(t, blk_->stats().io_failures == failures, /*counted=*/true);
      led.end_op(op);
    }
  }

  sim::Simulator sim_;
  sim::Rng rng_;
  std::unique_ptr<flash::StorageDevice> dev_;
  std::unique_ptr<blk::BlockLayer> blk_;
  /// Highest acknowledged version per LBA of the read range (0 = none).
  std::vector<flash::Version> acked_;
};

}  // namespace

const std::vector<WorkloadSpec>& workload_specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"sqlite-bfs-dr", 3000, 20000},
      {"sqlite-ext4-dr", 2000, 12000},
      {"varmail-bfs-od", 20000, 60000},
      {"mq-mixed", 50000, 420000},
  };
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& s : workload_specs())
    if (name == s.name) return &s;
  return nullptr;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "sqlite-bfs-dr")
    return std::make_unique<SqliteWorkload>(core::StackKind::kBfsDR, seed);
  if (name == "sqlite-ext4-dr")
    return std::make_unique<SqliteWorkload>(core::StackKind::kExt4DR, seed);
  if (name == "varmail-bfs-od") return std::make_unique<VarmailWorkload>(seed);
  if (name == "mq-mixed") return std::make_unique<MqMixedWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
