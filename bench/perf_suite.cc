// Self-timing perf harness: wall-clock cost of the *simulator itself* (not
// simulated latencies) across the five StackKinds plus request-churn and
// page-cache-churn scenarios. Writes BENCH_perf.json so every PR leaves a
// perf trajectory behind, and prints a before/after-comparable table.
//
// Metrics per scenario:
//   * ns/io, ns/op       — wall nanoseconds per simulated device IO / op
//   * events/sec         — simulator event-loop dispatch rate
//   * requests/sec       — block-layer request throughput (wall clock)
//   * allocs/req (pool)  — heap allocations per request, from RequestPool
//                          stats (slab misses + control-block allocs +
//                          BlockList spills); the legacy unpooled path paid
//                          >= 3 per request unconditionally
//   * allocs/op (global) — every operator-new call in the process, frames
//                          and all, from the override below
//
// Usage: perf_suite [--smoke] [--out <path>] [--sharded-out <path>]
//                   [--list-scenarios] [--jobs N]
//   --smoke  small op counts (CI); --out defaults to BENCH_perf.json in the
//   current directory (CI runs from the repo root); --list-scenarios prints
//   the scenario names one per line and exits (tooling introspects the
//   suite instead of hard-coding names).
//
//   --jobs N runs scenarios on N host threads (smoke only, opt-in). The
//   DEFAULT stays serial, on purpose: these are *wall-clock* measurements,
//   and concurrent scenarios stealing cycles from each other would inflate
//   every ns/io number. Parallel runs are for functional smoke (does the
//   suite still pass, is the JSON well-formed), never for perf deltas.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "api/vfs.h"
#include "core/stack.h"
#include "sim/frame_pool.h"
#include "sim/host_pool.h"
#include "wl/concurrent_writers.h"
#include "wl/fxmark.h"
#include "wl/varmail.h"

// ---- global allocation counter ---------------------------------------------

// Atomic (relaxed): with --jobs, scenario threads allocate concurrently.
// Relaxed is exact for counting; per-scenario deltas under parallelism
// include neighbours' allocations, which is fine for the smoke-only use.
static std::atomic<std::uint64_t> g_new_calls{0};

// Under TSan the replaced malloc-backed operator new/delete would sit
// outside the sanitizer's allocator interception (and GCC rejects the
// pair as -Wmismatched-new-delete); nobody reads the allocs/op column
// from a sanitizer build, so keep the default allocator there and let
// the counter stay at zero.
#if defined(__SANITIZE_THREAD__)
#define BIO_PERF_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BIO_PERF_TSAN 1
#endif
#endif

#if !defined(BIO_PERF_TSAN)
void* operator new(std::size_t n) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // !BIO_PERF_TSAN

using namespace bio;
using Clock = std::chrono::steady_clock;

namespace {

enum class Mode { kFullSync, kFdatabarrier, kBuffered };

/// What a scenario body reports about its measured window.
struct Outcome {
  std::uint64_t ops = 0;
  /// Simulated throughput, for the scenarios whose signal it is.
  double sim_ops_per_sec = 0.0;
  /// Sharded (multi-volume) scenarios only: per-volume *simulated*
  /// throughput — the volume-scaling signal, next to the wall-clock cost.
  std::vector<double> volume_ops_per_sec{};
};

/// A scenario's outcome plus what measure() counted over its window.
struct ScenarioResult : Outcome {
  std::string name;
  std::uint64_t sim_ios = 0;
  std::uint64_t requests = 0;
  std::uint64_t events = 0;
  double wall_ns = 0.0;
  std::uint64_t global_allocs = 0;
  blk::RequestPool::Stats pool;

  double ns_per_io() const { return sim_ios ? wall_ns / double(sim_ios) : 0; }
  double ns_per_op() const { return ops ? wall_ns / double(ops) : 0; }
  double events_per_sec() const {
    return wall_ns > 0 ? double(events) * 1e9 / wall_ns : 0;
  }
  double requests_per_sec() const {
    return wall_ns > 0 ? double(requests) * 1e9 / wall_ns : 0;
  }
  double global_allocs_per_op() const {
    return ops ? double(global_allocs) / double(ops) : 0;
  }
};

/// The one measure-and-time harness. `body(open_window)` runs a scenario
/// and calls `open_window()` once the setup it excludes (prefill, the
/// fxmark setup phase) is done. The window spans from there to the body's
/// return: the harness snapshots device IOs, submitted requests and pool
/// stats summed over `layers` (each block layer and its device), plus
/// `sim`'s dispatched events, the global allocation count and the wall
/// clock, and reports the differences.
template <typename Body>
ScenarioResult measure(const char* name, const sim::Simulator& sim,
                       const std::vector<blk::BlockLayer*>& layers,
                       Body&& body) {
  struct Counters {
    std::uint64_t sim_ios = 0;
    std::uint64_t requests = 0;
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;
    blk::RequestPool::Stats pool;
  };
  auto counters = [&] {
    Counters c;
    for (blk::BlockLayer* b : layers) {
      const auto& d = b->device().stats();
      c.sim_ios += d.writes + d.reads + d.flushes;
      c.requests += b->stats().submitted;
      c.pool += b->pool().stats();
    }
    c.events = sim.events_dispatched();
    c.allocs = g_new_calls;
    return c;
  };
  Counters start;
  Clock::time_point t0{};
  const std::function<void()> open_window = [&] {
    start = counters();
    t0 = Clock::now();
  };
  Outcome out = body(open_window);
  const auto t1 = Clock::now();
  const Counters end = counters();

  ScenarioResult r;
  static_cast<Outcome&>(r) = std::move(out);
  r.name = name;
  r.sim_ios = end.sim_ios - start.sim_ios;
  r.requests = end.requests - start.requests;
  r.events = end.events - start.events;
  r.wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  r.global_allocs = end.allocs - start.allocs;
  r.pool = end.pool;
  r.pool -= start.pool;
  return r;
}

/// Every volume's block layer (one for a single-volume stack).
std::vector<blk::BlockLayer*> block_layers(core::Stack& s) {
  std::vector<blk::BlockLayer*> out;
  for (std::size_t v = 0; v < s.volume_count(); ++v)
    out.push_back(&s.volume(v).blk());
  return out;
}

ScenarioResult run_scenario(const char* name, core::StackKind kind, Mode mode,
                            std::uint64_t ops, std::uint32_t nfiles,
                            std::uint32_t pages_per_file) {
  auto stack = std::make_unique<core::Stack>(
      core::StackConfig::make(kind, flash::DeviceProfile::plain_ssd()));
  stack->start();
  api::Vfs vfs(*stack);
  std::vector<api::File> files(nfiles);

  // Setup phase (not measured): create and pre-allocate the working set so
  // the measured writes are overwrites.
  auto setup = [&]() -> sim::Task {
    for (std::uint32_t i = 0; i < nfiles; ++i) {
      files[i] = api::must(co_await vfs.open(
          "f" + std::to_string(i),
          {.create = true, .extent_blocks = pages_per_file}));
      for (std::uint32_t off = 0; off < pages_per_file;
           off += blk::kMaxMergedBlocks) {
        const std::uint32_t n = std::min<std::uint32_t>(
            blk::kMaxMergedBlocks, pages_per_file - off);
        api::must(co_await files[i].pwrite(off, n));
        api::must(co_await files[i].fsync());
      }
    }
  };

  auto app = [&]() -> sim::Task {
    for (std::uint64_t i = 0; i < ops; ++i) {
      api::File& f = files[i % nfiles];
      const std::uint32_t page =
          static_cast<std::uint32_t>((i * 7) % pages_per_file);
      api::must(co_await f.pwrite(page, 1));
      switch (mode) {
        case Mode::kFullSync:
          api::must(co_await f.sync_file());
          break;
        case Mode::kFdatabarrier:
          api::must(co_await f.fdatabarrier());
          break;
        case Mode::kBuffered:
          break;
      }
    }
  };

  return measure(name, stack->sim(), block_layers(*stack),
                 [&](const std::function<void()>& open_window) {
                   stack->sim().spawn("setup", setup());
                   stack->sim().run();
                   open_window();
                   stack->sim().spawn("app", app());
                   stack->sim().run();
                   return Outcome{.ops = ops};
                 });
}

/// Sharded DWSL over a node of `nvolumes` BFS-DR volumes. Callers pass a
/// core count that *scales with the volume count* (weak scaling: enough
/// writers per volume to saturate one journal), so volume_ops_per_sec
/// isolates per-journal commit saturation while total throughput tracks
/// the volume count. The window opens at the workload's hook, after its
/// setup phase, so the rows measure only the striped-writer phase.
ScenarioResult run_sharded_scenario(const char* name, std::uint32_t nvolumes,
                                    std::uint32_t cores,
                                    std::uint32_t writes_per_thread) {
  const std::vector<core::StackConfig> bases(
      nvolumes, core::StackConfig::make(core::StackKind::kBfsDR,
                                        flash::DeviceProfile::plain_ssd()));
  auto node = std::make_unique<core::Stack>(core::NodeConfig::from(bases));
  return measure(
      name, node->sim(), block_layers(*node),
      [&](const std::function<void()>& open_window) {
        wl::ShardedFxmarkResult res = wl::run_fxmark_dwsl_sharded(
            *node, {.cores = cores, .writes_per_thread = writes_per_thread},
            open_window);
        return Outcome{
            .ops = res.ops_done,
            .sim_ops_per_sec = res.elapsed > 0 ? res.ops_per_sec : 0.0,
            .volume_ops_per_sec = std::move(res.volume_ops_per_sec)};
      });
}

/// Shared-inode multi-writer workload (wl::run_concurrent_writers) on one
/// BFS-DR volume: N coroutine writers over independent fds interleaving
/// writes with the sync matrix plus namespace and fd churn — the host-side
/// cost of the path the concurrent crash sweep exercises.
ScenarioResult run_concurrent_scenario(const char* name,
                                       std::uint32_t writers,
                                       std::uint32_t ops_per_writer) {
  auto stack = std::make_unique<core::Stack>(
      core::StackConfig::make(core::StackKind::kBfsDR,
                              flash::DeviceProfile::plain_ssd()));
  wl::ConcurrentWritersParams p;
  p.writers = writers;
  p.ops_per_writer = ops_per_writer;
  return measure(name, stack->sim(), block_layers(*stack),
                 [&](const std::function<void()>& open_window) {
                   open_window();
                   const wl::ConcurrentWritersResult res =
                       wl::run_concurrent_writers(*stack, p);
                   return Outcome{.ops = res.ops_done + res.syncs_done};
                 });
}

/// Ring QD sweep: the varmail flow on one BFS-DR volume, driven through
/// api::Ring at a fixed per-thread queue depth (ring_qd = 0 is the direct
/// serialized flavour — the serial-await baseline). Next to the wall-clock
/// columns this records *simulated* flowops/s (sim_ops_per_sec): the
/// batching signal — linked chains from independent mails coalescing into
/// shared journal commits — that QD >= 8 must win over serial awaits.
ScenarioResult run_ring_scenario(const char* name, std::uint32_t ring_qd,
                                 bool smoke) {
  auto stack = std::make_unique<core::Stack>(core::StackConfig::make(
      core::StackKind::kBfsDR, flash::DeviceProfile::plain_ssd()));
  wl::VarmailParams p;
  p.threads = smoke ? 8 : 16;
  p.files = smoke ? 100 : 400;
  p.iterations = smoke ? 20 : 60;
  p.ring_qd = ring_qd;
  return measure(name, stack->sim(), block_layers(*stack),
                 [&](const std::function<void()>& open_window) {
                   open_window();
                   const wl::VarmailResult res =
                       wl::run_varmail(*stack, p, sim::Rng(47));
                   return Outcome{.ops = res.ops_done,
                                  .sim_ops_per_sec = res.ops_per_sec};
                 });
}

/// Multi-queue block-layer scaling: eight writer coroutines drive strided
/// ordered writes (a barrier every 32) straight through blk::BlockLayer at
/// `nr_queues` software queues over the plain-SSD's eight channels.
/// sim_ops_per_sec is the scaling signal — at q1 every write funnels
/// through one port's host bus, at q4 four channel pipelines transfer in
/// parallel — and it is measured to the *last write acknowledgement* (not
/// the background NAND drain, which has the same channel parallelism at
/// every queue count and would wash the signal out). bench_delta.py
/// enforces q4 > 1.3x q1.
ScenarioResult run_mq_scenario(const char* name, std::uint32_t nr_queues,
                               bool smoke) {
  sim::Simulator sim;
  flash::StorageDevice dev(sim, flash::DeviceProfile::plain_ssd());
  blk::BlockLayerConfig bcfg;
  bcfg.nr_queues = nr_queues;
  blk::BlockLayer blk(sim, dev, bcfg);
  dev.start();
  blk.start();

  const std::uint32_t writers = 8;
  const std::uint32_t ops = smoke ? 120 : 480;
  const std::uint64_t total = std::uint64_t{writers} * ops;
  std::uint64_t done = 0;
  sim::SimTime all_acked = 0;
  auto writer = [&](std::uint32_t w) -> sim::Task {
    for (std::uint32_t i = 0; i < ops; ++i) {
      std::vector<blk::Block> b;
      // Strided LBAs: nothing merges, every op is one device command.
      b.emplace_back(static_cast<flash::Lba>(w * 65536 + i * 2),
                     blk.next_version());
      co_await blk.write_and_wait(std::move(b), /*ordered=*/true,
                                  /*barrier=*/(i % 32) == 31);
      if (++done == total) all_acked = sim.now();
    }
  };

  return measure(
      name, sim, {&blk}, [&](const std::function<void()>& open_window) {
        open_window();
        for (std::uint32_t w = 0; w < writers; ++w)
          sim.spawn("mq-writer", writer(w));
        sim.run();
        return Outcome{
            .ops = done,
            .sim_ops_per_sec =
                all_acked > 0
                    ? static_cast<double>(done) / sim::to_seconds(all_acked)
                    : 0.0};
      });
}

void print_table(const std::vector<ScenarioResult>& results) {
  std::printf(
      "%-18s %9s %9s %9s %10s %11s %11s %11s %10s\n", "scenario", "ops",
      "sim_ios", "ns/io", "ns/op", "events/s", "reqs/s", "allocs/req",
      "allocs/op");
  for (const auto& r : results)
    std::printf(
        "%-18s %9llu %9llu %9.1f %10.1f %11.0f %11.0f %11.4f %10.2f\n",
        r.name.c_str(), (unsigned long long)r.ops,
        (unsigned long long)r.sim_ios, r.ns_per_io(), r.ns_per_op(),
        r.events_per_sec(), r.requests_per_sec(),
        r.pool.allocs_per_request(), r.global_allocs_per_op());
}

bool write_json(const char* path, const std::vector<ScenarioResult>& results,
                bool smoke) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perf_suite: cannot open %s for writing\n", path);
    return false;
  }
  // Aggregate across retired scenario threads (--jobs): serial runs see
  // exactly the calling thread's pool, parallel runs the whole process.
  const sim::FramePoolStats fp = sim::frame_pool_aggregate_stats();
  std::fprintf(f, "{\n  \"schema\": \"bio-perf/1\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f,
               "  \"frame_pool\": {\"allocs\": %llu, \"reuses\": %llu, "
               "\"fresh\": %llu},\n",
               (unsigned long long)fp.allocs, (unsigned long long)fp.reuses,
               (unsigned long long)fp.fresh);
  std::fprintf(f, "  \"scenarios\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioResult& r = results[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"name\": \"%s\",\n", r.name.c_str());
    std::fprintf(f, "      \"ops\": %llu,\n", (unsigned long long)r.ops);
    std::fprintf(f, "      \"sim_ios\": %llu,\n",
                 (unsigned long long)r.sim_ios);
    std::fprintf(f, "      \"requests\": %llu,\n",
                 (unsigned long long)r.requests);
    std::fprintf(f, "      \"events\": %llu,\n", (unsigned long long)r.events);
    std::fprintf(f, "      \"wall_ns\": %.0f,\n", r.wall_ns);
    std::fprintf(f, "      \"ns_per_io\": %.2f,\n", r.ns_per_io());
    std::fprintf(f, "      \"ns_per_op\": %.2f,\n", r.ns_per_op());
    std::fprintf(f, "      \"events_per_sec\": %.0f,\n", r.events_per_sec());
    std::fprintf(f, "      \"requests_per_sec\": %.0f,\n",
                 r.requests_per_sec());
    std::fprintf(f, "      \"global_allocs\": %llu,\n",
                 (unsigned long long)r.global_allocs);
    std::fprintf(f, "      \"global_allocs_per_op\": %.3f,\n",
                 r.global_allocs_per_op());
    if (!r.volume_ops_per_sec.empty()) {
      std::fprintf(f, "      \"volumes\": %zu,\n",
                   r.volume_ops_per_sec.size());
      std::fprintf(f, "      \"volume_ops_per_sec\": [");
      for (std::size_t v = 0; v < r.volume_ops_per_sec.size(); ++v)
        std::fprintf(f, "%s%.0f", v ? ", " : "", r.volume_ops_per_sec[v]);
      std::fprintf(f, "],\n");
    }
    if (r.sim_ops_per_sec > 0)
      std::fprintf(f, "      \"sim_ops_per_sec\": %.0f,\n",
                   r.sim_ops_per_sec);
    std::fprintf(
        f,
        "      \"pool\": {\"acquired\": %llu, \"recycled\": %llu, "
        "\"fresh_requests\": %llu, \"ctrl_allocs\": %llu, "
        "\"block_heap_allocs\": %llu, \"allocs_per_request\": %.4f}\n",
        (unsigned long long)r.pool.acquired,
        (unsigned long long)r.pool.recycled,
        (unsigned long long)r.pool.fresh_requests,
        (unsigned long long)r.pool.ctrl_allocs,
        (unsigned long long)r.pool.block_heap_allocs,
        r.pool.allocs_per_request());
    std::fprintf(f, "    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool list_scenarios = false;
  int jobs = 1;  // serial by default: wall-clock numbers need isolation
  const char* out = "BENCH_perf.json";
  const char* sharded_out = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--list-scenarios") == 0) {
      list_scenarios = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--sharded-out") == 0 && i + 1 < argc) {
      sharded_out = argv[++i];
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      if (!sim::parse_count(argv[++i], sim::kMaxHostJobs, jobs)) {
        std::fprintf(stderr, "bad --jobs '%s' (want a decimal in [1, %d])\n",
                     argv[i], sim::kMaxHostJobs);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: perf_suite [--smoke] [--out <path>] "
                   "[--sharded-out <path>] [--list-scenarios] [--jobs N]\n");
      return 2;
    }
  }

  const std::uint64_t sync_ops = smoke ? 200 : 3000;
  const std::uint64_t churn_ops = smoke ? 500 : 20000;
  const std::uint64_t page_ops = smoke ? 2000 : 40000;
  const std::uint32_t dwsl_writes = smoke ? 25 : 200;

  using K = core::StackKind;
  // The scenario registry: names live here once; --list-scenarios prints
  // them without running anything, so CI and bench_delta.py introspect the
  // suite instead of hard-coding the list.
  struct ScenarioDef {
    const char* name;
    std::function<ScenarioResult()> run;
  };
  std::vector<ScenarioDef> defs;
  auto add = [&defs](const char* name,
                     std::function<ScenarioResult(const char*)> fn) {
    defs.push_back({name, [name, fn = std::move(fn)] { return fn(name); }});
  };
  add("sync-EXT4-DR", [&](const char* n) {
    return run_scenario(n, K::kExt4DR, Mode::kFullSync, sync_ops, 1, 1024);
  });
  add("sync-EXT4-OD", [&](const char* n) {
    return run_scenario(n, K::kExt4OD, Mode::kFullSync, sync_ops, 1, 1024);
  });
  add("sync-BFS-DR", [&](const char* n) {
    return run_scenario(n, K::kBfsDR, Mode::kFullSync, sync_ops, 1, 1024);
  });
  add("sync-BFS-OD", [&](const char* n) {
    return run_scenario(n, K::kBfsOD, Mode::kFullSync, sync_ops, 1, 1024);
  });
  add("sync-OptFS", [&](const char* n) {
    return run_scenario(n, K::kOptFs, Mode::kFullSync, sync_ops, 1, 1024);
  });
  // Request churn: ordering-only syncs never block, so this maximises
  // request creation per wall second — the pool's worst case.
  add("request-churn", [&](const char* n) {
    return run_scenario(n, K::kBfsOD, Mode::kFdatabarrier, churn_ops, 1,
                        1024);
  });
  // Page-cache churn: buffered writes across many files; pdflush does the
  // writeback. Exercises the per-inode dirty indexes.
  add("pagecache-churn", [&](const char* n) {
    return run_scenario(n, K::kExt4DR, Mode::kBuffered, page_ops, 32, 256);
  });
  // Concurrent shared-inode writers: the multi-writer path the concurrent
  // crash sweep exercises (independent fds, sync matrix, namespace + fd
  // churn), measured for host-side cost on one BFS-DR volume.
  // Smoke keeps 8 writers but enough ops per writer that per-io setup cost
  // (mount + journal replay) amortizes like the full run — at 60 ops the
  // fixed costs inflated smoke ns/io ~40% relative to the rest of the
  // fleet, which the bench-delta median normalization cannot absorb.
  add("concurrent-writers", [&](const char* n) {
    return run_concurrent_scenario(n, smoke ? 8 : 16, smoke ? 200 : 400);
  });
  // Ring QD sweep: serial awaits vs api::Ring at increasing queue depth on
  // BFS-DR. sim_ops_per_sec is the batching signal — QD >= 8 must beat the
  // serial baseline (bench_delta.py enforces it).
  add("ring-serial", [&](const char* n) {
    return run_ring_scenario(n, 0, smoke);
  });
  add("ring-qd1", [&](const char* n) {
    return run_ring_scenario(n, 1, smoke);
  });
  add("ring-qd8", [&](const char* n) {
    return run_ring_scenario(n, 8, smoke);
  });
  add("ring-qd32", [&](const char* n) {
    return run_ring_scenario(n, 32, smoke);
  });
  // Multi-queue block-layer scaling: q1 is the classic single-queue layer,
  // q4 spreads four software queues over four flash channels. The sim
  // throughput ratio q4/q1 is the tentpole's win (bench_delta.py holds it
  // above 1.3x).
  add("mq-scaling-q1", [&](const char* n) {
    return run_mq_scenario(n, 1, smoke);
  });
  add("mq-scaling-q2", [&](const char* n) {
    return run_mq_scenario(n, 2, smoke);
  });
  add("mq-scaling-q4", [&](const char* n) {
    return run_mq_scenario(n, 4, smoke);
  });
  // Sharded DWSL weak scaling: 64 writer threads *per volume* (enough to
  // saturate one journal's commit pipeline, ~12k commits/s on this
  // profile) over 1/2/4 BFS-DR volumes of one node. With independent
  // journals, volume_ops_per_sec holds at saturation while
  // sim_ops_per_sec scales with the volume count.
  add("sharded-fxmark-v1", [&](const char* n) {
    return run_sharded_scenario(n, 1, 64, dwsl_writes);
  });
  add("sharded-fxmark-v2", [&](const char* n) {
    return run_sharded_scenario(n, 2, 128, dwsl_writes);
  });
  add("sharded-fxmark-v4", [&](const char* n) {
    return run_sharded_scenario(n, 4, 256, dwsl_writes);
  });

  if (list_scenarios) {
    for (const ScenarioDef& d : defs) std::printf("%s\n", d.name);
    return 0;
  }

  std::printf("=== perf_suite — wall-clock cost of the simulator%s%s ===\n",
              smoke ? " (smoke)" : "",
              jobs > 1 ? " [parallel: timings not comparable]" : "");
  // jobs=1 (default) runs inline in registry order; --jobs N > 1 fans the
  // scenarios across host threads and map() restores registry order, so
  // the table and JSON keep the same row order either way.
  const sim::HostPool pool(jobs);
  const std::vector<ScenarioResult> results = pool.map<ScenarioResult>(
      static_cast<int>(defs.size()),
      [&defs](int i) { return defs[static_cast<std::size_t>(i)].run(); });

  print_table(results);
  for (const ScenarioResult& r : results) {
    if (r.sim_ops_per_sec <= 0) continue;
    std::printf("%-18s sim ops/s %10.0f", r.name.c_str(), r.sim_ops_per_sec);
    if (!r.volume_ops_per_sec.empty()) {
      std::printf(" | per-volume:");
      for (double v : r.volume_ops_per_sec) std::printf(" %10.0f", v);
    }
    std::printf("\n");
  }
  if (!write_json(out, results, smoke)) return 1;
  std::printf("\nwrote %s\n", out);
  if (sharded_out != nullptr) {
    std::vector<ScenarioResult> sharded;
    for (const ScenarioResult& r : results)
      if (!r.volume_ops_per_sec.empty()) sharded.push_back(r);
    if (!write_json(sharded_out, sharded, smoke)) return 1;
    std::printf("wrote %s\n", sharded_out);
  }
  return 0;
}
