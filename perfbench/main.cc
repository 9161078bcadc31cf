// perfbench driver: runs one workload for a given seed and prints every
// metric by name with its unit, then one JSON result line.
//
// Usage: perfbench_driver --workload <name> --seed <n> --seconds <s>
//                         --trace <0|1> [--trace-out <path>]
//
// A run repeats the workload — fresh stack, setup, warm-up, measured
// window, drain, correctness gate — until `--seconds` of host time have
// passed (at least three repetitions; five with --trace 1). Every
// repetition uses the same seed, so all of them must report one simulated
// fingerprint. Host timings are medians over the untraced repetitions
// after the first; with --trace 1, repetitions alternate untraced and
// traced, the traced ones supply the per-call ledger and spans, and the
// ratio of the two kinds' host throughput is the tracing overhead.
#include <sched.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ledger.h"
#include "workloads.h"

// ---- host heap allocation counter -------------------------------------------

namespace {
std::uint64_t g_heap_allocs = 0;  // the driver is single-threaded
}

void* operator new(std::size_t n) {
  ++g_heap_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  ++g_heap_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

std::uint64_t perfbench::heap_allocs() noexcept { return g_heap_allocs; }

using namespace perfbench;

namespace {

/// Spans written to the trace file: the window's first ~5k-25k ops, enough
/// to read every call path without a multi-hundred-MB file.
constexpr std::size_t kTraceFileSpans = 50000;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool parse_u64(const char* s, std::uint64_t& out) {
  if (*s == '\0') return false;
  std::uint64_t v = 0;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return false;
    if (v > (UINT64_MAX - 9) / 10) return false;
    v = v * 10 + static_cast<std::uint64_t>(*p - '0');
  }
  out = v;
  return true;
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* val = argv[i + 1];
    std::uint64_t v = 0;
    if (std::strcmp(key, "--workload") == 0) {
      o.workload = val;
    } else if (std::strcmp(key, "--seed") == 0) {
      if (!parse_u64(val, o.seed)) return false;
    } else if (std::strcmp(key, "--seconds") == 0) {
      if (!parse_u64(val, v) || v < 1 || v > 600) return false;
      o.seconds = static_cast<double>(v);
    } else if (std::strcmp(key, "--trace") == 0) {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
        return false;
      o.trace = val[0] - '0';
    } else if (std::strcmp(key, "--trace-out") == 0) {
      o.trace_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0 &&
         o.trace >= 0;
}

// ---- one repetition ---------------------------------------------------------

struct Rep {
  bool traced = false;
  double setup_s = 0;
  double host_window_s = 0;
  double sim_window_s = 0;
  std::vector<std::int64_t> op_ns;
  std::vector<std::int64_t> dur_ns;
  Counters diff{};
  std::uint64_t page_cache_pages = 0;
  std::array<CallStats, kCallTypes> calls;
  std::vector<Span> spans;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t user_pages = 0;
  std::uint64_t ring_submits = 0;
  std::uint64_t ring_sqes = 0;
  std::uint64_t fingerprint = 0;
  std::string gate_error;
  std::string gate_detail;

  double ops() const { return static_cast<double>(op_ns.size()); }
  double host_ops_per_s() const { return ops() / host_window_s; }
};

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

Rep run_rep(const WorkloadSpec& spec, std::uint64_t seed, bool traced) {
  Rep r;
  r.traced = traced;
  const std::int64_t t0 = cpu_ns();
  std::unique_ptr<Workload> wl = make_workload(spec.name, seed);
  wl->setup();
  r.setup_s = static_cast<double>(cpu_ns() - t0) / 1e9;

  bio::sim::Simulator& sim = wl->sim();
  Ledger led(sim, traced, spec.warmup, spec.measured);
  wl->spawn_clients(led);
  sim.run();  // warm-up: returns when the window opens
  if (!led.window_open())
    throw std::runtime_error("clients stopped before the window opened");
  const Counters c0 = wl->counters();
  const std::int64_t h0 = cpu_ns();
  sim.run();  // the measured window: returns when it closes
  const std::int64_t h1 = cpu_ns();
  if (led.issuing()) throw std::runtime_error("the window never closed");
  const Counters c1 = wl->counters();
  sim.run();  // drain the clients' in-flight work
  r.gate_error = wl->gate(r.gate_detail);

  r.host_window_s = static_cast<double>(h1 - h0) / 1e9;
  r.sim_window_s =
      static_cast<double>(led.window_end() - led.window_start()) / 1e9;
  for (std::size_t i = 0; i < kCtrCount; ++i) r.diff[i] = c1[i] - c0[i];
  r.page_cache_pages = c1[kPageCachePages];
  r.op_ns = std::move(led.op_ns());
  r.dur_ns = std::move(led.durability_ns());
  std::sort(r.op_ns.begin(), r.op_ns.end());
  std::sort(r.dur_ns.begin(), r.dur_ns.end());
  r.calls = std::move(led.calls());
  r.spans = std::move(led.spans());
  r.attempted = led.attempted();
  r.failed = led.failed();
  r.user_pages = led.user_pages();
  r.ring_submits = led.ring_submits();
  r.ring_sqes = led.ring_sqes();

  // Everything simulated, nothing host-dependent: equal for every
  // repetition and every run of one seed, traced or not.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  fnv(h, led.window_end() - led.window_start());
  for (std::int64_t v : r.op_ns) fnv(h, static_cast<std::uint64_t>(v));
  for (std::int64_t v : r.dur_ns) fnv(h, static_cast<std::uint64_t>(v));
  for (std::size_t i = 0; i < kFramePoolFresh; ++i)
    fnv(h, i == kPageCachePages ? r.page_cache_pages : r.diff[i]);
  for (std::uint64_t v : {r.attempted, r.failed, r.user_pages, r.ring_submits,
                          r.ring_sqes})
    fnv(h, v);
  r.fingerprint = h;
  return r;
}

// ---- metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Median of `fn` over the traced or untraced repetitions, leaving out the
/// first repetition of the run: it pays the process's cold start (page
/// faults, empty allocator and frame-pool free lists).
template <typename Fn>
double host_median(const std::vector<Rep>& reps, bool traced, Fn fn) {
  std::vector<double> v;
  for (std::size_t i = 1; i < reps.size(); ++i)
    if (reps[i].traced == traced) v.push_back(fn(reps[i]));
  return median(v);
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double host_rate(const Rep& r) { return r.host_ops_per_s(); }
double host_ns_per_event(const Rep& r) {
  return ratio(r.host_window_s * 1e9, static_cast<double>(r.diff[kSimEvents]));
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

void pin_to(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);  // best effort
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
  std::fclose(f);
  return kb / 1024.0;
}

double mean_us(const std::vector<std::int64_t>& v) {
  double total = 0;
  for (std::int64_t x : v) total += static_cast<double>(x);
  return v.empty() ? 0.0 : total / static_cast<double>(v.size()) / 1e3;
}

// The simulated medians sit on service-time atoms (a BFS-DR txn takes
// exactly 2337 us unless GC interferes) and read the same for every seed,
// so the end-to-end set reports means next to the p99.9 tails; the medians
// are in the per-layer set (sim.op_us_p50, sim.fsync_us_p50).
std::vector<Metric> end_to_end(const std::vector<Rep>& reps, double rss_mb) {
  const Rep& r = reps.front();
  std::vector<double> setups;
  for (const Rep& x : reps) setups.push_back(x.setup_s);
  std::vector<std::int64_t> op = r.op_ns;
  std::vector<std::int64_t> dur = r.dur_ns;
  return {
      {"sim_ops_per_s", r.ops() / r.sim_window_s, "1/s"},
      {"sim_op_us_mean", mean_us(op), "us"},
      {"sim_op_us_p999", percentile(op, 99.9) / 1e3, "us"},
      {"sim_fsync_us_mean", mean_us(dur), "us"},
      {"sim_fsync_us_p999", percentile(dur, 99.9) / 1e3, "us"},
      {"host_ops_per_s", host_median(reps, false, host_rate), "1/s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"setup_s", median(setups), "s"},
  };
}

std::vector<Metric> per_layer(const std::vector<Rep>& reps) {
  const Rep& r = reps.front();
  const Rep* traced = nullptr;
  for (const Rep& x : reps)
    if (x.traced) traced = &x;
  const Counters& d = r.diff;
  const double ops = r.ops();
  auto c = [&d](Ctr k) { return static_cast<double>(d[k]); };
  std::vector<Metric> m;

  // api: per call type, from the traced repetition.
  std::array<CallStats, kCallTypes> calls = traced->calls;
  for (std::size_t i = 0; i < static_cast<std::size_t>(Call::kBlkWrite); ++i) {
    const std::string p = call_name(static_cast<Call>(i));
    CallStats& cs = calls[i];
    m.push_back({p + ".count", static_cast<double>(cs.count), "count"});
    m.push_back({p + ".sim_us_p50", percentile(cs.sim_ns, 50) / 1e3, "us"});
    m.push_back({p + ".sim_us_p999", percentile(cs.sim_ns, 99.9) / 1e3, "us"});
    m.push_back({p + ".host_us_p50", percentile(cs.host_ns, 50) / 1e3, "us"});
  }
  m.push_back({"api.errors", c(kVfsErrors), "count"});
  m.push_back({"api.ring.sqes_per_submit",
               ratio(static_cast<double>(r.ring_sqes),
                     static_cast<double>(r.ring_submits)),
               "sqe/submit"});

  // fs
  m.push_back({"fs.journal.commits_per_op", ratio(c(kJournalCommits), ops),
               "1/op"});
  m.push_back({"fs.journal.syncs_per_commit",
               ratio(c(kSyncCalls), c(kJournalCommits)), "ratio"});
  m.push_back({"fs.journal.blocks_per_commit",
               ratio(c(kJournalBlocks), c(kJournalCommits)), "blocks"});
  m.push_back({"fs.journal.stalls", c(kJournalStalls), "count"});
  m.push_back({"fs.journal.checkpoint_flushes", c(kCheckpointFlushes),
               "count"});
  m.push_back({"fs.writeback_pages", c(kWritebackPages), "count"});
  m.push_back({"fs.page_cache.pages", static_cast<double>(r.page_cache_pages),
               "count"});

  // blk
  m.push_back({"blk.requests_per_op", ratio(c(kBlkSubmitted), ops), "1/op"});
  m.push_back({"blk.merge_ratio", ratio(c(kSchedMerges), c(kSchedEnqueued)),
               "ratio"});
  m.push_back({"blk.busy_retries", c(kBlkBusyRetries), "count"});
  m.push_back({"blk.io_retries", c(kBlkIoRetries), "count"});
  for (int q = 0; q < 4; ++q)
    m.push_back({"blk.q" + std::to_string(q) + ".dispatched",
                 c(static_cast<Ctr>(kQueue0Dispatched + q)), "count"});
  m.push_back({"blk.pool.allocs_per_request",
               ratio(c(kPoolHeapAllocs), c(kPoolAcquired)), "ratio"});
  for (Call k : {Call::kBlkWrite, Call::kBlkRead, Call::kBlkBarrier}) {
    const std::string p = call_name(k);
    CallStats& cs = calls[static_cast<std::size_t>(k)];
    m.push_back({p + ".sim_us_p50", percentile(cs.sim_ns, 50) / 1e3, "us"});
    m.push_back({p + ".sim_us_p999", percentile(cs.sim_ns, 99.9) / 1e3, "us"});
  }

  // flash
  m.push_back({"flash.flushes_per_op", ratio(c(kDevFlushes), ops), "1/op"});
  m.push_back({"flash.barrier_writes_per_op", ratio(c(kDevBarrierWrites), ops),
               "1/op"});
  m.push_back({"flash.write_amp_host",
               ratio(c(kDevBlocksWritten), static_cast<double>(r.user_pages)),
               "ratio"});
  m.push_back({"flash.write_amp_nand",
               ratio(c(kDevBlocksWritten) + c(kGcPagesCopied),
                     c(kDevBlocksWritten)),
               "ratio"});
  m.push_back({"flash.gc.runs", c(kGcRuns), "count"});
  m.push_back({"flash.cache_read_hit_ratio",
               ratio(c(kDevCacheReadHits), c(kDevReads)), "ratio"});
  m.push_back({"flash.busy_rejections", c(kDevBusyRejections), "count"});
  for (int p = 0; p < 8; ++p)
    m.push_back({"flash.port" + std::to_string(p) + ".submissions",
                 c(static_cast<Ctr>(kPort0Submissions + p)), "count"});

  // sim / host
  m.push_back({"sim.events_per_op", ratio(c(kSimEvents), ops), "1/op"});
  m.push_back({"sim.host_ns_per_event",
               host_median(reps, false, host_ns_per_event), "ns"});
  m.push_back({"sim.context_switches_per_op",
               ratio(c(kAppContextSwitches), ops), "1/op"});
  // Allocation counts come from repetition 0 (untraced): later ones start
  // with the frame pool's thread-local free lists already filled.
  m.push_back({"sim.frame_pool.fresh", c(kFramePoolFresh), "count"});
  m.push_back({"host.heap_allocs_per_op", ratio(c(kHeapAllocs), ops), "1/op"});
  std::vector<std::int64_t> op = r.op_ns;
  std::vector<std::int64_t> dur = r.dur_ns;
  m.push_back({"sim.op_us_p50", percentile(op, 50) / 1e3, "us"});
  m.push_back({"sim.fsync_us_p50", percentile(dur, 50) / 1e3, "us"});
  m.push_back({"sim.op_samples", ops, "count"});
  m.push_back({"sim.fsync_samples", static_cast<double>(r.dur_ns.size()),
               "count"});

  // tracing
  const double untraced_rate = host_median(reps, false, host_rate);
  const double traced_rate = host_median(reps, true, host_rate);
  m.push_back({"trace.overhead_ratio", ratio(untraced_rate, traced_rate),
               "ratio"});
  m.push_back({"trace.spans_per_op",
               ratio(static_cast<double>(traced->spans.size()), traced->ops()),
               "1/op"});
  return m;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  std::printf("}}\n");
}

int run(const Options& o) {
  const WorkloadSpec* spec = find_workload(o.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 o.workload.c_str());
    return 2;
  }
  const bool trace = o.trace == 1;
  // Host medians skip repetition 0, so this leaves at least two samples of
  // each kind.
  const std::size_t min_reps = trace ? 5 : 3;
  const std::int64_t start = host_ns();
  std::vector<Rep> reps;
  double rss_mb = 0;
  const std::vector<int> cpus = allowed_cpus();
  while (reps.size() < min_reps ||
         static_cast<double>(host_ns() - start) / 1e9 < o.seconds) {
    const bool traced = trace && reps.size() % 2 == 1;
    // On a shared machine the cores run at different speeds (other
    // tenants on the same physical cores, frequency); rotating the
    // repetitions over every allowed core makes the median sample all of
    // them instead of whichever core the scheduler picked for this process.
    if (!cpus.empty()) pin_to(cpus[reps.size() % cpus.size()]);
    // Spans are large; keep only the latest traced repetition's.
    if (traced)
      for (Rep& r : reps) r.spans = {};
    reps.push_back(run_rep(*spec, o.seed, traced));
    // Every repetition allocates the same; the high-water mark of the
    // first is the workload's, later ones only add allocator drift.
    if (reps.size() == 1) rss_mb = peak_rss_mb();
  }

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Rep& r : reps) {
    attempted += r.attempted;
    failed += r.failed;
    if (!r.gate_error.empty()) {
      correct = false;
      std::printf("gate FAILED: %s\n", r.gate_error.c_str());
    }
    if (r.fingerprint != reps.front().fingerprint) {
      correct = false;
      std::printf("fingerprint MISMATCH between repetitions\n");
    }
  }
  const Rep& r0 = reps.front();
  std::printf("perfbench %s seed=%llu trace=%d reps=%zu\n", spec->name,
              static_cast<unsigned long long>(o.seed), o.trace, reps.size());
  std::printf("fingerprint: %016llx\n",
              static_cast<unsigned long long>(r0.fingerprint));
  std::printf("gate: %s\n", r0.gate_error.empty() ? r0.gate_detail.c_str()
                                                   : r0.gate_error.c_str());
  std::printf("host_ops_per_s by repetition:");
  for (const Rep& r : reps)
    std::printf(" %.0f%s", r.host_ops_per_s(), r.traced ? "(traced)" : "");
  std::printf("\n");
  std::printf("samples: %zu ops (%zu beyond p99.9), %zu durability calls "
              "(%zu beyond p99.9); failed %llu of %llu attempted\n",
              r0.op_ns.size(), r0.op_ns.size() / 1000, r0.dur_ns.size(),
              r0.dur_ns.size() / 1000, static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = end_to_end(reps, rss_mb);
  } else {
    metrics = per_layer(reps);
    const Rep* traced = nullptr;
    for (const Rep& x : reps)
      if (x.traced) traced = &x;
    std::printf("self time per span name (traced repetition, window):\n");
    for (const SelfTime& s : self_times(traced->spans))
      std::printf("  %-22s %9llu spans %10.3f ms self %9.3f us/span\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.spans),
                  static_cast<double>(s.self_ns) / 1e6,
                  static_cast<double>(s.self_ns) / 1e3 /
                      static_cast<double>(s.spans));
    if (!o.trace_out.empty()) {
      if (!write_chrome_trace(traced->spans, kTraceFileSpans,
                              o.trace_out.c_str())) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     o.trace_out.c_str());
        return 1;
      }
      std::printf("trace: first %zu of %zu spans -> %s\n",
                  std::min(kTraceFileSpans, traced->spans.size()),
                  traced->spans.size(), o.trace_out.c_str());
    }
  }
  for (const Metric& m : metrics)
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  print_json(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, o)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <path>]\n");
    return 2;
  }
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
