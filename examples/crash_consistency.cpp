// Example / CLI: the full-stack crash-recovery sweeps.
//
// Every table below is chk::run_sweep over one chk::SweepSpec: a workload
// runs on a fresh node, power is cut at a random simulated instant, each
// volume's durable image is recovered through fs::Recovery and remounted,
// and one oracle verifies the stack's crash-consistency contract
// (src/chk/crash_check.h has the per-stack table). Per stack:
//
//   * plain  — the single-writer workload (unlink/rename churn);
//   * conc   — N writers sharing files through independent fds, the
//              cross-writer contract of DESIGN.md §9;
//   * ring   — the same writers through api::Ring linked chains, plus the
//              linked-chain contract of DESIGN.md §10;
//   * fault  — the single writer under a seed-derived flash::FaultPlan
//              (transient/hard/torn faults), DESIGN.md §11;
//   * q4     — conc and fault again at nr_queues=4 (DESIGN.md §14);
//   * node   — BFS-DR + EXT4-DR volumes behind one Vfs mount table, one
//              cut, per-volume verdicts.
//
// EXT4-OD (nobarrier on an orderless device) claims the EXT4-DR contract
// and every sweep is expected to catch it violating (Fig 1). A negative
// control re-runs a short fault sweep with
// BlockLayer::set_swallow_io_errors_for_test: the oracle must catch it.
//
// Reproducing a failed point: every failure prints its seed, crash instant,
// point index and a `--repro` line; `--repro <spec>` replays just that
// case (chk::parse_repro → chk::run_check) and exits 1 if it fails, 0 if
// it is clean. Specs:
//   --repro <stack>[:q<N>]:<base>:<point>         single-writer point
//   --repro conc:<stack>[:q<N>]:<base>:<point>    concurrent point
//   --repro ring:<stack>[:q<N>]:<base>:<point>    ring point
//   --repro fault:<stack>[:q<N>]:<base>:<point>   fault-injection point
//   --repro node[:<stack>+<stack>...][:q<N>]:<base>:<point>
//                                                 multi-volume point; the
//                                                 bare form is BFS-DR+EXT4-DR
// `q<N>` carries the block layer's queue count. Malformed specs (unknown
// prefix or stack, non-numeric or empty fields, wrong arity, q0, qx, q65,
// point > 1000000, a one-stack node) exit 2 with a usage message. A line
// replays with default options; a library sweep with custom options
// replays through chk::run_check with its own spec and the coordinates in
// CrashSweepResult::failures.
//
// Parallelism: `--jobs N` (N in [1, 64]) picks the host threads a sweep
// fans its points across (default: the BIO_SWEEP_JOBS env var, else
// hardware concurrency). Results are bit-identical at any jobs value
// (DESIGN.md §13). `--points N` (N in [1, 1000000]) sets the points per
// sweep and wins over `--smoke`'s 120. `--parallel-smoke` runs a short
// all-flavour parallel sweep (the CI TSan leg's target). An unknown
// option, a malformed count or an option missing its value exits 2.
//
// Build: cmake --build build && ./build/examples/crash_consistency
// CI:    ./build/examples/crash_consistency --smoke --jobs 8
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <string>

#include "chk/crash_check.h"
#include "sim/host_pool.h"

using namespace bio;
using core::StackKind;

namespace {

std::string strf(const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

chk::SweepSpec plain(StackKind kind) { return {.volumes = {kind}}; }
chk::SweepSpec conc(StackKind kind, std::uint32_t nr_queues = 1) {
  return {.volumes = {kind},
          .workload = wl::ConcurrentWritersParams{},
          .nr_queues = nr_queues};
}
chk::SweepSpec ring(StackKind kind) {
  return {.volumes = {kind}, .workload = wl::RingWorkloadParams{}};
}
chk::SweepSpec fault(StackKind kind, std::uint32_t nr_queues = 1) {
  return {.volumes = {kind},
          .nr_queues = nr_queues,
          .faults = chk::FaultSpec{}};
}

/// Replays one sweep point from a `--repro` spec; returns the process exit
/// code (0 = the case is clean now, 1 = it fails, 2 = malformed spec).
int run_repro(const char* text) {
  const std::optional<chk::Repro> r = chk::parse_repro(text);
  if (!r) {
    std::fprintf(stderr,
                 "bad --repro spec '%s'\nusage: --repro "
                 "[conc:|ring:|fault:]<stack>[:q<N>]:<base>:<point>"
                 " | node[:<stack>+<stack>...][:q<N>]:<base>:<point>\n"
                 "       (stack: EXT4-DR EXT4-OD BFS-DR BFS-OD OptFS; "
                 "base/point: decimal, point <= %d; qN: block-layer "
                 "queues in [1, 64])\n",
                 text, chk::kMaxReproPoint);
    return 2;
  }
  const std::uint64_t seed =
      r->base_seed + static_cast<std::uint64_t>(r->point);
  const sim::SimTime crash_at = chk::sweep_crash_at(r->base_seed, r->point);
  std::printf("replaying %s: seed=%llu crash=%lluns queues=%u\n", text,
              (unsigned long long)seed, (unsigned long long)crash_at,
              r->spec.nr_queues);
  const chk::CrashCheckResult res = chk::run_check(r->spec, seed, crash_at);
  for (std::size_t i = 0; i < res.volumes.size(); ++i) {
    const chk::CrashCheckResult& v = res.volumes[i];
    std::printf(
        "v%zu %s: quiesced=%d files=%llu txns replayed=%llu discarded=%llu "
        "clean=%d wraps=%llu\n",
        i, core::to_string(r->spec.volumes[i]), (int)v.quiesced,
        (unsigned long long)v.files_recovered,
        (unsigned long long)v.txns_replayed,
        (unsigned long long)v.txns_discarded, (int)v.recovery_clean,
        (unsigned long long)v.journal_wraps);
    if (r->spec.faults)
      std::printf("  faults=%llu retries=%llu io-failures=%llu "
                  "syncs-failed=%llu degraded=%d\n",
                  (unsigned long long)v.faults_injected,
                  (unsigned long long)v.io_retries,
                  (unsigned long long)v.io_failures,
                  (unsigned long long)v.syncs_failed, (int)v.volume_degraded);
    for (const std::string& s : v.violations)
      std::printf("  ! %s\n", s.c_str());
  }
  if (res.ok()) std::printf("  (no violations — case is clean)\n");
  return res.ok() ? 0 : 1;
}

/// The CI TSan leg's target: a short sweep through every flavour (the
/// swallowed-EIO negative control and the node included), sized so the
/// race surface is fully exercised without a full smoke's wall clock.
/// Verdict-only: a flavour fails only if a clean stack violates.
int run_parallel_smoke(int jobs) {
  const int n = 24;  // points per flavour; > any sane jobs value
  const auto t0 = std::chrono::steady_clock::now();
  chk::SweepSpec swallow = fault(StackKind::kExt4DR);
  swallow.faults->swallow_io_errors = true;
  const struct {
    const char* name;
    chk::SweepSpec spec;
    int points;
    bool must_fail;
  } runs[] = {
      {"sweep", plain(StackKind::kBfsDR), n, false},
      {"conc", conc(StackKind::kExt4DR), n, false},
      {"ring", ring(StackKind::kBfsOD), n, false},
      {"fault", fault(StackKind::kOptFs), n, false},
      {"neg-control", swallow, 20, true},
      {"node",
       {.volumes = {StackKind::kBfsDR, StackKind::kExt4DR}},
       n,
       false},
      // Multi-queue: the same race surface plus the cross-queue epoch
      // fence (nr_queues=4 over the checker's 2-channel device).
      {"conc-q4", conc(StackKind::kBfsDR, 4), n, false},
      {"fault-q4", fault(StackKind::kBfsOD, 4), n, false},
  };
  bool ok = true;
  std::string tally;
  for (const auto& run : runs) {
    const chk::CrashSweepResult r =
        chk::run_sweep(run.spec, run.points, 1, jobs);
    ok = ok && (run.must_fail ? !r.ok() : r.ok());
    tally += strf("%s%s %d", tally.empty() ? "" : ", ", run.name,
                  r.failed_points);
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf(
      "parallel smoke: jobs=%d points/flavour=%d wall=%.1fs (%s failed "
      "points) -> %s\n",
      sim::resolve_host_jobs(jobs), n, secs, tally.c_str(),
      ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

const StackKind kKinds[] = {StackKind::kExt4DR, StackKind::kBfsDR,
                            StackKind::kBfsOD, StackKind::kOptFs,
                            StackKind::kExt4OD};

/// Prints one table row — stack, columns, verdict — and the sample
/// violations of a failing or expected-broken stack. EXT4-OD must fail
/// every sweep in `rs`; every other stack must pass them all. Returns
/// whether the stack met that expectation.
bool row(StackKind kind, const std::string& columns,
         std::initializer_list<const chk::CrashSweepResult*> rs) {
  const bool expect_violations = kind == StackKind::kExt4OD;
  bool stack_ok = true;
  for (const chk::CrashSweepResult* r : rs)
    stack_ok = stack_ok && r->ok() != expect_violations;
  std::printf("%-7s | %s | %s\n", core::to_string(kind), columns.c_str(),
              stack_ok ? (expect_violations ? "BROKEN (as the paper predicts)"
                                            : "ok")
                       : (expect_violations
                              ? "UNEXPECTEDLY CLEAN (checker too weak?)"
                              : "VIOLATED"));
  if (!stack_ok || expect_violations)
    for (const chk::CrashSweepResult* r : rs)
      for (const std::string& v : r->sample_violations)
        std::printf("        ! %s\n", v.c_str());
  return stack_ok;
}

}  // namespace

int main(int argc, char** argv) {
  int points = 200;
  int jobs = 0;  // 0 = BIO_SWEEP_JOBS env, else hardware concurrency
  bool smoke = false, points_given = false, parallel_smoke = false;
  const char* repro = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--smoke") == 0) {
      smoke = true;
      continue;
    }
    if (std::strcmp(arg, "--parallel-smoke") == 0) {
      parallel_smoke = true;
      continue;
    }
    const bool takes_value = std::strcmp(arg, "--points") == 0 ||
                             std::strcmp(arg, "--jobs") == 0 ||
                             std::strcmp(arg, "--repro") == 0;
    if (!takes_value) {
      std::fprintf(stderr,
                   "unknown option '%s' (want --smoke, --parallel-smoke, "
                   "--points N, --jobs N or --repro <spec>)\n",
                   arg);
      return 2;
    }
    if (i + 1 == argc) {
      std::fprintf(stderr, "%s needs a value\n", arg);
      return 2;
    }
    const char* value = argv[++i];
    if (std::strcmp(arg, "--repro") == 0) {
      repro = value;
    } else if (std::strcmp(arg, "--points") == 0) {
      if (!sim::parse_count(value, chk::kMaxReproPoint, points)) {
        std::fprintf(stderr, "bad --points '%s' (want a decimal in [1, %d])\n",
                     value, chk::kMaxReproPoint);
        return 2;
      }
      points_given = true;
    } else if (!sim::parse_count(value, sim::kMaxHostJobs, jobs)) {
      std::fprintf(stderr, "bad --jobs '%s' (want a decimal in [1, %d])\n",
                   value, sim::kMaxHostJobs);
      return 2;
    }
  }
  if (repro != nullptr) return run_repro(repro);
  // Smoke stays large enough that the EXT4-OD expected-failure check is
  // deterministic (the first violating sweep seed is in the 90s). An
  // explicit --points wins.
  if (smoke && !points_given) points = 120;
  if (parallel_smoke) return run_parallel_smoke(jobs);
  const auto sweep_t0 = std::chrono::steady_clock::now();
  auto sweep = [&](const chk::SweepSpec& spec) {
    return chk::run_sweep(spec, points, 1, jobs);
  };

  std::printf("crash-recovery sweep: %d crash points per stack, jobs=%d\n\n",
              points, sim::resolve_host_jobs(jobs));
  std::printf(
      "stack   | points | failed | quiesced | acked pgs | order wrs | wraps "
      "| verdict\n");
  std::printf(
      "--------+--------+--------+----------+-----------+-----------+-------"
      "+--------\n");

  // The nobarrier stack's violations cluster in narrow windows (data acked
  // while still in the device cache), so a small random sweep can miss
  // them. When it does, hunt deliberately: several seeds, crash points
  // stepped densely through the active workload.
  auto hunt_legacy_violation = [] {
    for (std::uint64_t seed = 1; seed <= 50; ++seed)
      for (sim::SimTime t = 2'000'000; t <= 30'000'000; t += 1'500'000)
        if (!chk::run_check(plain(StackKind::kExt4OD), seed, t).ok())
          return true;
    return false;
  };

  bool ok = true;
  for (StackKind kind : kKinds) {
    chk::CrashSweepResult r = sweep(plain(kind));
    if (kind == StackKind::kExt4OD && r.ok() && hunt_legacy_violation())
      r.failed_points = 1;  // found by the directed hunt
    ok = row(kind,
             strf("%6d | %6d | %8d | %9llu | %9llu | %5llu", r.points,
                  r.failed_points, r.quiesced_points,
                  (unsigned long long)r.acked_pages_checked,
                  (unsigned long long)r.order_writes_checked,
                  (unsigned long long)r.journal_wraps),
             {&r}) &&
         ok;
  }

  // ---- concurrent multi-writer sweep (DESIGN.md §9) ------------------------
  std::printf(
      "\nconcurrent sweep: %d crash points per stack, %u writers over "
      "shared fds\n",
      points, wl::ConcurrentWritersParams{}.writers);
  std::printf(
      "stack   | failed | acked pgs | order wrs | syncs | fd-cyc | "
      "close-in-sync | verdict\n");
  for (StackKind kind : kKinds) {
    const chk::CrashSweepResult r = sweep(conc(kind));
    ok = row(kind,
             strf("%6d | %9llu | %9llu | %5llu | %6llu | %13llu",
                  r.failed_points, (unsigned long long)r.acked_pages_checked,
                  (unsigned long long)r.order_writes_checked,
                  (unsigned long long)r.syncs_recorded,
                  (unsigned long long)r.fd_cycles,
                  (unsigned long long)r.closes_during_sync),
             {&r}) &&
         ok;
  }

  // ---- ring-driven concurrent sweep (DESIGN.md §10) ------------------------
  std::printf(
      "\nring sweep: %d crash points per stack, %u writers batching linked "
      "chains\n",
      points, wl::RingWorkloadParams{}.writers);
  std::printf(
      "stack   | failed | chain facts | acked pgs | order wrs | syncs | "
      "fd-cyc | verdict\n");
  for (StackKind kind : kKinds) {
    const chk::CrashSweepResult r = sweep(ring(kind));
    ok = row(kind,
             strf("%6d | %11llu | %9llu | %9llu | %5llu | %6llu",
                  r.failed_points, (unsigned long long)r.chain_facts_checked,
                  (unsigned long long)r.acked_pages_checked,
                  (unsigned long long)r.order_writes_checked,
                  (unsigned long long)r.syncs_recorded,
                  (unsigned long long)r.fd_cycles),
             {&r}) &&
         ok;
  }

  // ---- fault-injection sweep (DESIGN.md §11) -------------------------------
  std::printf(
      "\nfault-injection sweep: %d crash points per stack, seed-derived "
      "device fault plans\n",
      points);
  std::printf(
      "stack   | failed | faults | retries | io-fail | eio/erofs | degraded "
      "| verdict\n");
  for (StackKind kind : kKinds) {
    const chk::CrashSweepResult r = sweep(fault(kind));
    ok = row(kind,
             strf("%6d | %6llu | %7llu | %7llu | %9llu | %8d",
                  r.failed_points, (unsigned long long)r.faults_injected,
                  (unsigned long long)r.io_retries,
                  (unsigned long long)r.io_failures,
                  (unsigned long long)r.syncs_failed, r.degraded_points),
             {&r}) &&
         ok;
  }

  // ---- multi-queue sweeps: nr_queues=4 (DESIGN.md §14) ---------------------
  // The concurrent + fault flavours again, with four block-layer software
  // queues over the checker's 2-channel device: writer contexts spread
  // across queues, so the cross-queue epoch fence is on every barrier's
  // path. The clean stacks must stay clean; the nobarrier stack must stay
  // deterministically broken (queue count does not change what the device
  // promises).
  std::printf(
      "\nmulti-queue sweeps: nr_queues=4, %d crash points per stack "
      "(concurrent + fault flavours)\n",
      points);
  std::printf(
      "stack   | conc failed | fault failed | acked pgs | order wrs | "
      "verdict\n");
  for (StackKind kind : kKinds) {
    const chk::CrashSweepResult rc = sweep(conc(kind, 4));
    const chk::CrashSweepResult rf = sweep(fault(kind, 4));
    ok = row(kind,
             strf("%11d | %12d | %9llu | %9llu", rc.failed_points,
                  rf.failed_points,
                  (unsigned long long)rc.acked_pages_checked,
                  (unsigned long long)rc.order_writes_checked),
             {&rc, &rf}) &&
         ok;
  }

  // Negative control: complete failed IOs as successes (the injected bug)
  // and the same sweep seeds must now catch acked data never landing.
  {
    chk::SweepSpec swallow = fault(StackKind::kExt4DR);
    swallow.faults->swallow_io_errors = true;
    const bool caught = !chk::run_sweep(swallow, 20, 1, jobs).ok();
    ok = ok && caught;
    std::printf("negative control (swallowed EIO, EXT4-DR, 20 points): %s\n",
                caught ? "detected (oracle is load-bearing)"
                       : "NOT DETECTED (checker too weak?)");
  }

  // ---- multi-volume node: two independent journals, one power cut ----------
  const chk::SweepSpec node{.volumes = {StackKind::kBfsDR, StackKind::kExt4DR}};
  std::printf("\nmulti-volume node sweep: %d crash points, volumes:", points);
  for (StackKind k : node.volumes) std::printf(" %s", core::to_string(k));
  std::printf("\n");
  const chk::CrashSweepResult mv = sweep(node);
  for (std::size_t v = 0; v < mv.volumes.size(); ++v) {
    const chk::CrashSweepResult& r = mv.volumes[v];
    std::printf(
        "  v%zu %-7s | failed %d | acked pgs %llu | order wrs %llu | "
        "ns facts %llu | %s\n",
        v, core::to_string(node.volumes[v]), r.failed_points,
        (unsigned long long)r.acked_pages_checked,
        (unsigned long long)r.order_writes_checked,
        (unsigned long long)r.namespace_facts_checked,
        r.ok() ? "ok" : "VIOLATED");
  }
  ok = ok && mv.ok();
  for (const std::string& v : mv.sample_violations)
    std::printf("        ! %s\n", v.c_str());

  const double sweep_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sweep_t0)
          .count();
  std::printf("\ntotal sweep wall time: %.1fs (jobs=%d)\n", sweep_secs,
              sim::resolve_host_jobs(jobs));
  std::printf(
      "\nThe four barrier/durability stacks keep their guarantees across "
      "every\npower cut — single-writer and concurrent, per volume, even "
      "several\nheterogeneous volumes to a node; the legacy nobarrier stack "
      "demonstrably\ndoes not, which is the problem the barrier-enabled IO "
      "stack exists to fix.\n");
  return ok ? 0 : 1;
}
