// The --repro grammar (chk::parse_repro / format_repro): every line form
// round-trips through SweepSpec, every malformed class is rejected, and a
// failing sweep point's printed line, parsed and replayed through
// chk::run_check, reproduces the same first violation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chk/crash_check.h"

namespace bio {
namespace {

using chk::SweepSpec;
using core::StackKind;

TEST(ReproGrammar, EveryFormRoundTrips) {
  const std::vector<std::string> exact = {
      "EXT4-DR:1:8",          "EXT4-OD:q4:1:8",
      "conc:BFS-DR:7:0",      "conc:BFS-DR:q2:7:0",
      "ring:OptFS:3:19",      "ring:OptFS:q64:3:19",
      "fault:BFS-OD:1:103",   "fault:BFS-OD:q4:1:103",
      "node:BFS-DR+OptFS:1:5", "node:BFS-OD+EXT4-OD+OptFS:q4:2:1000000",
  };
  for (const std::string& line : exact) {
    const std::optional<chk::Repro> r = chk::parse_repro(line);
    ASSERT_TRUE(r.has_value()) << line;
    EXPECT_EQ(chk::format_repro(r->spec, r->base_seed, r->point), line);
  }

  const std::optional<chk::Repro> conc =
      chk::parse_repro("conc:BFS-DR:q2:7:0");
  ASSERT_TRUE(conc.has_value());
  EXPECT_EQ(conc->spec, (SweepSpec{.volumes = {StackKind::kBfsDR},
                                   .workload = wl::ConcurrentWritersParams{},
                                   .nr_queues = 2}));
  EXPECT_EQ(conc->base_seed, 7u);
  EXPECT_EQ(conc->point, 0);
  const std::optional<chk::Repro> fault =
      chk::parse_repro("fault:BFS-OD:1:103");
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->spec, (SweepSpec{.volumes = {StackKind::kBfsOD},
                                    .faults = chk::FaultSpec{}}));
  const std::optional<chk::Repro> ring = chk::parse_repro("ring:OptFS:3:19");
  ASSERT_TRUE(ring.has_value());
  EXPECT_EQ(ring->spec, (SweepSpec{.volumes = {StackKind::kOptFs},
                                   .workload = wl::RingWorkloadParams{}}));

  // The bare node form means BFS-DR+EXT4-DR; printed lines name the kinds.
  for (const std::string q : {"", ":q4"}) {
    const std::optional<chk::Repro> r = chk::parse_repro("node" + q + ":1:5");
    ASSERT_TRUE(r.has_value()) << q;
    EXPECT_EQ(r->spec,
              (SweepSpec{.volumes = {StackKind::kBfsDR, StackKind::kExt4DR},
                         .nr_queues = q.empty() ? 1u : 4u}));
    EXPECT_EQ(chk::format_repro(r->spec, r->base_seed, r->point),
              "node:BFS-DR+EXT4-DR" + q + ":1:5");
  }
}

TEST(ReproGrammar, MalformedLinesAreRejected) {
  for (const char* bad : {
           // unknown prefix or stack
           "foo:EXT4-DR:1:8", "EXT4-XX:1:8", "conc:XX:1:8", "ext4-dr:1:8",
           "node:BFS-DR+XX:1:5",
           // empty or non-numeric fields
           "", ":1:8", "EXT4-DR::8", "EXT4-DR:1:", "EXT4-DR:x:8",
           "EXT4-DR:1:-8", "EXT4-DR:+1:8", "EXT4-DR:1:8 ", "EXT4-DR: 1:8",
           "EXT4-DR:12345678901234567890:8", "node:BFS-DR+:1:5",
           // wrong arity
           "EXT4-DR", "EXT4-DR:1", "conc:EXT4-DR:1", "EXT4-DR:1:2:3",
           "conc:EXT4-DR:q4:1:8:9", "conc:EXT4-DR:q4:q4:1:8", "node:1",
           "node:BFS-DR:1:5",
           // bad queue counts
           "EXT4-DR:q0:1:8", "EXT4-DR:qx:1:8", "EXT4-DR:q65:1:8",
           "EXT4-DR:q:1:8", "node:q0:1:5", "ring:OptFS:Q4:1:8",
           // point out of range
           "EXT4-DR:1:1000001", "node:1:99999999",
       })
    EXPECT_FALSE(chk::parse_repro(bad).has_value()) << "'" << bad << "'";
}

TEST(ReproGrammar, SpecsOutsideTheGrammarPrintNoLine) {
  EXPECT_EQ(chk::format_repro({.volumes = {StackKind::kBfsDR,
                                           StackKind::kOptFs},
                               .workload = wl::RingWorkloadParams{}},
                              1, 0),
            "");
  EXPECT_EQ(chk::format_repro({.volumes = {StackKind::kBfsDR},
                               .workload = wl::ConcurrentWritersParams{},
                               .faults = chk::FaultSpec{}},
                              1, 0),
            "");
}

/// Sweeps points [0, point] of `spec` at base 1, then replays point
/// `point` from the --repro line its sample violation printed and returns
/// the parsed spec. Expects the replay to reproduce the first violation
/// once `adjust` has been applied to the parsed spec.
SweepSpec replay_printed_line(const SweepSpec& spec, int point,
                              void (*adjust)(SweepSpec&) = nullptr) {
  const chk::CrashSweepResult sweep = chk::run_sweep(spec, point + 1, 1);
  const chk::CrashSweepResult::Failure* failure = nullptr;
  for (const auto& f : sweep.failures)
    if (f.point == point) failure = &f;
  EXPECT_NE(failure, nullptr) << "point " << point << " did not fail";
  if (failure == nullptr) return {};

  const std::string needle =
      "--repro " + chk::format_repro(spec, 1, point) + ")";
  std::string line;
  for (const std::string& s : sweep.sample_violations)
    if (s.find(" point=" + std::to_string(point) + ":") != std::string::npos)
      line = s;
  EXPECT_NE(line.find(needle), std::string::npos) << line;
  const std::size_t at = line.rfind("--repro ") + 8;
  const std::optional<chk::Repro> r =
      chk::parse_repro(line.substr(at, line.size() - at - 1));
  EXPECT_TRUE(r.has_value()) << line;
  if (!r) return {};
  EXPECT_EQ(r->base_seed, 1u);
  EXPECT_EQ(r->point, point);

  SweepSpec replay_spec = r->spec;
  if (adjust != nullptr) adjust(replay_spec);
  const chk::CrashCheckResult replay = chk::run_check(
      replay_spec, r->base_seed + static_cast<std::uint64_t>(r->point),
      chk::sweep_crash_at(r->base_seed, r->point));
  EXPECT_EQ(replay.seed, failure->seed);
  EXPECT_EQ(replay.crash_at, failure->crash_at);
  EXPECT_FALSE(replay.ok()) << "printed line did not replay the failure";
  if (!replay.ok()) {
    EXPECT_EQ(replay.violations.front(), failure->first_violation);
  }
  return r->spec;
}

TEST(ReproReplay, PrintedLinesReproduceTheFirstViolation) {
  const SweepSpec plain{.volumes = {StackKind::kExt4OD}};
  EXPECT_EQ(replay_printed_line(plain, 8), plain);
  const SweepSpec conc{.volumes = {StackKind::kExt4OD},
                       .workload = wl::ConcurrentWritersParams{}};
  EXPECT_EQ(replay_printed_line(conc, 6), conc);
  const SweepSpec ring{.volumes = {StackKind::kExt4OD},
                       .workload = wl::RingWorkloadParams{}};
  EXPECT_EQ(replay_printed_line(ring, 3), ring);
  const SweepSpec fault{.volumes = {StackKind::kExt4OD},
                        .faults = chk::FaultSpec{}};
  EXPECT_EQ(replay_printed_line(fault, 103), fault);
  // A node line names its stacks, so a node other than the historical
  // BFS-DR+EXT4-DR pair replays the stacks that failed.
  const SweepSpec node{.volumes = {StackKind::kBfsOD, StackKind::kExt4OD,
                                   StackKind::kOptFs}};
  EXPECT_EQ(replay_printed_line(node, 6), node);
}

TEST(ReproReplay, SwallowedEioControlReplaysWithItsOption) {
  // The line carries the flavour, stack and queue count, not the test-only
  // swallow option: the parsed spec is the default fault spec, and the
  // failure replays once the option is re-applied.
  const SweepSpec swallow{.volumes = {StackKind::kExt4DR},
                          .faults = chk::FaultSpec{.swallow_io_errors = true}};
  const chk::CrashSweepResult sweep = chk::run_sweep(swallow, 20, 1);
  ASSERT_FALSE(sweep.failures.empty()) << "negative control went blind";
  const int point = sweep.failures.front().point;
  const SweepSpec parsed =
      replay_printed_line(swallow, point, [](SweepSpec& s) {
        s.faults->swallow_io_errors = true;
      });
  EXPECT_EQ(parsed, (SweepSpec{.volumes = {StackKind::kExt4DR},
                               .faults = chk::FaultSpec{}}));
  EXPECT_TRUE(chk::run_check(parsed, 1 + static_cast<std::uint64_t>(point),
                             chk::sweep_crash_at(1, point))
                  .ok())
      << "without the injected bug the point should be clean";
}

}  // namespace
}  // namespace bio
