// Measurement ledger of one benchmark repetition.
//
// The driver times every call it makes into the stack from the outside:
// each api::Vfs / api::File / api::Ring call and each blk::BlockLayer call
// is bracketed by begin_call()/end_call(). Untraced repetitions keep only
// what the end-to-end metrics need (op and durability-call latencies in
// simulated time). Traced repetitions also keep per-call-type statistics,
// host-clock durations and one span per call plus one per op, written out
// at exit as Chrome trace-event JSON.
//
// The measured window is defined in counted ops (txns, flowops or block
// IOs, depending on the workload): it opens when op number `warmup` is
// issued and closes when op number `warmup + measured` is issued. At both
// instants the ledger stops the simulator, so the caller can snapshot layer
// counters and the host clock exactly at the boundary. A sample belongs to
// the window when its simulated start time lies inside it.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace perfbench {

using bio::sim::SimTime;

/// Host nanoseconds on a monotonic clock.
inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU nanoseconds the calling thread has run. The driver is one host
/// thread, so this is the simulator's own cost, without the time other
/// processes on a shared machine take from it.
inline std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Every call type the driver times. The metric prefix of each is
/// call_name(); api calls are "api.<call>", block-layer calls "blk.<op>".
enum class Call : std::uint8_t {
  kPwrite,
  kOrderPoint,
  kDurabilityPoint,
  kOpen,
  kClose,
  kUnlink,
  kRingSubmit,
  kRingWaitCqe,
  kRingWrite,
  kRingRead,
  kRingSync,
  kBlkWrite,
  kBlkRead,
  kBlkBarrier,
  kCount,
};
inline constexpr std::size_t kCallTypes =
    static_cast<std::size_t>(Call::kCount);
const char* call_name(Call c);

/// Nearest-rank percentile (p in [0, 100]) of `v`; sorts `v`. 0 when empty.
double percentile(std::vector<std::int64_t>& v, double p);

struct Span {
  const char* name = nullptr;
  std::uint64_t op = 0;
  /// Index + 1 of the parent span in Ledger::spans(); 0 for op spans.
  std::uint32_t parent = 0;
  std::uint32_t client = 0;
  std::int64_t host_start = 0;
  std::int64_t host_end = 0;
  SimTime sim_start = 0;
  SimTime sim_end = 0;
};

struct CallStats {
  std::uint64_t count = 0;
  std::vector<std::int64_t> sim_ns;
  std::vector<std::int64_t> host_ns;
};

/// A traced op: the unit every call span is parented to.
struct OpRef {
  std::uint64_t id = 0;
  std::uint32_t span = 0;  // index + 1 in spans(); 0 = not recorded
  std::uint32_t client = 0;
};

struct CallTicket {
  Call call = Call::kCount;
  OpRef op;
  SimTime sim_start = 0;
  std::int64_t host_start = 0;
};

class Ledger {
 public:
  Ledger(bio::sim::Simulator& sim, bool traced, std::uint64_t warmup,
         std::uint64_t measured)
      : sim_(sim), traced_(traced), warmup_(warmup), measured_(measured) {}

  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  // ---- window ------------------------------------------------------------

  /// Counts the issue of one counted op; stops the simulator at the two
  /// window boundaries.
  void count_issue();
  /// False once the window has closed: clients issue no further ops.
  bool issuing() const noexcept { return !closed_; }
  bool window_open() const noexcept {
    return opened_ && !closed_;
  }
  bool in_window(SimTime t) const noexcept {
    return opened_ && t >= win_start_ && (!closed_ || t < win_end_);
  }
  SimTime window_start() const noexcept { return win_start_; }
  SimTime window_end() const noexcept { return win_end_; }

  // ---- ops and calls -----------------------------------------------------

  /// Opens a traced op (a txn, a varmail flow step, one block IO).
  OpRef begin_op(const char* name, std::uint32_t client);
  void end_op(const OpRef& op);

  CallTicket begin_call(Call c, const OpRef& op) {
    CallTicket t{c, op, sim_.now(), 0};
    if (traced_) t.host_start = host_ns();
    return t;
  }
  /// Closes a call. `counted` marks a counted op (its latency is an op
  /// sample); `durability` marks the app's durability call. Failed calls
  /// count against the failed-op total.
  void end_call(const CallTicket& t, bool ok, bool counted = false,
                bool durability = false);

  /// Latency sample of a counted op that is not a single call (a txn).
  void op_sample(SimTime start, bool ok);

  // ---- results -----------------------------------------------------------

  std::vector<std::int64_t>& op_ns() noexcept { return op_ns_; }
  std::vector<std::int64_t>& durability_ns() noexcept { return dur_ns_; }
  std::array<CallStats, kCallTypes>& calls() noexcept { return calls_; }
  std::vector<Span>& spans() noexcept { return spans_; }
  std::uint64_t attempted() const noexcept { return attempted_; }
  std::uint64_t failed() const noexcept { return failed_; }
  /// Pages the clients asked to write inside the window (write-amp base).
  std::uint64_t& user_pages() noexcept { return user_pages_; }
  std::uint64_t& ring_submits() noexcept { return ring_submits_; }
  std::uint64_t& ring_sqes() noexcept { return ring_sqes_; }

 private:
  std::uint32_t push_span(const char* name, std::uint64_t op,
                          std::uint32_t parent, std::uint32_t client,
                          std::int64_t host_start, SimTime sim_start);

  bio::sim::Simulator& sim_;
  const bool traced_;
  const std::uint64_t warmup_;
  const std::uint64_t measured_;
  std::uint64_t issued_ = 0;
  std::uint64_t next_op_ = 1;
  bool opened_ = false;
  bool closed_ = false;
  SimTime win_start_ = 0;
  SimTime win_end_ = 0;

  std::vector<std::int64_t> op_ns_;
  std::vector<std::int64_t> dur_ns_;
  std::array<CallStats, kCallTypes> calls_;
  std::vector<Span> spans_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t user_pages_ = 0;
  std::uint64_t ring_submits_ = 0;
  std::uint64_t ring_sqes_ = 0;
};

/// Self time per span name: a span's duration minus the part of it its
/// child spans cover. Rows are (name, spans, total self host ns).
struct SelfTime {
  std::string name;
  std::uint64_t spans = 0;
  std::int64_t self_ns = 0;
};
std::vector<SelfTime> self_times(const std::vector<Span>& spans);

/// Writes the first `limit` of `spans` as Chrome trace-event JSON ("X"
/// events, host microseconds on the time axis, simulated times in args).
/// False on IO failure.
bool write_chrome_trace(const std::vector<Span>& spans, std::size_t limit,
                        const char* path);

}  // namespace perfbench
