// Single-threaded discrete-event simulator driving sim::Task coroutines.
//
// Simulated threads are spawned with Simulator::spawn(); they advance
// simulated time by awaiting Simulator::delay() (modelling computation or
// device busy time) and block on synchronization primitives (sim/sync.h)
// which model sleeping. A thread that blocks and is later woken incurs a
// *context switch*: the wake is delayed by Params::wake_latency and the
// thread's ThreadCtx::context_switches counter is incremented. This mirrors
// how the paper counts "application level context switches" (Fig 11).
//
// Thread lifecycle (DESIGN.md §15): memory is bounded by peak concurrency,
// not by the number of threads ever spawned. A ThreadCtx comes from a free
// list and goes back to it when its thread finishes, unless a Thread handle
// still pins it. spawn() returns such a handle; a pinned context keeps its
// fields and is never reused, so reading or joining a finished thread
// through a handle stays valid. At finish, the thread's count and context
// switches are folded into per-name totals, which is what
// total_context_switches() and thread_count() sum together with the live
// threads.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/check.h"
#include "sim/task.h"
#include "sim/time.h"

namespace bio::sim {

class Simulator;

/// Bookkeeping for one simulated thread (one top-level Task). Contexts are
/// recycled: hold a Thread handle to keep one readable after its thread
/// finishes.
struct ThreadCtx {
  std::string name;
  /// Spawn ordinal, unique within one Simulator (0, 1, 2, ... in spawn
  /// order). Deterministic for a given workload, so per-context consumers
  /// (the multi-queue block layer's software-queue routing) can key on it.
  std::uint64_t id = 0;
  /// Number of times this thread blocked on a primitive and was woken.
  std::uint64_t context_switches = 0;
  /// Number of times this thread entered a blocked state.
  std::uint64_t blocks = 0;
  bool finished = false;
  /// Overrides Params::wake_latency for this thread. Hardware actors
  /// (storage controller state machines) set this to 0: they are not
  /// scheduled by the host OS.
  std::optional<SimTime> wake_latency;

  struct JoinWaiter {
    std::coroutine_handle<> handle;
    ThreadCtx* waiter_thread;
  };
  std::vector<JoinWaiter> join_waiters;

 private:
  friend class Simulator;
  friend class Thread;
  Simulator* sim_ = nullptr;
  /// Top-level frame while the thread runs; destroyed on teardown.
  std::coroutine_handle<> frame_;
  /// Live Thread handles; a finished context is reused only at zero.
  std::uint32_t pins_ = 0;
};

/// Handle to a spawned thread that pins its ThreadCtx: while any handle
/// exists the context is not reused, so its fields stay those of this
/// thread and join() on it returns at once after it finishes. Cheap to
/// drop: call sites that only set wake_latency discard it at once. A
/// handle must not outlive its Simulator.
class Thread {
 public:
  Thread() = default;
  Thread(const Thread& other) noexcept : ctx_(other.ctx_) { pin(); }
  Thread(Thread&& other) noexcept : ctx_(std::exchange(other.ctx_, nullptr)) {}
  Thread& operator=(Thread other) noexcept {
    std::swap(ctx_, other.ctx_);
    return *this;
  }
  ~Thread() { reset(); }

  ThreadCtx* get() const noexcept { return ctx_; }
  ThreadCtx* operator->() const noexcept { return ctx_; }

  /// Drops the pin (the context is recycled if its thread has finished
  /// and no other handle holds it).
  void reset() noexcept;

 private:
  friend class Simulator;
  explicit Thread(ThreadCtx* ctx) noexcept : ctx_(ctx) { pin(); }
  void pin() noexcept {
    if (ctx_ != nullptr) ++ctx_->pins_;
  }
  ThreadCtx* ctx_ = nullptr;
};

class Simulator {
 public:
  struct Params {
    /// Scheduler latency charged whenever a blocked thread is woken.
    SimTime wake_latency = 0;
  };

  Simulator() : Simulator(Params{}) {}
  explicit Simulator(Params params) : params_(params) {}
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const noexcept { return now_; }
  const Params& params() const noexcept { return params_; }

  /// Starts `task` as a new simulated thread named `name`. The thread's
  /// first instruction runs at the current simulated time (after already
  /// pending events at that time).
  Thread spawn(std::string name, Task task);

  /// Runs until the event queue drains or stop() is called. Rethrows the
  /// first exception that escaped any simulated thread.
  void run();

  /// Processes all events with timestamp <= `t`, then sets now() = t.
  void run_until(SimTime t);

  /// Makes run()/run_until() return after the current event completes.
  void stop() noexcept { stopped_ = true; }

  bool has_pending_events() const noexcept { return !queue_.empty(); }

  // ---- awaitables -------------------------------------------------------

  struct DelayAwaiter {
    Simulator& sim;
    SimTime duration;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      sim.schedule_resume(sim.now_ + duration, h, sim.current_, false);
    }
    void await_resume() const noexcept {}
  };

  /// Advances this simulated thread's clock by `d` (models CPU work or a
  /// synchronous device wait that does NOT count as a context switch).
  DelayAwaiter delay(SimTime d) noexcept { return DelayAwaiter{*this, d}; }

  /// Lets other runnable activities at the same timestamp proceed.
  DelayAwaiter yield() noexcept { return DelayAwaiter{*this, 0}; }

  struct JoinAwaiter {
    Simulator& sim;
    /// Pins the target for the length of the wait.
    Thread target;
    bool await_ready() const noexcept { return target->finished; }
    void await_suspend(std::coroutine_handle<> h) const {
      ThreadCtx* cur = sim.current_;
      if (cur != nullptr) ++cur->blocks;
      target->join_waiters.push_back({h, cur});
    }
    void await_resume() const noexcept {}
  };

  /// Blocks the calling simulated thread until `target` finishes.
  JoinAwaiter join(const Thread& target) noexcept {
    return JoinAwaiter{*this, target};
  }

  // ---- scheduling internals (used by sim/sync.h primitives) -------------

  /// Schedules `h` to resume at absolute time `at` on thread `thr`.
  /// `is_wakeup` marks the resume as the end of a blocking wait.
  void schedule_resume(SimTime at, std::coroutine_handle<> h, ThreadCtx* thr,
                       bool is_wakeup);

  /// Schedules `h` to resume after the woken thread's wake latency and
  /// counts a context switch for it.
  void schedule_wakeup(std::coroutine_handle<> h, ThreadCtx* thr) {
    const SimTime latency = thr != nullptr && thr->wake_latency.has_value()
                                ? *thr->wake_latency
                                : params_.wake_latency;
    schedule_resume(now_ + latency, h, thr, true);
  }

  /// Schedules a plain callback (no coroutine) at absolute time `at`.
  void schedule_call(SimTime at, std::function<void()> fn);

  /// The simulated thread currently executing, or nullptr outside run().
  ThreadCtx* current_thread() const noexcept { return current_; }

  /// Called from Task::FinalAwaiter when a top-level task finishes.
  void on_top_level_done(ThreadCtx* thr, std::exception_ptr error);

  /// Total context switches across all threads whose name starts with
  /// `prefix` (empty prefix = all threads).
  std::uint64_t total_context_switches(std::string_view prefix = {}) const;

  /// Number of live + finished threads whose name starts with `prefix`.
  std::uint64_t thread_count(std::string_view prefix = {}) const;

  /// ThreadCtx objects allocated so far: live threads plus pinned and free
  /// contexts. Bounded by peak concurrency plus pinned handles.
  std::size_t context_pool_size() const noexcept { return pool_.size(); }

  /// Total events the loop has dispatched (resumes + callbacks) — the
  /// denominator for events/sec in the perf suite.
  std::uint64_t events_dispatched() const noexcept {
    return events_dispatched_;
  }

 private:
  /// Compact POD heap entry (32 bytes). Plain coroutine resumes — the vast
  /// majority of events — carry no callable; the rare schedule_call()
  /// callbacks live in a side table and the entry stores their slot.
  struct Scheduled {
    SimTime at;
    std::uint64_t seq;
    /// Coroutine frame address; nullptr marks a callback entry.
    void* frame;
    /// Resumes: ThreadCtx* with the wakeup flag in bit 0 (ThreadCtx is
    /// heap-allocated, so bit 0 of its address is free). Callbacks: the
    /// callback-slot index.
    std::uintptr_t aux;
  };
  static constexpr std::uintptr_t kWakeupBit = 1;

  /// Min-heap on (at, seq) over a flat vector of POD entries. Hand-rolled so
  /// pop moves 32-byte PODs into a hole instead of running a comparator
  /// functor through std::priority_queue's generic machinery.
  class EventHeap {
   public:
    bool empty() const noexcept { return v_.empty(); }
    std::size_t size() const noexcept { return v_.size(); }
    const Scheduled& top() const noexcept { return v_.front(); }
    void clear() noexcept { v_.clear(); }

    void push(const Scheduled& ev) {
      v_.push_back(ev);
      std::size_t i = v_.size() - 1;
      while (i > 0) {
        const std::size_t parent = (i - 1) / 2;
        if (!before(v_[i], v_[parent])) break;
        std::swap(v_[i], v_[parent]);
        i = parent;
      }
    }

    Scheduled pop() {
      Scheduled out = v_.front();
      Scheduled last = v_.back();
      v_.pop_back();
      if (!v_.empty()) {
        // Sift the hole down, then drop `last` in.
        std::size_t i = 0;
        const std::size_t n = v_.size();
        for (;;) {
          std::size_t child = 2 * i + 1;
          if (child >= n) break;
          if (child + 1 < n && before(v_[child + 1], v_[child])) ++child;
          if (!before(v_[child], last)) break;
          v_[i] = v_[child];
          i = child;
        }
        v_[i] = last;
      }
      return out;
    }

   private:
    static bool before(const Scheduled& a, const Scheduled& b) noexcept {
      if (a.at != b.at) return a.at < b.at;
      return a.seq < b.seq;
    }
    std::vector<Scheduled> v_;
  };

  void dispatch(const Scheduled& ev);

  friend class Thread;
  /// Returns a finished, unpinned context to the free list.
  void recycle(ThreadCtx* ctx) noexcept { free_.push_back(ctx); }

  Params params_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_dispatched_ = 0;
  bool stopped_ = false;
  EventHeap queue_;
  /// Slot table for schedule_call() callables (freelist-recycled).
  std::vector<std::function<void()>> callbacks_;
  std::vector<std::uint32_t> free_callback_slots_;
  ThreadCtx* current_ = nullptr;
  std::uint64_t next_thread_id_ = 0;
  /// Every context ever allocated; free_ lists the reusable ones.
  std::vector<std::unique_ptr<ThreadCtx>> pool_;
  std::vector<ThreadCtx*> free_;
  /// Per-name totals of finished threads.
  struct NameTotals {
    std::uint64_t threads = 0;
    std::uint64_t context_switches = 0;
  };
  std::unordered_map<std::string, NameTotals> finished_totals_;
  std::exception_ptr failure_;
};

inline void Thread::reset() noexcept {
  ThreadCtx* ctx = std::exchange(ctx_, nullptr);
  if (ctx != nullptr && --ctx->pins_ == 0 && ctx->finished)
    ctx->sim_->recycle(ctx);
}

}  // namespace bio::sim
