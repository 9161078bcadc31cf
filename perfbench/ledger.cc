#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

namespace perfbench {

const char* call_name(Call c) {
  switch (c) {
    case Call::kPwrite: return "api.pwrite";
    case Call::kOrderPoint: return "api.order_point";
    case Call::kDurabilityPoint: return "api.durability_point";
    case Call::kOpen: return "api.open";
    case Call::kClose: return "api.close";
    case Call::kUnlink: return "api.unlink";
    case Call::kRingSubmit: return "api.ring_submit";
    case Call::kRingWaitCqe: return "api.ring_wait_cqe";
    case Call::kRingWrite: return "api.ring_write";
    case Call::kRingRead: return "api.ring_read";
    case Call::kRingSync: return "api.ring_sync";
    case Call::kBlkWrite: return "blk.write";
    case Call::kBlkRead: return "blk.read";
    case Call::kBlkBarrier: return "blk.barrier";
    case Call::kCount: break;
  }
  return "?";
}

double percentile(std::vector<std::int64_t>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank =
      static_cast<std::size_t>(p / 100.0 * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  return static_cast<double>(v[rank]);
}

void Ledger::count_issue() {
  const std::uint64_t n = issued_++;
  if (n == warmup_) {
    opened_ = true;
    win_start_ = sim_.now();
    sim_.stop();
  } else if (n == warmup_ + measured_) {
    closed_ = true;
    win_end_ = sim_.now();
    sim_.stop();
  }
}

std::uint32_t Ledger::push_span(const char* name, std::uint64_t op,
                                std::uint32_t parent, std::uint32_t client,
                                std::int64_t host_start, SimTime sim_start) {
  spans_.push_back(Span{name, op, parent, client, host_start, host_start,
                        sim_start, sim_start});
  return static_cast<std::uint32_t>(spans_.size());
}

OpRef Ledger::begin_op(const char* name, std::uint32_t client) {
  OpRef op{next_op_++, 0, client};
  if (traced_ && window_open())
    op.span = push_span(name, op.id, 0, client, host_ns(), sim_.now());
  return op;
}

void Ledger::end_op(const OpRef& op) {
  if (op.span == 0) return;
  Span& s = spans_[op.span - 1];
  s.host_end = host_ns();
  s.sim_end = sim_.now();
}

void Ledger::end_call(const CallTicket& t, bool ok, bool counted,
                      bool durability) {
  if (!in_window(t.sim_start)) return;
  const SimTime now = sim_.now();
  const auto sim_dur = static_cast<std::int64_t>(now - t.sim_start);
  if (counted) {
    ++attempted_;
    op_ns_.push_back(sim_dur);
  }
  if (!ok) ++failed_;
  if (durability) dur_ns_.push_back(sim_dur);
  if (!traced_) return;
  const std::int64_t host_end = host_ns();
  CallStats& cs = calls_[static_cast<std::size_t>(t.call)];
  ++cs.count;
  cs.sim_ns.push_back(sim_dur);
  cs.host_ns.push_back(host_end - t.host_start);
  const std::uint32_t idx = push_span(call_name(t.call), t.op.id, t.op.span,
                                      t.op.client, t.host_start, t.sim_start);
  spans_[idx - 1].host_end = host_end;
  spans_[idx - 1].sim_end = now;
}

void Ledger::op_sample(SimTime start, bool ok) {
  if (!in_window(start)) return;
  ++attempted_;
  if (!ok) ++failed_;
  op_ns_.push_back(static_cast<std::int64_t>(sim_.now() - start));
}

std::vector<SelfTime> self_times(const std::vector<Span>& spans) {
  // Covered host time per span, from its children clipped to its interval.
  // Children of one parent never overlap each other (one client makes one
  // call at a time), except ring sqes, which run concurrently; clipping
  // keeps a parent's self time from going negative either way.
  std::vector<std::int64_t> covered(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const Span& p = spans[s.parent - 1];
    const std::int64_t lo = std::max(s.host_start, p.host_start);
    const std::int64_t hi = std::min(s.host_end, p.host_end);
    if (hi > lo) covered[s.parent - 1] += hi - lo;
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SelfTime& row = by_name[spans[i].name];
    row.name = spans[i].name;
    ++row.spans;
    const std::int64_t dur = spans[i].host_end - spans[i].host_start;
    row.self_ns += std::max<std::int64_t>(0, dur - covered[i]);
  }
  std::vector<SelfTime> out;
  for (auto& [name, row] : by_name) out.push_back(row);
  return out;
}

bool write_chrome_trace(const std::vector<Span>& spans, std::size_t limit,
                        const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  const std::size_t n = std::min(limit, spans.size());
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().host_start;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(
        f,
        "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
        "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, "
        "\"op\": %llu, \"parent\": %u, \"sim_start_us\": %.3f, "
        "\"sim_end_us\": %.3f}}%s\n",
        s.name, std::strncmp(s.name, "op.", 3) == 0 ? "op" : "call", s.client,
        static_cast<double>(s.host_start - t0) / 1e3,
        static_cast<double>(s.host_end - s.host_start) / 1e3, i + 1,
        static_cast<unsigned long long>(s.op), s.parent,
        static_cast<double>(s.sim_start) / 1e3,
        static_cast<double>(s.sim_end) / 1e3,
        i + 1 < n ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
