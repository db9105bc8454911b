// Workload `out_of_core`: a list ranked and scanned through
// shard::sharded_scan with P shards and a resident byte budget of a few
// shards, spilling to a directory inside the benchmark's scratch space.
// The only workload that runs the shard layer.
#include <unistd.h>

#include <cstdio>
#include <string>
#include <utility>

#include "common.hpp"
#include "core/engine.hpp"
#include "shard/sharded.hpp"

namespace perfbench {
namespace {

struct ShardCounters {
  std::uint64_t loads = 0, spills = 0, prefetch_hits = 0, segments = 0;
};

/// One timed sharded_scan of `kind` under `exec`, checked bit-exact.
bool shard_call(const lr90::shard::ShardExec& exec, lr90::Workspace& ws,
                ListInput& in, Kind kind, Tracer& tracer,
                std::uint64_t request, KindSamples* out,
                ShardCounters* counters) {
  const bool wide = kind == Kind::kWide;
  if (wide) std::swap(in.list.value, in.wide_values);
  std::vector<value_t> answer(in.list.size());
  lr90::shard::ShardRunStats ss;
  const std::int64_t t0 = now_ns();
  const lr90::Status st = lr90::shard::sharded_scan(
      in.list, kind == Kind::kRank,
      wide ? lr90::ScanOp::kAffine : lr90::ScanOp::kPlus, exec, ws, answer,
      ss);
  const std::int64_t t1 = now_ns();
  if (wide) std::swap(in.list.value, in.wide_values);
  if (tracer.on()) {
    const int root = tracer.record("client.call", t0, t1, -1, request);
    tracer.record("shard.sharded_scan", t0, t1, root, request);
  }
  const bool ok = st.ok() && answer == in.want[static_cast<int>(kind)];
  if (!ok)
    std::fprintf(stderr, "out_of_core: %s answer wrong (%s)\n",
                 kind_name(kind), st.message.c_str());
  if (out != nullptr) {
    out->ns_per_elem.push_back(static_cast<double>(t1 - t0) /
                               static_cast<double>(in.list.size()));
    out->start_ns.push_back(t0);
  }
  if (counters != nullptr && out != nullptr) {
    counters->loads += ss.store.loads;
    counters->spills += ss.store.spills;
    counters->prefetch_hits += ss.store.prefetch_hits;
    counters->segments += ss.segments;
  }
  return ok;
}

/// 2^20 elements, not the bulk size: on a random list nearly every element
/// starts a cross-shard segment, so the sharded path costs ~370 ns/elem and
/// 2^24 would leave a run too few calls to take a median over.
constexpr std::size_t kN = std::size_t{1} << 20;
/// 8 shards with a resident budget of 2 forces a spill and a reload of
/// most shards on every pass.
constexpr unsigned kShards = 8;
constexpr double kBudgetShards = 2.0;

}  // namespace

void run_out_of_core(const RunArgs& args, Tracer& tracer, Report& report) {
  const std::size_t n = kN;
  ListInput in;
  setup_list_input(in, n, args.seed, report);

  // The execution shape the Engine's planner gives a pinned shard count.
  lr90::EngineOptions opt;
  opt.shard.shards = kShards;
  const std::size_t list_bytes = n * (sizeof(index_t) + sizeof(value_t));
  opt.shard.byte_budget = static_cast<std::size_t>(
      kBudgetShards * static_cast<double>(list_bytes) / kShards);
  const lr90::Planner::Decision d =
      lr90::Planner(opt).decide(n, lr90::Method::kAuto, true);
  lr90::shard::ShardExec exec;
  exec.shards = d.shard_count;
  exec.threads = std::max(1u, d.threads);
  exec.interleave = d.interleave;
  exec.byte_budget = opt.shard.byte_budget;
  exec.spill_dir = args.scratch + "/spill-" + std::to_string(::getpid());
  exec.keep_files = false;  // every call writes its shards afresh
  report.meta("shards", static_cast<double>(exec.shards));
  report.meta("byte_budget", static_cast<double>(exec.byte_budget));
  report.detail("shards", exec.shards, "count");
  report.detail("shard_threads", exec.threads, "count");
  report.detail("shard_interleave", exec.interleave, "count");
  report.detail("byte_budget_mib",
                static_cast<double>(exec.byte_budget) / (1 << 20), "MiB");

  lr90::Workspace ws;
  ShardCounters counters;
  const CallFn call = [&](Kind k, Tracer& t, std::uint64_t req,
                          KindSamples* out) {
    return shard_call(exec, ws, in, k, t, req, out,
                      t.on() && k == Kind::kRank ? &counters : nullptr);
  };
  const auto samples = measure_calls(call, n, args, tracer, report);

  if (args.trace) {
    const double runs = static_cast<double>(samples[0].ns_per_elem.size());
    report.layer("shard.loads", static_cast<double>(counters.loads) / runs,
                 "count");
    report.layer("shard.spills", static_cast<double>(counters.spills) / runs,
                 "count");
    report.layer("shard.prefetch_hit_ratio",
                 counters.loads == 0
                     ? 0.0
                     : static_cast<double>(counters.prefetch_hits) /
                           static_cast<double>(counters.loads),
                 "ratio");
    report.layer("shard.segments",
                 static_cast<double>(counters.segments) / runs, "count");
    // The same rank with everything resident: the spill tier's price.
    lr90::shard::ShardExec ram = exec;
    ram.byte_budget = 0;
    Tracer off(false);
    report.answer(shard_call(ram, ws, in, Kind::kRank, off, 0, nullptr,
                             nullptr));
    KindSamples s;
    for (int i = 0; i < 3; ++i)
      report.answer(shard_call(ram, ws, in, Kind::kRank, off, 0, &s,
                               nullptr));
    report.layer("shard.spill_overhead",
                 median(samples[0].ns_per_elem) / median(s.ns_per_elem),
                 "ratio");
  }
  report.e2e("peak_rss_mib", peak_rss_mib(), "MiB");
  report.detail("peak_rss_mib", peak_rss_mib(), "MiB");
}

}  // namespace perfbench
