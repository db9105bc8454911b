// Workload `bulk`: the paper's workload. One in-process Engine with the
// default plan ranks, plus-scans and affine-scans one random-layout list
// whose working set is past the L3. Leaves net/serve idle.
#include <algorithm>
#include <cstdio>
#include <utility>

#include "baselines/serial.hpp"
#include "common.hpp"
#include "core/engine.hpp"

namespace perfbench {
namespace {

using lr90::Engine;
using lr90::EngineOptions;
using lr90::Request;
using lr90::RunResult;

/// One timed Engine::run of `kind`, checked bit-exact. `last` receives
/// the run's statistics.
bool engine_call(Engine& engine, ListInput& in, Kind kind, Tracer& tracer,
                 std::uint64_t request, KindSamples* out,
                 lr90::RunStats* last = nullptr) {
  const bool wide = kind == Kind::kWide;
  if (wide) std::swap(in.list.value, in.wide_values);
  Request req;
  req.list = &in.list;
  req.rank = kind == Kind::kRank;
  req.op = wide ? lr90::ScanOp::kAffine : lr90::ScanOp::kPlus;
  const std::int64_t t0 = now_ns();
  RunResult r = engine.run(req);
  const std::int64_t t1 = now_ns();
  if (wide) std::swap(in.list.value, in.wide_values);
  if (tracer.on()) {
    const int root = tracer.record("client.call", t0, t1, -1, request);
    tracer.record("core.Engine::run", t0, t1, root, request);
  }
  const bool ok = r.ok() && r.scan == in.want[static_cast<int>(kind)];
  if (!ok)
    std::fprintf(stderr, "bulk: %s answer wrong (%s)\n", kind_name(kind),
                 r.status.message.c_str());
  if (out != nullptr) {
    const double n = static_cast<double>(in.list.size());
    const double wall = static_cast<double>(t1 - t0);
    const lr90::RunStats& s = r.stats;
    out->ns_per_elem.push_back(wall / n);
    out->start_ns.push_back(t0);
    out->build.push_back(s.host_build_ns / n);
    out->p1.push_back(s.host_phase1_ns / n);
    out->p2.push_back(s.host_phase2_ns / n);
    out->p3.push_back(s.host_phase3_ns / n);
    out->untimed.push_back((wall - s.host_build_ns - s.host_phase1_ns -
                            s.host_phase2_ns - s.host_phase3_ns) /
                           n);
  }
  if (last != nullptr) *last = r.stats;
  return ok;
}

/// analysis.*: the cost of a cold plan, and how far the default plan's
/// rank time lands from the best pinned (threads x W) packed cell.
void report_plan(const Engine& engine, ListInput& in, Tracer& tracer,
                 Report& report) {
  const std::size_t n = in.list.size();
  std::vector<double> decide_us;
  for (int i = 0; i < 5; ++i) {
    const lr90::Planner planner(engine.options());
    const std::int64_t t0 = now_ns();
    [[maybe_unused]] const auto d =
        planner.decide(n, lr90::Method::kAuto, true);
    const std::int64_t t1 = now_ns();
    tracer.record("analysis.Planner::decide", t0, t1, -1, 0);
    decide_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  report.layer("analysis.decide_us", median(decide_us), "us");

  // Every cell, the default plan included, is measured alike: a fresh
  // engine, one warm-up call, the faster of two timed calls.
  Tracer off(false);
  auto cell_ns = [&](const EngineOptions& opt) {
    Engine cell(opt);
    report.answer(engine_call(cell, in, Kind::kRank, off, 0, nullptr));
    KindSamples s;
    for (int i = 0; i < 2; ++i)
      report.answer(engine_call(cell, in, Kind::kRank, tracer, 0, &s));
    return std::min(s.ns_per_elem[0], s.ns_per_elem[1]);
  };
  const double auto_rank = cell_ns(engine.options());
  double best = 0.0;
  unsigned best_t = 0, best_w = 0;
  for (const unsigned t : {1u, 2u, 4u}) {
    for (const unsigned w : {4u, 8u, 16u, 32u}) {
      EngineOptions opt;
      opt.threads = t;
      opt.tier = lr90::KernelTier::kPackedCursors;
      opt.interleave = w;
      const double ns = cell_ns(opt);
      if (best == 0.0 || ns < best) {
        best = ns;
        best_t = t;
        best_w = w;
      }
    }
  }
  report.layer("analysis.plan_gap", auto_rank / best - 1.0, "ratio");
  report.layer("analysis.best_threads", best_t, "count");
  report.layer("analysis.best_w", best_w, "count");
  report.detail("analysis.auto_cell_ns_per_elem", auto_rank, "ns");
  report.detail("analysis.best_cell_ns_per_elem", best, "ns");
}

/// baselines.*: the serial walk over all-ones values is list ranking.
void report_serial(ListInput& in, double auto_rank, Tracer& tracer,
                   Report& report) {
  const std::size_t n = in.list.size();
  std::vector<value_t> ones(n, 1);
  std::vector<value_t> out(n, 0);
  std::swap(in.list.value, ones);
  const std::int64_t t0 = now_ns();
  lr90::serial_scan_host(in.list, out);
  const std::int64_t t1 = now_ns();
  std::swap(in.list.value, ones);
  tracer.record("baselines.serial_scan_host", t0, t1, -1, 0);
  const bool ok = out == in.want[0];
  report.answer(ok);
  if (!ok) std::fprintf(stderr, "bulk: serial baseline answer wrong\n");
  const double serial = static_cast<double>(t1 - t0) / static_cast<double>(n);
  report.layer("baselines.serial_ns_per_elem", serial, "ns");
  report.layer("core.rank.speedup_vs_serial", serial / auto_rank, "ratio");
}

/// 2^24 elements: a working set of about 320 MiB, past the 300 MiB L3 of
/// the machine the benchmark was sized on; 2^25 read the same ns/elem.
constexpr std::size_t kN = std::size_t{1} << 24;

}  // namespace

void run_bulk(const RunArgs& args, Tracer& tracer, Report& report) {
  const std::size_t n = kN;
  ListInput in;
  setup_list_input(in, n, args.seed, report);

  Engine engine;  // the default plan
  lr90::RunStats last[3];
  std::uint64_t allocs0 = 0;  // scratch growth counted after the warm-up
  const CallFn call = [&](Kind k, Tracer& t, std::uint64_t req,
                          KindSamples* out) {
    const bool ok = engine_call(engine, in, k, t, req, out,
                                &last[static_cast<int>(k)]);
    if (out == nullptr) allocs0 = engine.workspace().allocations();
    return ok;
  };
  const auto samples = measure_calls(call, n, args, tracer, report);
  const char* kn[] = {"rank", "scan", "wide"};
  for (int k = 0; k < 3; ++k)
    report.meta(std::string("tier_") + kn[k],
                lr90::kernel_tier_name(last[k].kernel_tier));

  if (args.trace) {
    for (int k = 0; k < 3; ++k) {
      const std::string p = std::string("core.") + kn[k] + ".";
      const KindSamples& s = samples[k];
      report.layer(p + "build_ns_per_elem", median(s.build), "ns");
      report.layer(p + "phase1_ns_per_elem", median(s.p1), "ns");
      report.layer(p + "phase2_ns_per_elem", median(s.p2), "ns");
      report.layer(p + "phase3_ns_per_elem", median(s.p3), "ns");
      report.layer(p + "untimed_ns_per_elem", median(s.untimed), "ns");
      report.layer(p + "threads", last[k].host_threads, "count");
      report.layer(p + "interleave", last[k].host_interleave, "count");
      report.layer(p + "tier", static_cast<double>(last[k].kernel_tier),
                   "code");
    }
    report.layer("core.workspace_allocs",
                 static_cast<double>(engine.workspace().allocations() -
                                     allocs0),
                 "count");
    const double auto_rank = median(samples[0].ns_per_elem);
    report_plan(engine, in, tracer, report);
    report_serial(in, auto_rank, tracer, report);
  }
  report.e2e("peak_rss_mib", peak_rss_mib(), "MiB");
  report.detail("peak_rss_mib", peak_rss_mib(), "MiB");
}

}  // namespace perfbench
