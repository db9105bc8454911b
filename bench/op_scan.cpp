// Operator-layer overhead gate: the generic associative-operator path
// must cost no more than 5% over the hard-coded sum scan.
//
// Three tiers of the same sum scan over one random list:
//
//   hard-coded   host_exec::scan_into(list, OpPlus{}, ...) -- the operator
//                inlined at compile time, the fastest the kernel gets;
//   dispatched   with_scan_op(ScanOp::kPlus, ...) around the same kernel
//                call -- adds the one runtime switch per run that every
//                OpRequest pays;
//   engine       Engine::run(OpRequest{...}) -- the full facade: planner
//                decision, result allocation, stats.
//
// Every tier produces a fresh result vector per run (the Engine's API
// contract), so the comparison isolates the dispatch machinery rather
// than the allocator.
//
// The gate: the dispatched and engine medians must stay within 5% of the
// hard-coded median (OP_SCAN_LENIENT=1 downgrades a miss to a warning for
// noisy shared runners). Also prints the ns/vertex of every registered
// operator through the engine, and gates the two-lane operators (seg-sum,
// affine, max-plus, whose values fill all 64 bits) at 1.3x the plus scan:
// one slab kernel serves every operator, so no operator may fall back to
// a slow path.
//
// A fourth tier gates the fault-injection framework's disabled fast path
// (support/faultpoint.hpp): the dispatched scan plus one disabled
// FaultSite::fire() check per 1024 vertices -- far denser than any
// fault site in the library, which sit at allocation and socket edges,
// not in the kernels -- must stay within 1% of the plain dispatched
// tier, so production binaries carry the chaos hooks for free.
//
//   $ ./op_scan [n] [reps]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/engine.hpp"
#include "core/host_exec.hpp"
#include "lists/generators.hpp"
#include "lists/ops.hpp"
#include "support/bench_json.hpp"
#include "support/faultpoint.hpp"

namespace {

using namespace lr90;
using Clock = std::chrono::steady_clock;

/// Never armed: measures exactly what every production fault site costs
/// while injection is globally disabled.
fault::FaultSite g_probe{"bench.op_scan.probe",
                         "disabled-overhead probe (never armed)"};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

template <class F>
double time_once(F&& f) {
  const auto t0 = Clock::now();
  f();
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2000000;
  const std::size_t reps = std::max<std::size_t>(
      1, argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 9);
  const bool lenient = std::getenv("OP_SCAN_LENIENT") != nullptr;
  // Keeps the faultpoint 1% gate hard even under OP_SCAN_LENIENT: the
  // faulted and dispatched tiers run the same kernel interleaved, so
  // their ratio is robust where the machine-relative 5% gates are not.
  const bool fault_strict = std::getenv("OP_SCAN_FAULT_STRICT") != nullptr;

  Rng rng(41);
  const LinkedList list = random_list(n, rng, ValueInit::kSigned);

  Engine engine({.backend = BackendKind::kHost});

  // The hard-coded reference runs the kernel exactly as the engine's host
  // backend does: same plan (threads, sublists, interleave width), same
  // workspace discipline -- so the tiers differ only by dispatch layers.
  Workspace ws;
  const Planner::Decision decision =
      engine.planner().decide(n, Method::kAuto, /*rank=*/false);
  host_exec::HostPlan plan;
  if (decision.method == Method::kReidMiller) {
    plan.threads = decision.threads;
    plan.sublists = static_cast<std::size_t>(decision.sublists);
    plan.interleave = decision.interleave;
  }

  // Every tier returns a fresh result vector (the API contract); the
  // volatile sink keeps the runs observable.
  volatile value_t sink = 0;
  auto run_hard = [&] {
    std::vector<value_t> res(n);
    host_exec::scan_into(list, OpPlus{}, plan, ws, std::span<value_t>(res));
    sink = res[list.head];
  };
  auto run_dispatched = [&] {
    std::vector<value_t> res(n);
    with_scan_op(ScanOp::kPlus, [&](auto op) {
      host_exec::scan_into(list, op, plan, ws, std::span<value_t>(res));
    });
    sink = res[list.head];
  };
  auto run_engine = [&] {
    const RunResult r = engine.run(OpRequest{&list, ScanOp::kPlus});
    if (!r.ok()) {
      std::fprintf(stderr, "engine run failed: %s\n",
                   r.status.message.c_str());
      std::exit(1);
    }
    sink = r.scan[list.head];
  };
  auto run_faulted = [&] {
    std::vector<value_t> res(n);
    with_scan_op(ScanOp::kPlus, [&](auto op) {
      host_exec::scan_into(list, op, plan, ws, std::span<value_t>(res));
    });
    // The disabled fast path, one check per 1024 vertices.
    bool fired = false;
    for (std::size_t i = 0; i < n; i += 1024) fired |= g_probe.fire();
    if (fired) std::exit(2);  // unreachable: the probe is never armed
    sink = res[list.head];
  };

  // Warm every path (page-in, workspace growth), then interleave the reps
  // so drift hits all tiers equally.
  run_hard();
  run_dispatched();
  run_engine();
  run_faulted();
  std::vector<double> hard, dispatched, eng, faulted;
  for (std::size_t i = 0; i < reps; ++i) {
    hard.push_back(time_once(run_hard));
    dispatched.push_back(time_once(run_dispatched));
    eng.push_back(time_once(run_engine));
    faulted.push_back(time_once(run_faulted));
  }
  const double h = median(hard), d = median(dispatched), e = median(eng);
  const double f = median(faulted);

  // Micro-cost of one disabled fire(): a relaxed load plus a branch.
  constexpr std::size_t kFireCalls = 1u << 24;
  const double fire_ms = time_once([&] {
    bool any = false;
    for (std::size_t i = 0; i < kFireCalls; ++i) any |= g_probe.fire();
    if (any) std::exit(2);
  });

  std::printf("sum scan over %zu vertices, %zu reps (median ms):\n", n,
              reps);
  std::printf("  %-22s %8.2f ms  %6.2f ns/vertex\n", "hard-coded kernel", h,
              h * 1e6 / static_cast<double>(n));
  std::printf("  %-22s %8.2f ms  %+6.2f%% vs hard-coded\n",
              "with_scan_op dispatch", d, (d / h - 1.0) * 100.0);
  std::printf("  %-22s %8.2f ms  %+6.2f%% vs hard-coded\n",
              "Engine OpRequest", e, (e / h - 1.0) * 100.0);
  std::printf("  %-22s %8.2f ms  %+6.2f%% vs dispatch\n",
              "dispatch + faultpoints", f, (f / d - 1.0) * 100.0);
  std::printf("  disabled fire(): %.2f ns/call over %zu calls\n",
              fire_ms * 1e6 / static_cast<double>(kFireCalls), kFireCalls);

  BenchJson json("op_scan");
  stamp_provenance(json);
  json.meta("n", static_cast<double>(n));
  json.meta("reps", static_cast<double>(reps));
  json.meta("workload", "random-permutation list, signed values");
  auto tier_row = [&](const char* tier, double ms) {
    json.row();
    json.field("tier", tier);
    json.field("median_ms", ms);
    json.field("ns_per_elem", ms * 1e6 / static_cast<double>(n));
    json.field("vs_hard_coded", ms / h);
  };
  tier_row("hard-coded", h);
  tier_row("with_scan_op", d);
  tier_row("engine", e);
  json.row();
  json.field("tier", "faultpoint");
  json.field("median_ms", f);
  json.field("vs_dispatched", f / d);
  json.field("fire_ns_per_call",
             fire_ms * 1e6 / static_cast<double>(kFireCalls));

  // The new workloads: every registered operator through the same engine.
  std::printf("\nevery operator via OpRequest (median ms):\n");
  double plus_ms = 0.0, worst_wide = 0.0;
  const char* worst_op = "";
  for (const ScanOp op : kAllScanOps) {
    std::vector<double> ms;
    unsigned interleave = 0;
    KernelTier tier = KernelTier::kAuto;
    for (std::size_t i = 0; i < std::max<std::size_t>(3, reps / 3); ++i) {
      ms.push_back(time_once([&] {
        const RunResult r = engine.run(OpRequest{&list, op});
        if (!r.ok()) {
          std::fprintf(stderr, "%s failed: %s\n", scan_op_name(op),
                       r.status.message.c_str());
          std::exit(1);
        }
        interleave = r.stats.host_interleave;
        tier = r.stats.kernel_tier;
      }));
    }
    const double m = median(ms);
    if (op == ScanOp::kPlus) plus_ms = m;
    const bool two_lane = op == ScanOp::kSegSum || op == ScanOp::kAffine ||
                          op == ScanOp::kMaxPlus;
    if (two_lane && m / plus_ms > worst_wide) {
      worst_wide = m / plus_ms;
      worst_op = scan_op_name(op);
    }
    std::printf("  %-10s %8.2f ms  (%s, %u cursors)\n", scan_op_name(op), m,
                kernel_tier_name(tier), interleave);
    json.row();
    json.field("tier", "operator");
    json.field("op", scan_op_name(op));
    json.field("median_ms", m);
    json.field("kernel_tier", static_cast<double>(tier));
    json.field("cursors", static_cast<double>(interleave));
  }

  const std::string json_path = bench_json_path("BENCH_op_scan.json");
  if (json.write(json_path))
    std::printf("\nwrote %s\n", json_path.c_str());

  bool ok = true;
  const double limit = 1.05;
  if (d > h * limit) {
    std::printf("\nGATE MISS: dispatch path %.2f%% over hard-coded "
                "(limit 5%%)\n",
                (d / h - 1.0) * 100.0);
    ok = false;
  }
  if (e > h * limit) {
    std::printf("\nGATE MISS: engine path %.2f%% over hard-coded "
                "(limit 5%%)\n",
                (e / h - 1.0) * 100.0);
    ok = false;
  }
  if (worst_wide > 1.3) {
    std::printf("\nGATE MISS: %s scan %.2fx the plus scan (limit 1.3x)\n",
                worst_op, worst_wide);
    ok = false;
  }
  bool fault_miss = false;
  if (f > d * 1.01) {
    std::printf("\nGATE MISS: disabled faultpoints cost %.2f%% over the "
                "dispatch tier (limit 1%%)\n",
                (f / d - 1.0) * 100.0);
    ok = false;
    fault_miss = true;
  }
  if (ok) {
    std::printf("\ngate ok: generic paths within 5%% of the hard-coded "
                "sum scan, two-lane operators within 1.3x of plus, "
                "disabled faultpoints within 1%% of dispatch\n");
    return 0;
  }
  if (lenient && !(fault_miss && fault_strict)) {
    std::printf("OP_SCAN_LENIENT set: reporting only, not failing\n");
    return 0;
  }
  return 1;
}
