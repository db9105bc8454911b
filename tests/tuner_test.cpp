#include "analysis/tuner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analysis/schedule.hpp"
#include "core/host_exec.hpp"
#include "core/reid_miller.hpp"
#include "lists/generators.hpp"

namespace lr90 {
namespace {

CostConstants cray() { return CostConstants::from(vm::CostTable::cray_c90()); }

TEST(Tuner, ReturnsSaneParameters) {
  const CostConstants k = cray();
  for (const double n : {100.0, 1000.0, 10000.0, 1e6}) {
    const TuneResult r = tune(n, k);
    EXPECT_GE(r.m, 1.0) << n;
    EXPECT_LT(r.m, n) << n;
    EXPECT_GE(r.s1, 1.0) << n;
    EXPECT_GT(r.cycles, 0.0) << n;
    EXPECT_GE(r.balances, 1u) << n;
  }
}

TEST(Tuner, TinyN) {
  const TuneResult r = tune(4, cray());
  EXPECT_GE(r.m, 1.0);
  EXPECT_GE(r.s1, 1.0);
}

TEST(Tuner, MGrowsWithN) {
  const CostConstants k = cray();
  const TuneResult small = tune(1e4, k);
  const TuneResult large = tune(1e6, k);
  EXPECT_GT(large.m, small.m);
}

TEST(Tuner, TunedMTracksSqrtNLogN) {
  // The Eq. 5 optimum scales like sqrt(n ln n); check the tuned m is within
  // a factor of 4 of that scale at several sizes.
  const CostConstants k = cray();
  for (const double n : {1e4, 1e5, 1e6}) {
    const TuneResult r = tune(n, k);
    const double scale = std::sqrt(n * std::log(n));
    EXPECT_GT(r.m, scale / 4.0) << n;
    EXPECT_LT(r.m, scale * 4.0) << n;
  }
}

TEST(Tuner, MinimizerBeatsNeighbours) {
  // Perturbing the tuned parameters should not improve the predicted time
  // by more than a hair (grid granularity).
  const CostConstants k = cray();
  const double n = 200000;
  const TuneResult best = tune(n, k);
  auto cycles_at = [&](double m, double s1) {
    const auto s = balance_schedule_auto(n, m, s1, k);
    return expected_cycles_eq3(n, m, s, k) + phase2_serial_cycles(m, k);
  };
  const double t_best = cycles_at(best.m, best.s1);
  EXPECT_GT(cycles_at(best.m * 3.0, best.s1), t_best * 0.98);
  EXPECT_GT(cycles_at(best.m / 3.0, best.s1), t_best * 0.98);
  EXPECT_GT(cycles_at(best.m, best.s1 * 4.0), t_best * 0.98);
}

TEST(Tuner, PredictedPerVertexApproachesKernelAsymptote) {
  // For huge n the predicted cycles/vertex must approach a = 8 (the paper's
  // Eq. 5 leading term).
  const CostConstants k = cray();
  const TuneResult r = tune(5e7, k);
  const double cpv = r.cycles / 5e7;
  EXPECT_GT(cpv, 8.0);
  EXPECT_LT(cpv, 10.0);
}

TEST(TunedModel, FitsReproduceDirectTuning) {
  const CostConstants k = cray();
  std::vector<double> sizes;
  for (double n = 1 << 10; n <= (1 << 22); n *= 2) sizes.push_back(n);
  const TunedModel model(sizes, k);
  // At an interpolated size, the fitted parameters should predict a time
  // within 15% of the directly tuned optimum.
  for (const double n : {3000.0, 100000.0, 2.5e6}) {
    const TuneResult direct = tune(n, k);
    const TuneResult fitted = model.params(n);
    const auto s = balance_schedule_auto(n, fitted.m, fitted.s1, k);
    const double t_fitted =
        expected_cycles_eq3(n, fitted.m, s, k) +
        phase2_serial_cycles(fitted.m, k);
    EXPECT_LT(t_fitted, 1.15 * direct.cycles) << n;
  }
}

TEST(TunedModel, CubicPolynomials) {
  const CostConstants k = cray();
  std::vector<double> sizes{1e3, 4e3, 1.6e4, 6.4e4, 2.56e5, 1.02e6};
  const TunedModel model(sizes, k);
  EXPECT_EQ(model.m_poly().degree(), 3);
  EXPECT_EQ(model.s1_poly().degree(), 3);
}

TEST(TunedModel, FittedParametersRunEndToEnd) {
  // The paper's runtime uses the fitted polylog functions, not per-call
  // minimization. Feed fitted (m, S1) into an actual simulated run and
  // require the cost to stay within 15% of the auto-tuned run.
  const CostConstants k = cray();
  std::vector<double> sizes;
  for (double n = 1 << 10; n <= (1 << 22); n *= 2) sizes.push_back(n);
  const TunedModel model(sizes, k);

  const std::size_t n = 300000;  // off the fitted grid
  Rng rng(1);
  const LinkedList l = random_list(n, rng, ValueInit::kUniformSmall);
  const auto want = [&] {
    std::vector<value_t> w(n);
    value_t acc = 0;
    for_each_in_order(l, [&](index_t v, std::size_t) {
      w[v] = acc;
      acc += l.value[v];
    });
    return w;
  }();

  auto run_with = [&](double m_opt, double s1_opt) {
    LinkedList work = l;
    std::vector<value_t> out(n);
    vm::Machine machine;
    Rng r(2);
    ReidMillerOptions opt;
    opt.m = m_opt;
    opt.s1 = s1_opt;
    reid_miller_scan(machine, work, std::span<value_t>(out), r, OpPlus{},
                     opt);
    EXPECT_EQ(out, want);
    return machine.max_cycles();
  };
  const double auto_tuned = run_with(0, 0);
  const TuneResult fitted = model.params(static_cast<double>(n));
  const double via_fits = run_with(fitted.m, fitted.s1);
  EXPECT_LT(via_fits, 1.15 * auto_tuned);
}

// -- host plan table ---------------------------------------------------------

TEST(HostTune, DramSizedListTakesEveryThread) {
  // A DRAM-resident list with plenty of hardware takes every worker and
  // wide cursors on the sublist kernel (the Fig. 11 regime); a
  // 512-vertex list cannot amortize a second worker.
  const host_exec::HostPlan big =
      plan_host(1 << 22, ScanOp::kPlus, {.threads = 8});
  EXPECT_EQ(big.threads, 8u);
  EXPECT_GE(big.interleave, 4u);
  EXPECT_GE(big.sublists, 2u);

  const host_exec::HostPlan tiny =
      plan_host(512, ScanOp::kPlus, {.threads = 8});
  EXPECT_EQ(tiny.threads, 1u);
  EXPECT_LT(tiny.sublists, 2u);
}

TEST(HostTune, PlannedThreadsNeverExceedTheCapAndPinsAreHonoured) {
  for (const std::size_t n : {std::size_t{1} << 10, std::size_t{1} << 16,
                              std::size_t{1} << 22}) {
    for (const unsigned cap : {1u, 2u, 3u, 6u, 16u}) {
      const host_exec::HostPlan p =
          plan_host(n, ScanOp::kPlus, {.threads = cap, .force_sublists = true});
      EXPECT_GE(p.threads, 1u);
      EXPECT_LE(p.threads, cap) << "n=" << n << " cap " << cap;
    }
    EXPECT_LE(plan_host(n, ScanOp::kPlus).threads,
              host_exec::effective_threads(0));
  }
  // Past the break-even a pinned count runs as pinned; a pinned W runs
  // as pinned (clamped to the kernel's maximum), with m planned for it.
  EXPECT_EQ(plan_host(1 << 22, ScanOp::kPlus, {.threads = 3}).threads, 3u);
  EXPECT_EQ(plan_host(1 << 22, ScanOp::kPlus, {.interleave = 2}).interleave,
            2u);
  const host_exec::HostPlan both =
      plan_host(1 << 20, ScanOp::kPlus, {.threads = 5, .interleave = 7});
  EXPECT_EQ(both.threads, 5u);
  EXPECT_EQ(both.interleave, 7u);
  EXPECT_EQ(both.sublists, host_sublists(1 << 20, 5, 7));
  EXPECT_EQ(plan_host(1 << 20, ScanOp::kPlus, {.threads = 1, .interleave = 999})
                .interleave,
            host_exec::kMaxInterleave);
}

TEST(HostTune, ThreadsGrowWithTheCapAndTheWidth) {
  // A larger cap or a wider list never plans fewer workers, for cheap and
  // costly operators alike; a small width sheds the cap to one worker per
  // ~2048 vertices of addition, so 4096 vertices take two of eight.
  for (const ScanOp op : {ScanOp::kPlus, ScanOp::kAffine}) {
    for (std::size_t n = 2; n <= (std::size_t{1} << 24); n *= 4) {
      unsigned prev = 0;
      for (const unsigned cap : {1u, 2u, 4u, 8u, 16u}) {
        const auto plan = [&](std::size_t width) {
          return plan_host(width, op, {.threads = cap, .force_sublists = true})
              .threads;
        };
        EXPECT_GE(plan(n), prev) << "n=" << n << " cap " << cap;
        EXPECT_GE(plan(4 * n), plan(n)) << "n=" << n << " cap " << cap;
        prev = plan(n);
      }
    }
  }
  EXPECT_EQ(plan_host(4096, ScanOp::kPlus, {.threads = 8}).threads, 2u);
}

TEST(HostTune, InterleaveStepsAtTheFootprintTiers) {
  // W by the footprint, 12 B a vertex: 4 up to 512 KiB, 8 up to 2 MiB,
  // 16 up to 4 MiB, then 64 / threads, at most 32.
  const auto w_at = [](std::size_t n, unsigned threads) {
    return plan_host(n, ScanOp::kPlus,
                     {.threads = threads, .force_sublists = true})
        .interleave;
  };
  EXPECT_EQ(w_at(std::size_t{1} << 15, 1), 4u);
  EXPECT_EQ(w_at(std::size_t{1} << 17, 1), 8u);
  EXPECT_EQ(w_at(std::size_t{1} << 18, 1), 16u);
  EXPECT_EQ(w_at(std::size_t{1} << 24, 4), 16u);
  EXPECT_EQ(w_at(std::size_t{1} << 20, 1), 32u);
  // The edges themselves, in vertices: 512 KiB, 2 MiB and 4 MiB over 12 B.
  EXPECT_EQ(w_at(43690, 1), 4u);
  EXPECT_EQ(w_at(43691, 1), 8u);
  EXPECT_EQ(w_at(174762, 1), 8u);
  EXPECT_EQ(w_at(174763, 1), 16u);
  EXPECT_EQ(w_at(349525, 4), 16u);
  EXPECT_EQ(w_at(349526, 1), 32u);
  EXPECT_EQ(w_at(349526, 2), 32u);
  EXPECT_EQ(w_at(349526, 8), 8u);
}

TEST(HostTune, SublistCountTracksSqrtNLogN) {
  // The host sublist rule sizes m the way the paper's tuner does
  // (Tuner.TunedMTracksSqrtNLogN above): it grows with n, stays within a
  // factor of 4 of sqrt(n ln n), and never leaves a cursor without a
  // sublist of its own.
  for (const unsigned threads : {1u, 4u, 8u}) {
    for (const unsigned w : {1u, 8u, 32u}) {
      std::size_t prev = 0;
      for (double n = 1 << 16; n <= double(1u << 30); n *= 4) {
        const std::size_t m = host_sublists(n, threads, w);
        const double scale = std::sqrt(n * std::log(n));
        EXPECT_GT(m, prev) << "n=" << n << " T=" << threads << " W=" << w;
        EXPECT_GT(static_cast<double>(m), scale / 4.0) << n;
        EXPECT_LT(static_cast<double>(m), scale * 4.0) << n;
        EXPECT_GE(m, threads * w) << "n=" << n;
        prev = m;
      }
    }
  }
  // Below the scale where the drain matters, the floor holds: threads x W.
  EXPECT_EQ(host_sublists(1024, 8, 32), 256u);
}

TEST(HostTune, OneWorkerWalksSeriallyUntilCursorsHaveLatencyToHide) {
  // One worker takes the serial walk while the footprint sits in L2
  // (12 B a vertex, up to 512 KiB) or only one cursor would run; past
  // it, W cursors hide the misses the walk stalls on. Two workers always
  // run the sublist kernel.
  for (const std::size_t n : {std::size_t{1} << 10, std::size_t{43690},
                              std::size_t{43691}, std::size_t{1} << 16,
                              std::size_t{1} << 20}) {
    for (const unsigned w : {0u, 1u, 2u, 8u}) {
      const host_exec::HostPlan p =
          plan_host(n, ScanOp::kAffine, {.threads = 1, .interleave = w});
      const bool serial = n <= 43690 || w == 1;
      EXPECT_EQ(p.sublists < 2, serial) << "n=" << n << " W=" << w;
      EXPECT_EQ(p.threads, 1u);
    }
  }
  EXPECT_GE(
      plan_host(5000, ScanOp::kPlus, {.threads = 2, .interleave = 1}).sublists,
      2u);
}

TEST(HostTune, PlanHostWalksSeriallyUnlessForcedOrThreaded) {
  // One worker on a 2^15 list: the model prefers the serial walk, so the
  // plan is sublists < 2. Forcing the sublist kernel keeps the one thread
  // and a pinned W, and gives every cursor a sublist of its own.
  const std::size_t n = std::size_t{1} << 15;
  EXPECT_LT(plan_host(n, ScanOp::kPlus, {.threads = 1}).sublists, 2u);
  const host_exec::HostPlan forced = plan_host(
      n, ScanOp::kPlus,
      {.threads = 1, .interleave = 4, .force_sublists = true});
  EXPECT_EQ(forced.threads, 1u);
  EXPECT_EQ(forced.interleave, 4u);
  EXPECT_GE(forced.sublists, 4u);
  EXPECT_EQ(forced.sublists, host_sublists(static_cast<double>(n), 1, 4));

  // Two threads past the ~2048-vertex break-even run the sublist kernel
  // without being forced; a third would get too little work.
  const host_exec::HostPlan threaded =
      plan_host(5000, ScanOp::kPlus, {.threads = 3});
  EXPECT_EQ(threaded.threads, 2u);
  EXPECT_GE(threaded.sublists, 2u);
}

}  // namespace
}  // namespace lr90
