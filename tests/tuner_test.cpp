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

// -- joint (threads x W) host tuning ---------------------------------------

TEST(HostTune, JointGridPicksThreadsForLargeLists) {
  // A DRAM-resident list with plenty of hardware: the model must want
  // real thread parallelism AND keep the packed path ahead of the serial
  // walk (the Fig. 11 regime).
  const HostTuneResult big = host_tune(1 << 22, 1.0, /*max_threads=*/8);
  EXPECT_GT(big.threads, 1u);
  EXPECT_GE(big.interleave, 4u);
  EXPECT_LT(big.packed_ns, big.serial_ns);

  // Tiny lists: fork/join dominates, one worker is the right answer.
  const HostTuneResult tiny = host_tune(512, 1.0, /*max_threads=*/8);
  EXPECT_EQ(tiny.threads, 1u);
}

TEST(HostTune, ThreadsNeverExceedTheCapAndPinsAreHonoured) {
  for (const unsigned cap : {1u, 2u, 3u, 6u, 16u}) {
    const HostTuneResult r = host_tune(1 << 22, 1.0, cap);
    EXPECT_GE(r.threads, 1u);
    EXPECT_LE(r.threads, cap) << "cap " << cap;
  }
  const HostTuneResult pinned_t = host_tune(1 << 22, 1.0, 8, /*pin T=*/3);
  EXPECT_EQ(pinned_t.threads, 3u);
  const HostTuneResult pinned_w =
      host_tune(1 << 22, 1.0, 8, /*pin T=*/0, /*pin W=*/2);
  EXPECT_EQ(pinned_w.interleave, 2u);
  const HostTuneResult pinned_both = host_tune(1 << 20, 1.0, 8, 5, 7);
  EXPECT_EQ(pinned_both.threads, 5u);
  EXPECT_EQ(pinned_both.interleave, 7u);
  // A pinned point evaluates to exactly host_tune_at's model totals.
  const HostTuneResult at = host_tune_at(1 << 20, 5, 7, 1.0);
  EXPECT_EQ(pinned_both.packed_ns, at.packed_ns);
  EXPECT_EQ(pinned_both.serial_ns, at.serial_ns);
}

TEST(HostTune, MoreThreadsNeverModelSlowerUnderTheJointGrid) {
  // The grid's best at a larger cap can only improve (it contains the
  // smaller grid), and the fork/join term makes strictly more threads at
  // a FIXED W more expensive for small n.
  double prev = host_tune(1 << 22, 1.0, 1).packed_ns;
  for (const unsigned cap : {2u, 4u, 8u, 16u}) {
    const double cur = host_tune(1 << 22, 1.0, cap).packed_ns;
    EXPECT_LE(cur, prev) << "cap " << cap;
    prev = cur;
  }
  EXPECT_GT(host_tune_at(4096, 8, 8, 1.0).packed_ns,
            host_tune_at(4096, 1, 8, 1.0).packed_ns);
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

TEST(HostTune, MtModelReducesToSingleThreadModel) {
  // At T=1 the multithread per-element model is the single-worker model:
  // phases 1 and 3 each pay max(latency / W, combine) plus the
  // round-robin bookkeeping, and the build is one sequential pass.
  // Neither the outstanding-miss ceiling nor the build floor binds.
  const HostCostConstants k;
  for (const double n : {1 << 14, 1 << 18, 1 << 22}) {
    const double lat = host_latency_ns(n * 12.0, k);
    for (const unsigned w : {1u, 8u, 32u}) {
      const double per_phase = std::max(lat / w, k.combine_ns) +
                               k.bookkeeping_ns * static_cast<double>(w - 1);
      EXPECT_NEAR(host_packed_ns_per_elem_mt(n, 1, w, k),
                  2.0 * per_phase + k.build_ns, 1e-12)
          << "n=" << n << " W=" << w;
    }
  }
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
