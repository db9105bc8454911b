#include "analysis/tuner.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "analysis/schedule.hpp"
#include "core/host_exec.hpp"

namespace lr90 {

namespace {

/// Total predicted cycles for one (m, s1) candidate: Eq. 3/Eq. 6 for
/// Phases 1+3 and fixed work, plus the best Phase-2 estimate.
double candidate_cycles(double n, double m, double s1,
                        const CostConstants& k, unsigned p,
                        double contention, std::size_t* balances) {
  const std::vector<double> s = balance_schedule_auto(n, m, s1, k);
  if (balances) *balances = s.size();
  const double phase13 = expected_cycles_eq6(n, m, s, k, p, contention);
  return phase13 + phase2_cycles_estimate(m, k, p, contention);
}

}  // namespace

TuneResult tune(double n, const CostConstants& k, unsigned p,
                double contention) {
  assert(n >= 1);
  assert(p >= 1);
  TuneResult best;
  if (n < 8) {
    best.m = 1;
    best.s1 = std::max(1.0, n);
    best.cycles =
        candidate_cycles(n, best.m, best.s1, k, p, contention,
                         &best.balances);
    return best;
  }

  const double ln_n = std::log(n);
  // The Eq. 5 optimum scales like sqrt(n ln n) (balance the b*(n/m)ln m
  // term against the (a S1 + c + e) m term); bracket it generously.
  const double m_lo = std::max(1.0, std::sqrt(n) / 8.0);
  const double m_hi = std::max(m_lo + 1.0,
                               std::min(n / 2.0, 64.0 * std::sqrt(n * ln_n)));

  best.cycles = std::numeric_limits<double>::infinity();
  auto consider = [&](double m, double s1) {
    m = std::clamp(m, 1.0, std::max(1.0, n - 1.0));
    s1 = std::max(1.0, s1);
    std::size_t l = 0;
    const double cycles =
        candidate_cycles(n, m, s1, k, p, contention, &l);
    if (cycles < best.cycles) {
      best = {m, s1, cycles, l};
    }
  };

  // Coarse pass: log-spaced m, s1 as fractions of the mean length n/m.
  constexpr int kMSteps = 24;
  constexpr double kS1Fracs[] = {0.05, 0.1, 0.2, 0.35, 0.5,
                                 0.75, 1.0, 1.5, 2.0};
  for (int i = 0; i < kMSteps; ++i) {
    const double t = static_cast<double>(i) / (kMSteps - 1);
    const double m = std::floor(m_lo * std::pow(m_hi / m_lo, t));
    for (const double frac : kS1Fracs) consider(m, std::floor(frac * n / m));
  }

  // Fine pass around the coarse minimizer.
  const TuneResult coarse = best;
  constexpr double kRefine[] = {0.6, 0.7, 0.8, 0.9, 1.0, 1.12, 1.25, 1.4, 1.6};
  for (const double fm : kRefine) {
    for (const double fs : kRefine) {
      consider(std::floor(coarse.m * fm), std::floor(coarse.s1 * fs));
    }
  }
  return best;
}

TunedModel::TunedModel(const std::vector<double>& sizes,
                       const CostConstants& k) {
  assert(sizes.size() >= 4);
  std::vector<double> logn, ms, s1s;
  logn.reserve(sizes.size());
  for (const double n : sizes) {
    const TuneResult r = tune(n, k);
    logn.push_back(std::log2(n));
    ms.push_back(r.m);
    s1s.push_back(r.s1);
  }
  m_poly_ = polyfit(logn, ms, 3);
  s1_poly_ = polyfit(logn, s1s, 3);
}

TuneResult TunedModel::params(double n) const {
  const double x = std::log2(std::max(2.0, n));
  TuneResult r;
  r.m = std::clamp(std::round(m_poly_(x)), 1.0, std::max(1.0, n - 1.0));
  r.s1 = std::max(1.0, std::round(s1_poly_(x)));
  return r;
}

std::size_t host_sublists(double n, unsigned threads, unsigned interleave) {
  constexpr double kDrainPerSublist = 0.2;  // Eq. 5's D/S on the host
  const std::size_t lanes =
      std::size_t{std::max(1u, threads)} * std::max(1u, interleave);
  const double m =
      n > 1.0 ? std::sqrt(kDrainPerSublist * n * std::log(n) / 2.0) : 0.0;
  return std::max(lanes, static_cast<std::size_t>(m));
}

host_exec::HostPlan plan_host(std::size_t width, ScanOp op,
                              const HostPins& pins) {
  constexpr std::size_t kAutoThreadsFrom = std::size_t{1} << 17;
  constexpr std::size_t kInL2 = std::size_t{512} << 10;  // flat latency
  // Parallelism must amortize thread fork/join (~tens of microseconds):
  // give every thread at least ~2k vertices of combine-equivalent work
  // (costlier operators amortize sooner), shedding threads before
  // falling back to the serial walk.
  const auto breakeven =
      static_cast<std::size_t>(std::max(1.0, 2048.0 / op_cost_factor(op)));
  const unsigned cap = pins.threads == 0 && width < kAutoThreadsFrom
                           ? 1
                           : host_exec::effective_threads(pins.threads);
  const auto threads = static_cast<unsigned>(std::min<std::size_t>(
      cap, std::max<std::size_t>(1, width / breakeven)));
  const std::size_t bytes = 12 * width;
  unsigned w = std::min(pins.interleave, host_exec::kMaxInterleave);
  if (w == 0) {
    w = bytes <= kInL2                    ? 4
        : bytes <= (std::size_t{2} << 20) ? 8
        : bytes <= (std::size_t{4} << 20) ? 16
                                          : std::clamp(64 / threads, 1u, 32u);
  }
  // One worker walks serially unless W cursors have memory latency to
  // hide: while the footprint fits L2 the serial walk barely stalls.
  if (!pins.force_sublists && threads == 1 && (w <= 1 || bytes <= kInL2))
    return {};
  return {threads, host_sublists(static_cast<double>(width), threads, w), w};
}

}  // namespace lr90
