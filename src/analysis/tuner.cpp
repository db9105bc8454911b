#include "analysis/tuner.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>
#include <mutex>
#include <tuple>

#include "analysis/schedule.hpp"
#include "vm/config.hpp"

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

TuneResult tuned_params(double n, bool rank, unsigned p) {
  static std::mutex mu;
  static std::map<std::tuple<double, bool, unsigned>, TuneResult> cache;
  std::lock_guard<std::mutex> lock(mu);
  const auto key = std::make_tuple(n, rank, p);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  const CostConstants k = CostConstants::from(vm::CostTable::cray_c90(), rank);
  vm::MachineConfig cfg;
  cfg.processors = p;
  const TuneResult r = tune(n, k, p, cfg.contention_factor());
  cache.emplace(key, r);
  return r;
}

HostTuneResult host_tune_at(double n, unsigned threads, unsigned interleave,
                            double op_factor, const HostCostConstants& k) {
  threads = std::max(1u, threads);
  HostTuneResult r;
  r.threads = threads;
  r.interleave = interleave;
  r.serial_ns = n * host_serial_ns_per_elem(n, k, op_factor);
  r.packed_ns =
      n * host_packed_ns_per_elem_mt(n, threads, interleave, k, op_factor) +
      k.fixed_run_ns + k.fork_join_ns * static_cast<double>(threads - 1);
  return r;
}

HostTuneResult host_tune(double n, double op_factor, unsigned max_threads,
                         unsigned pinned_threads, unsigned pinned_interleave,
                         const HostCostConstants& k) {
  max_threads = std::max(1u, max_threads);
  // Thread candidates: the powers of two up to max_threads plus
  // max_threads itself (so e.g. 6 hardware threads consider {1,2,4,6}).
  std::vector<unsigned> ts;
  if (pinned_threads > 0) {
    ts.push_back(pinned_threads);
  } else {
    for (unsigned t = 1; t <= max_threads; t *= 2) ts.push_back(t);
    if (ts.back() != max_threads) ts.push_back(max_threads);
  }
  std::vector<unsigned> ws;
  if (pinned_interleave > 0)
    ws.push_back(pinned_interleave);
  else
    ws.assign({1u, 2u, 4u, 8u, 16u, 32u});
  HostTuneResult best = host_tune_at(n, ts.front(), ws.front(), op_factor, k);
  for (const unsigned t : ts) {
    for (const unsigned w : ws) {
      const HostTuneResult cand = host_tune_at(n, t, w, op_factor, k);
      // Strict improvement keeps the smallest (threads, W) among model
      // ties: fewer workers and cursors at equal predicted time.
      if (cand.packed_ns < best.packed_ns) best = cand;
    }
  }
  return best;
}

std::size_t host_sublists(double n, unsigned threads, unsigned interleave,
                          unsigned pinned_per_thread,
                          const HostCostConstants& k) {
  const std::size_t t = std::max(1u, threads);
  if (pinned_per_thread > 0) return t * pinned_per_thread;
  const std::size_t lanes = t * std::max(1u, interleave);
  const double m =
      n > 1.0 ? std::sqrt(k.drain_per_sublist * n * std::log(n) / 2.0) : 0.0;
  return std::max(lanes, static_cast<std::size_t>(m));
}

}  // namespace lr90
