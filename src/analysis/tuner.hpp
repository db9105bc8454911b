// Parameter tuning for the Reid-Miller algorithm (paper Section 4.4).
//
// Given only the list length n, the implementation must choose the number
// of random split positions m and the first balance interval S_1. The paper
// estimates the running time via Eq. 3 for many (m, S_1) candidates, keeps
// the minimizer, and -- since doing that at every call would be silly --
// fits cubic polynomials in log n to the minimizers and evaluates the fits
// at run time ("It appears that m and S_1 are approximately cubic
// polynomials of log n").
//
// We reproduce both halves: `tune()` does the direct minimization (two-pass
// coarse/fine grid) and `TunedModel` holds the cubic-in-log-n fits built
// from a set of tuned sizes.
#pragma once

#include <cstddef>
#include <vector>

#include "analysis/cost_eqs.hpp"
#include "lists/ops.hpp"
#include "support/polyfit.hpp"

namespace lr90 {

namespace host_exec {
struct HostPlan;  // core/host_exec.hpp: the shape plan_host returns
}  // namespace host_exec

struct TuneResult {
  double m = 1.0;         ///< number of random split positions
  double s1 = 1.0;        ///< first balance interval (links)
  double cycles = 0.0;    ///< Eq. 3 + Phase-2 estimate at the minimizer
  std::size_t balances = 0;  ///< schedule length l at the minimizer
};

/// Directly minimizes the cost model over m and S_1 for a list of length n
/// on p processors (Eq. 3 for p = 1, its Eq. 6 generalization otherwise,
/// plus the best Phase-2 estimate). Deterministic; O(few hundred) schedule
/// evaluations. The paper tunes separately for every processor count
/// (Section 5: "we tuned the parameters for 1, 2, 4, and 8 processors").
/// `contention` is the machine's memory-bandwidth multiplier at p.
TuneResult tune(double n, const CostConstants& k, unsigned p = 1,
                double contention = 1.0);

/// Cubic-in-log-n fits of the tuned m(n) and S_1(n), the paper's run-time
/// parameter functions.
class TunedModel {
 public:
  /// Builds the fits by tuning at each of `sizes` (needs >= 4 sizes).
  TunedModel(const std::vector<double>& sizes, const CostConstants& k);

  /// Fitted parameters for a given n, clamped to sane ranges
  /// (1 <= m <= n-1 when n >= 2, s1 >= 1).
  TuneResult params(double n) const;

  const Polynomial& m_poly() const { return m_poly_; }
  const Polynomial& s1_poly() const { return s1_poly_; }

 private:
  Polynomial m_poly_;
  Polynomial s1_poly_;
};

// -- host hot-path planning -------------------------------------------------
//
// The paper tunes (m, S_1) offline and evaluates fitted functions of n at
// run time; the host plan is the same kind of table, read off the run's
// footprint F = 12 B a vertex and the operator's combine cost
// f = op_cost_factor(op):
//
//   threads  a pinned count T is shed to one worker per 2048 / f vertices,
//            min(T, max(1, n / (2048 / f))), so fork/join amortizes; with
//            the count on auto, a width below 2^17 takes one worker and a
//            wider one sheds the machine's count by the same rule
//   W        4 while F <= 512 KiB, 8 up to 2 MiB, 16 up to 4 MiB, then
//            64 / threads (at most 32): about 64 cursors across the chip
//   serial   one worker, and one cursor or F <= 512 KiB, where the whole
//            list sits in L2 and the walk has no latency to hide
//   m        host_sublists
//
// Measured on a 4-core Xeon (2 MiB L2 per core): a whole-list rank runs
// faster on one worker than on four up to 2^17 vertices, and on four from
// 2^18. The auto edge sits at 2^17, the shard width sharded runs were
// measured at with four workers.

/// The host sublist count m for a list of length n walked by `threads`
/// workers with `interleave` cursors each (plan_host's m). It minimizes
/// Eq. 5's two m-dependent terms, the drain D (n/m) ln m against the
/// per-sublist cost S m, in closed form: with
/// ln m ~ (ln n)/2 at the optimum, m = sqrt(D/S * n ln n / 2), where
/// D/S = 0.2 (a drain hop, a cursor walking the last long sublists alone,
/// over one more sublist's pick, claim and phase-2 link), floored at
/// threads x interleave so every cursor starts on a sublist of its own.
/// The paper's Section 4.4 tuned m scales the same way. The kernel caps
/// the count at n / 2.
std::size_t host_sublists(double n, unsigned threads, unsigned interleave);

/// The knobs of a host plan its caller fixed; 0 (false) leaves a knob
/// to the plan table.
struct HostPins {
  unsigned threads = 0;     ///< worker-thread cap; 0 = auto
  unsigned interleave = 0;  ///< cursors per worker (W)
  /// Run the sublist kernel even where the table picks the serial walk:
  /// an explicit Method::kReidMiller, or one shard of a sharded run.
  bool force_sublists = false;
};

/// The host execution shape for `width` vertices combined by `op`, read
/// off the table above: the one planning path for the Planner (a whole
/// list or one shard) and the shard layer's second-level pass (its
/// reduced list). A pinned W is kept; m comes from host_sublists. The
/// plan is the serial walk (sublists < 2) where the table says so and
/// the caller did not force the sublist kernel. The returned
/// host_exec::HostPlan is defined in core/host_exec.hpp.
host_exec::HostPlan plan_host(std::size_t width, ScanOp op,
                              const HostPins& pins = {});

}  // namespace lr90
