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

// -- host hot-path tuning ---------------------------------------------------

/// The host tuner's answer for the sublist kernel: worker thread count
/// and interleave width (the multiprocessor and vector-length analogs,
/// paper Sections 5 and 3) plus the model totals backing the choice, so
/// the Planner can compare the sublist kernel against the single-cursor
/// serial walk.
struct HostTuneResult {
  unsigned threads = 1;     ///< worker threads the model picked
  unsigned interleave = 1;  ///< cursors in flight per worker
  double packed_ns = 0.0;   ///< model total ns of the sublist kernel (T, W)
  double serial_ns = 0.0;   ///< model total ns of the serial walk
};

/// The host cost model evaluated at one pinned (threads, W) point: the
/// sublist-kernel-vs-serial comparison a Planner makes when the caller
/// fixed the whole execution shape.
HostTuneResult host_tune_at(double n, unsigned threads, unsigned interleave,
                            double op_factor = 1.0,
                            const HostCostConstants& k = {});

/// Searches the joint (threads x W) grid for a list of length n by
/// evaluating the host cost model (analysis/cost_eqs.hpp
/// host_packed_ns_per_elem_mt) at the power-of-two thread candidates up
/// to `max_threads` crossed with W in {1..32} -- the host counterpart of
/// the paper's Section 4.4 (m, S_1) grid, extended to Section 5's
/// processor dimension and the Section 3 vector-length choice.
/// `pinned_threads` / `pinned_interleave` (> 0) restrict their axis to
/// that single value, so a caller who fixed one knob gets the other
/// tuned for it. Deterministic, O(candidates) closed-form
/// evaluations -- cheap enough that plan_host calls it on every run.
HostTuneResult host_tune(double n, double op_factor = 1.0,
                         unsigned max_threads = 1,
                         unsigned pinned_threads = 0,
                         unsigned pinned_interleave = 0,
                         const HostCostConstants& k = {});

/// The host sublist count m for a list of length n walked by `threads`
/// workers with `interleave` cursors each (plan_host's m). It minimizes
/// Eq. 5's two m-dependent terms, the drain D (n/m) ln m against the
/// per-sublist cost S m, in closed form: with
/// ln m ~ (ln n)/2 at the optimum, m = sqrt(D/S * n ln n / 2)
/// (D/S = k.drain_per_sublist), floored at threads x interleave so
/// every cursor starts on a sublist of its own. The paper's Section 4.4
/// tuned m scales the same way. The kernel caps the count at n / 2.
std::size_t host_sublists(double n, unsigned threads, unsigned interleave,
                          const HostCostConstants& k = {});

/// The knobs of a host plan its caller fixed; 0 (false) leaves a knob
/// to the model.
struct HostPins {
  unsigned threads = 0;     ///< worker-thread cap; 0 = the machine's
  unsigned interleave = 0;  ///< cursors per worker (W)
  /// Run the sublist kernel even where the model prefers the serial
  /// walk: an explicit Method::kReidMiller, or one shard of a sharded run.
  bool force_sublists = false;
};

/// The host execution shape for `width` vertices combined by `op`: the
/// one planning path for the Planner (a whole list or one shard) and the
/// shard layer's second-level pass (its reduced list). A pinned thread
/// count is shed to one thread per ~2048 / op_cost_factor(op) vertices,
/// so fork/join amortizes; with pins.threads == 0 the joint host_tune
/// grid picks the count, capped at the machine's. W comes from the same
/// tune, m from host_sublists. The sublist kernel runs when two or more
/// threads clear that break-even, when W cursors beat the serial walk, or
/// when forced; otherwise the plan is the serial walk (sublists < 2). The
/// returned host_exec::HostPlan is defined in core/host_exec.hpp.
host_exec::HostPlan plan_host(std::size_t width, ScanOp op,
                              const HostPins& pins = {});

}  // namespace lr90
